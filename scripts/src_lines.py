#!/usr/bin/env python3
"""Count the lines of the osb package: all lines, and lines of code.

A line of code holds a token that is not a comment, a docstring or blank
space; a docstring is any statement made of string literals alone.  So
re-wrapping a comment or a docstring changes the first count only.

Usage:  python3 scripts/src_lines.py [PACKAGE_DIR]   (default: src/osb)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    rows, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        rows.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "osb"
    total = code = 0
    for path in sorted(root.glob("*.py")):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        count = code_lines(path)
        total, code = total + lines, code + count
        print(f"{path.name:20s} {lines:6,d} lines {count:6,d} code")
    print(f"{'total':20s} {total:6,d} lines {code:6,d} code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
