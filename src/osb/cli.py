"""Command-line harness: verification campaigns, family certification,
sampling, and corpus generation.

Subcommands: verify-main, verify-lp, lemmas, family-check, sample,
corpus gen.  Settings resolve with precedence CLI flag > environment
(OSB_SEED, OSB_ENUM_CAP) > config file (key=value lines) > defaults.
Exit codes: 0 all non-vacuous checks pass, 1 any failure, 2 usage error
(including a value beyond the float range), 3 family-hypothesis failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import campaigns
from .corpus import (
    DEFAULT_SEED,
    Corpus,
    corpus_to_json,
    default_corpus,
    load_corpus,
    single_matrix_corpus,
)
from .errors import (DomainError, FormatError, HypothesisError, ResourceError,
                     read_input_text)
from .families import (
    DEFAULT_ENUM_CAP,
    check_marginals,
    family_for_cell,
    parse_family_spec,
    sample_array,
)
from .matrices import load_matrix
from .reports import (
    all_passed,
    canonical_json,
    format_summary,
    reports_to_csv,
    reports_to_json,
    summarize,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3


def _read_config(path: Optional[str]) -> dict[str, str]:
    if path is None:
        path = os.environ.get("OSB_CONFIG")
    if not path:
        return {}
    settings = {}
    for line in read_input_text(path).split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"bad config line {line!r}; expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("seed", "enum_cap"):
            raise FormatError(f"unknown config key {key!r} in {path}; "
                              "expected seed or enum_cap")
        settings[key] = value
    return settings


def _parse_setting(raw: str, name: str, source: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{name} from {source} must be an integer, got {raw!r}")


def _resolve_int(cli_value, env_name: str, config: dict, key: str, default: int) -> int:
    if cli_value is not None:
        return int(cli_value)
    env = os.environ.get(env_name)
    if env:
        return _parse_setting(env, env_name, "the environment")
    if key in config:
        return _parse_setting(config[key], key, "the config file")
    return default


def _parse_ell_range(text: Optional[str]) -> Optional[tuple[int, int]]:
    """A..B or a single integer; a range that selects no ell >= 1 is an
    error, and one that does is clamped to each family's 1..n later."""
    if text is None:
        return None
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise DomainError(f"bad ell range {text!r}; expected A..B or a single integer")
    if hi < max(lo, 1):
        raise DomainError(f"ell range {text!r} selects no ell >= 1")
    return lo, hi


def _parse_p_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"bad p list {text!r}; expected comma-separated numbers")
    if not values:
        raise DomainError(f"p list {text!r} names no exponent")
    if not all(math.isfinite(p) for p in values):
        raise DomainError("p must be finite and >= 1")
    if any(p < 1 for p in values):
        raise DomainError("p values must be >= 1")
    repeated = [p for i, p in enumerate(values) if p in values[:i]]
    if repeated:
        raise DomainError(f"p list {text!r} repeats p = {repeated[0]:g}")
    return values


def _load_inputs(args) -> Corpus:
    if args.matrix:
        return single_matrix_corpus(load_matrix(args.matrix))
    if args.corpus:
        return load_corpus(args.corpus)
    return default_corpus(seed=args.resolved_corpus_seed)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish_reports(args, reports) -> int:
    payload = (
        reports_to_csv(reports) if args.format == "csv" else reports_to_json(reports)
    )
    if args.summary:
        if args.out:
            _emit(args, payload)
        print(format_summary(summarize(reports)))
    else:
        _emit(args, payload)
    return EXIT_PASS if all_passed(reports) else EXIT_FAIL


def _add_common(parser: argparse.ArgumentParser):
    """The options every family subcommand reads."""
    parser.add_argument("--family", required=True,
                        help="sym[:n], map[:n:N], or file:PATH")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--config", help="key=value settings file")


def _add_campaign(parser: argparse.ArgumentParser):
    _add_common(parser)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--matrix", help="single matrix file (.json or .csv)")
    source.add_argument("--corpus", help="corpus JSON (default: built-in corpus)")
    parser.add_argument("--mc-samples", type=int, default=None,
                        help="Monte Carlo draw count (default: exact enumeration)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--enum-cap", type=int, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--summary", action="store_true",
                        help="print pass/fail counts and worst margins")


def _add_shape(parser: argparse.ArgumentParser):
    parser.add_argument("--n", type=int, help="shape for bare sym/map specifiers")
    parser.add_argument("--N", type=int, help="shape for bare sym/map specifiers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osb",
        description="Verify order-statistic average bounds by exact "
        "enumeration and seeded Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-main", help="two-sided top-sum bound campaign")
    _add_campaign(p)
    p.add_argument("--ell", help="ell range A..B (default: 1..n per matrix)")
    p.add_argument("--reduce", action="store_true",
                   help="zero entries outside the ell*N largest before the "
                   "lower-bound check")

    p = sub.add_parser("verify-lp", help="lp path-norm bound campaign")
    _add_campaign(p)
    p.add_argument("--p", default="1,1.5,2,3", help="comma-separated exponents")

    p = sub.add_parser("lemmas", help="tail-inequality suite campaign")
    _add_campaign(p)
    p.add_argument("--ell", help="ell range A..B (default: 1..n per matrix)")
    p.add_argument("--per-instance", action="store_true",
                   help="emit one report per swept instance (default for "
                   "--matrix runs; corpus runs aggregate by worst margin)")

    p = sub.add_parser("family-check", help="certify family hypotheses")
    _add_common(p)
    _add_shape(p)
    p.add_argument("--summary", action="store_true",
                   help="print the size, marginal check and pairwise constant")

    p = sub.add_parser("sample", help="draw maps from a family")
    _add_common(p)
    _add_shape(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=10)

    p = sub.add_parser("corpus", help="corpus utilities")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    g = corpus_sub.add_parser("gen", help="write the default corpus")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", help="output path (default: stdout)")
    g.add_argument("--config", help="key=value settings file")
    return parser


def _resolve_family(args):
    """The family of a family-check or sample run.  ``--n``/``--N`` give the
    shape of a bare ``sym`` or ``map`` (``N`` defaults to ``n``); a
    specifier that fixes its own shape rejects them."""
    spec = parse_family_spec(args.family)
    if spec.kind == "file" or spec.n is not None:
        if (args.n, args.N) != (None, None):
            raise DomainError(f"--n/--N apply only to a bare sym or map; "
                              f"{args.family!r} fixes its own shape")
        if spec.kind == "file":
            return spec.file_family
        n, N = spec.n, spec.N
    elif args.n is None:
        raise DomainError(f"{spec.kind} needs a shape: use "
                          f"{'sym:n' if spec.kind == 'sym' else 'map:n:N'} or --n")
    else:
        n, N = args.n, args.n if args.N is None else args.N
    family = family_for_cell(spec, n, N)
    if family is None:  # a symmetric group needs N == n
        raise DomainError(f"sym has N == n; got --n {n} --N {N}")
    return family


def _run(args) -> int:
    config = _read_config(args.config)
    seed = _resolve_int(getattr(args, "seed", None), "OSB_SEED", config, "seed",
                        DEFAULT_SEED)
    cap = _resolve_int(getattr(args, "enum_cap", None), "OSB_ENUM_CAP", config,
                       "enum_cap", DEFAULT_ENUM_CAP)
    args.resolved_corpus_seed = seed

    if args.command == "corpus":
        corpus = default_corpus(seed=seed)
        _emit(args, corpus_to_json(corpus))
        return EXIT_PASS

    if args.command == "family-check":
        family = _resolve_family(args)
        cert = check_marginals(family)
        _emit(args, canonical_json(cert.to_json_obj()) + "\n")
        if args.summary:
            print(f"family {cert.family}: size {cert.size}, "
                  f"marginals uniform: {cert.marginals_uniform}, "
                  f"pairwise constant: {float(cert.pairwise_bound)}")
        return EXIT_PASS if cert.marginals_uniform else EXIT_HYPOTHESIS

    if args.command == "sample":
        family = _resolve_family(args)
        maps = sample_array(family, seed, args.count).tolist()
        doc = {"n": family.n, "N": family.N, "maps": maps}
        _emit(args, canonical_json(doc) + "\n")
        return EXIT_PASS

    samples = args.mc_samples
    if args.command == "lemmas" and samples is not None:
        raise DomainError("lemmas has no Monte Carlo mode; drop --mc-samples")
    if args.enum_cap is not None and samples is not None:
        raise DomainError(f"{args.command} --mc-samples enumerates no family, so "
                          "--enum-cap does not apply; drop one of them")
    if args.seed is not None and (args.matrix or args.corpus) and samples is None:
        draws = "" if args.command == "lemmas" else " or, with --mc-samples, the draws"
        raise DomainError(f"{args.command} reads --seed only to pick the built-in "
                          f"corpus{draws}; drop it with --matrix or --corpus")
    spec = parse_family_spec(args.family)
    p_list = _parse_p_list(args.p) if args.command == "verify-lp" else None
    corpus = _load_inputs(args)
    if args.command == "verify-main":
        reports = campaigns.run_verify_main(
            corpus, spec, _parse_ell_range(args.ell),
            reduce_top=args.reduce, cap=cap, samples=samples, seed=seed,
        )
    elif args.command == "verify-lp":
        reports = campaigns.run_verify_lp(
            corpus, spec, p_list, cap=cap, samples=samples, seed=seed,
        )
    elif args.command == "lemmas":
        aggregate = not (args.per_instance or args.matrix)
        reports = campaigns.run_lemmas(
            corpus, spec, _parse_ell_range(args.ell), cap=cap,
            aggregate=aggregate,
        )
    else:  # pragma: no cover - argparse restricts commands
        raise DomainError(f"unknown command {args.command}")
    if not reports:
        ns = [family.n for cell in corpus if cell.matrices
              and (family := family_for_cell(spec, cell.n, cell.N)) is not None]
        if ns:  # only an --ell range above every applicable n empties the list
            raise DomainError(f"ell range {args.ell!r} selects no ell of an "
                              f"applicable family (largest n is {max(ns)})")
        print("no applicable (cell, family) pairs; nothing checked",
              file=sys.stderr)
    return _finish_reports(args, reports)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or invalid operation on input values ends the run with
        # one error line instead of numpy warnings and a wrong report
        with np.errstate(over="raise", invalid="raise"):
            return _run(args)
    except HypothesisError as e:
        print(f"hypothesis failure: {e}", file=sys.stderr)
        print(canonical_json(e.certificate.to_json_obj()), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (DomainError, FormatError, ResourceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, FloatingPointError) as e:  # a value left the float range
        print(f"error: numeric overflow: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
