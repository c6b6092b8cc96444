"""The byte gate: every campaign of ``scripts/run_all_campaigns.py`` on the
default corpus writes the bytes whose SHA-256 digests ``campaign_hashes.txt``
records, one ``sha256 <hex>  <file>`` line per report file, as the script
prints them.  A change that alters any report's bytes fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_campaign_reports_keep_their_bytes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_campaigns.py"),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    got = [line for line in run.stdout.splitlines() if line.startswith("sha256 ")]
    want = (Path(__file__).parent / "campaign_hashes.txt").read_text().splitlines()
    assert len(want) == 12 and got == want
