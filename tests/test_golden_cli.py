"""Byte-for-byte CLI outputs locked in tests/golden/.

Each case in cli_outputs.json runs `python -m freqmoments.cli <argv>` in a
fresh process; its stdout must equal <name>.out exactly and its exit code
must match.  The cases cover the published tables in every format, the
README certify examples, two FAIL records, three companion dumps, the
twist and filter labels of scan and certify reports, and three usage
errors (exit 2, no stdout) for the removed theta and plane-partition
ensembles and `--allow-large`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
CASES = json.loads((GOLDEN / "cli_outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "freqmoments.cli", *case["argv"]],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == case["exit_code"], proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{case['name']}.out").read_bytes()
