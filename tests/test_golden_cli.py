"""Byte-for-byte CLI outputs locked in tests/golden/.

Each case in cli_outputs.json runs `python -m freqmoments.cli <argv>` in a
fresh process; its stdout must equal <golden>.out exactly, <golden> being
the case's "golden" key if it has one and its name otherwise, and its exit
code must match.  The cases cover the published tables in every format, the
README certify examples, FAIL records, three companion dumps, and the
labels of scan and certify reports for all ten selector kinds of the weight
grammar (even, which certify refuses, through a scan).  Each kind prints
under the name --weight takes, and two cases re-run printed labels:
`m=3, chi=kronecker(5)` against the record of `m=3,twist=kronecker(5)`,
and the canonical `m=3, rule=ordinary` against the record of `m=3`.
Four usage errors (exit 2, no stdout) cover the removed theta and
plane-partition ensembles, `--allow-large`, and a filter given the wrong
number of parameters, `filter=odd(2)`.
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
    assert proc.stdout == (GOLDEN / f"{case.get('golden', case['name'])}.out").read_bytes()
