"""Byte-identity guard for `certify --json`.

Each case's stdout and exit code are stored in certificate_goldens.json and
compared byte for byte, so a change to the drop kernels, the strata
closure or the certification engine that alters any certificate fails
here. The table covers every role (lower endpoint, interior, upper
endpoint, eps perturbation, --generic-only) with k from 1 to 5.

Run `PYTHONPATH=src python tests/test_certificate_goldens.py` to rewrite
the stored outputs after a deliberate change of the certificate format.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from nefcert.cli import main

GOLDENS = Path(__file__).with_name("certificate_goldens.json")

# (n, m, k, c, extra flags)
CASES = [
    ("7", "0", "2", "2/3", ()),
    ("7", "0", "2", "7/10", ()),
    ("7", "0", "2", "3/4", ()),
    ("5", "2", "1", "4/5", ()),
    ("6", "1", "3", "5/8", ()),
    ("7", "2", "3", "13/20", ()),
    ("9", "2", "4", "5/8", ()),
    ("9", "2", "4", "61/100", ("--eps", "2,1=-1/100")),
    ("12", "3", "5", "59/100", ()),
    ("8", "2", "5", "7/12", ()),
    ("7", "0", "2", "7/10", ("--eps", "3,0=-1/24")),
    ("7", "0", "2", "7/10", ("--eps", "3,0=-1/5")),
    ("6", "1", "1", "3/4", ("--eps", "2,0=-1/50")),
    ("4", "1", "3", "5/8", ("--generic-only",)),
    ("8", "3", "3", "2/5", ("--generic-only",)),
    ("12", "2", "5", "3/5", ("--generic-only", "--eps", "3,1=1/7")),
]


def _args(case) -> list[str]:
    n, m, k, c, extra = case
    return ["certify", "--n", n, "--m", m, "--k", k, "--c", c, *extra, "--json"]


def _run(case) -> dict:
    result = CliRunner().invoke(main, _args(case), catch_exceptions=False)
    return {"exit_code": result.exit_code, "stdout": result.stdout}


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(_args(case)[1:-1]))
def test_certify_json_is_byte_identical(case):
    stored = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert _run(case) == stored[" ".join(_args(case))]


if __name__ == "__main__":
    outputs = {" ".join(_args(case)): _run(case) for case in CASES}
    GOLDENS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
