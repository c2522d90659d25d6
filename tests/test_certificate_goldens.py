"""Byte-identity guard for the CLI and for whole certificates.

Each CLI case is an argv with optional stdin; its stdout and exit code are
stored in certificate_goldens.json and compared byte for byte, so a change
to the drop kernels, the strata closure, the certification engine or the
command table that alters any output fails here. The `certify --json`
cases cover every role (lower endpoint, interior, upper endpoint, eps
perturbation, --generic-only) with k from 1 to 5, plus long transport
chains up to k = 60. The other cases are the README's commands (the
`certify` ones also as text, next to the step-free `--generic-only`
certificate on (5,0,2) and the five-case `thresholds --k 3`), with the
family commands run in a temporary directory on test_cli.STABLE written to
stable.json and on the files in tests/families: chain.json, a 40-step
concrete chain on (7,2,3) whose F_tau and F_sigma_tau are non-zero, and
abstract.json, a 12-step abstract chain on (8,2,3).

`certify --json` omits the trace, so API_CASES store a SHA-256 of the
repr of the full Certificate, trace included, under "api ..." keys.

Run `PYTHONPATH=src python tests/test_certificate_goldens.py` to rewrite
the stored outputs after a deliberate change of an output format.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

from nefcert import certify_interval, perturbed_certify
from nefcert.cli import main
from test_cli import STABLE

GOLDENS = Path(__file__).with_name("certificate_goldens.json")
FAMILY_DIR = Path(__file__).with_name("families")


def _certify(n, m, k, c, *extra):
    """A `certify --json` case; its test id omits the command and --json."""
    flags = ["--n", n, "--m", m, "--k", k, "--c", c, *extra]
    return pytest.param(["certify", *flags, "--json"], None, id=" ".join(flags))


def _readme(*argv, stdin=None):
    return pytest.param(list(argv), stdin, id=" ".join(argv))


# (argv, stdin)
CASES = [
    _certify("7", "0", "2", "2/3"),
    _certify("7", "0", "2", "7/10"),
    _certify("7", "0", "2", "3/4"),
    _certify("5", "2", "1", "4/5"),
    _certify("6", "1", "3", "5/8"),
    _certify("7", "2", "3", "13/20"),
    _certify("9", "2", "4", "5/8"),
    _certify("9", "2", "4", "61/100", "--eps", "2,1=-1/100"),
    _certify("12", "3", "5", "59/100"),
    _certify("8", "2", "5", "7/12"),
    _certify("7", "0", "2", "7/10", "--eps", "3,0=-1/24"),
    _certify("7", "0", "2", "7/10", "--eps", "3,0=-1/5"),
    _certify("6", "1", "1", "3/4", "--eps", "2,0=-1/50"),
    _certify("4", "1", "3", "5/8", "--generic-only"),
    _certify("8", "3", "3", "2/5", "--generic-only"),
    _certify("12", "2", "5", "3/5", "--generic-only", "--eps", "3,1=1/7"),
    _certify("3", "3", "40", "3361/6560"),
    _certify("1", "6", "60", "7441/14640"),
    _certify("8", "3", "6", "4/7"),
    _certify("8", "3", "6", "7/12"),
    _certify("5", "2", "8", "9/16"),
    _certify("10", "2", "7", "127/224", "--eps", "3,1=-1/64"),
    # no admissible cell: the step-free certificate, minimizer "-", exit 2
    _certify("5", "0", "2", "2/3", "--generic-only"),
    _readme("class", "dk", "--n", "5", "--m", "0", "--k", "2", "--c", "3/4"),
    _readme("class", "logcanonical", "--n", "6", "--alpha", "1/2"),
    # the --json branch nests the raw and the normalized class records
    _readme("class", "logcanonical", "--n", "6", "--alpha", "1/2", "--json"),
    _readme("class", "pull-reduction", "--n", "7", "--m", "0", "--k", "3",
            stdin="# ambient n=7 m=0 k=3\npsi_sigma\t2/3\ndelta_s\t1/3\ndelta\t-1\n"),
    _readme("class", "pull-replacement", "--n", "7", "--m", "0", "--k", "3",
            "--dk", "--c", "2/3"),
    _readme("class", "push", "--n", "5", "--m", "1", "--k", "2",
            stdin="psi_sigma\t3/4\ndelta\t-1\n"),
    _readme("class", "push", "--help"),
    _readme("class", "pull-reduction", "--help"),
    _readme("class", "pull-replacement", "--help"),
    _readme("family", "validate", "stable.json"),
    _readme("family", "eval", "stable.json", "--dk", "--c", "2/3"),
    _readme("family", "numbers", "stable.json"),
    _readme("family", "fvalues", "stable.json"),
    _readme("family", "gseries", "stable.json", "--a", "3/4", "--b", "0"),
    _readme("family", "numbers", "chain.json"),
    _readme("family", "fvalues", "chain.json"),
    _readme("family", "gseries", "chain.json", "--a", "3/5", "--b", "1/2"),
    _readme("family", "numbers", "abstract.json"),
    _readme("family", "fvalues", "abstract.json"),
    _readme("family", "gseries", "abstract.json", "--a", "2/3", "--b", "1/3"),
    _readme("certify", "--n", "7", "--m", "0", "--k", "2", "--c", "7/10"),
    _readme("certify", "--n", "4", "--m", "1", "--k", "3", "--c", "5/8", "--generic-only"),
    _readme("certify", "--n", "7", "--m", "0", "--k", "2", "--c", "7/10",
            "--eps", "3,0=-1/24"),
    _readme("certify", "--n", "5", "--m", "0", "--k", "2", "--c", "2/3", "--generic-only"),
    _readme("thresholds", "--k", "2", "--nmax", "7", "--mmax", "1"),
    # every case of the table, 3 and 4 included
    _readme("thresholds", "--k", "3", "--nmax", "9", "--mmax", "3"),
    _readme("fixtures"),
]

# (function, n, m, k, c, eps): the Certificate repr, trace included, is hashed
API_CASES = [
    (certify_interval, 7, 0, 2, F(2, 3), None),
    (certify_interval, 7, 0, 2, F(7, 10), None),
    (certify_interval, 7, 0, 2, F(3, 4), None),
    (certify_interval, 5, 2, 1, F(4, 5), None),
    (certify_interval, 12, 3, 5, F(59, 100), None),
    (certify_interval, 8, 3, 6, F(4, 7), None),
    (certify_interval, 8, 3, 6, F(97, 168), None),
    (certify_interval, 8, 3, 6, F(7, 12), None),
    (certify_interval, 3, 3, 40, F(21, 41), None),
    (certify_interval, 3, 3, 40, F(3361, 6560), None),
    (certify_interval, 3, 3, 40, F(41, 80), None),
    (certify_interval, 1, 6, 60, F(7441, 14640), None),
    (certify_interval, 1, 6, 60, F(61, 120), None),
    # cold deep chains whose legs above a stratum's size score one settled cell
    (certify_interval, 8, 8, 85, F(14791, 29240), None),
    (certify_interval, 7, 7, 60, F(7441, 14640), None),
    (certify_interval, 6, 2, 112, F(25537, 50624), None),
    (perturbed_certify, 7, 0, 2, F(7, 10), {(1, 1): F(-1, 100), (3, 0): F(1, 50)}),
    (perturbed_certify, 9, 2, 4, F(61, 100), {(2, 1): F(-1, 100), (0, 2): F(1, 7)}),
    # least drops of two levels tie at different counts: the higher level's wins
    (perturbed_certify, 3, 2, 4, F(49, 80),
     {(0, 2): F(-1, 8), (1, 1): F(1, 8), (2, 0): F(-1, 24)}),
    # large grids: more legs than the leg memo holds, and a lower endpoint
    (certify_interval, 70, 4, 5, F(71, 120), None),
    (certify_interval, 56, 2, 3, F(5, 8), None),
    # perturbed grids with n > 2k + 2, every run of rows present: eps raises
    # 1,048 minimizers and 145 of them move; lowered cells take 26 legs' first
    # least; lowered cells tie minimizers before and after them in grid order,
    # next to lowered minimizers
    (perturbed_certify, 47, 8, 3, F(55, 84), {(1, 1): F(3, 128), (21, 8): F(1, 64)}),
    (perturbed_certify, 26, 4, 5, F(97, 165), {(2, 1): F(-1, 6), (5, 3): F(-1, 48)}),
    (perturbed_certify, 18, 3, 4, F(173, 280), {(1, 1): F(-1, 40), (5, 2): F(-1, 160)}),
    # settled runs, the levels max(2, n)..k whose strata all have m >= 2: long
    # runs at an interior c and at the lower endpoint ((3, 3, 40) at the upper
    # endpoint is above); a run with no admissible cell, so no witness at all; a
    # one-level run (the top level is skipped at the upper endpoint) whose
    # witness is its low end; a witness from a run's top end; and eps on a key
    # that labels a cell of every settled grid
    (certify_interval, 8, 8, 100, F(20401, 40400), None),
    (certify_interval, 8, 8, 60, F(31, 61), None),
    (certify_interval, 1, 2, 30, F(1921, 3720), None),
    (certify_interval, 4, 3, 5, F(3, 5), None),
    (certify_interval, 5, 4, 20, F(881, 1680), None),
    (perturbed_certify, 4, 3, 12, F(337, 624), {(0, 2): F(-1, 1000)}),
]


def _run(argv, stdin) -> dict:
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("stable.json").write_text(STABLE, encoding="utf-8")
        for source in FAMILY_DIR.glob("*.json"):
            Path(source.name).write_text(source.read_text(encoding="utf-8"),
                                         encoding="utf-8")
        # a fixed width keeps --help independent of the terminal
        result = runner.invoke(main, argv, input=stdin, terminal_width=80,
                               catch_exceptions=False)
    return {"exit_code": result.exit_code, "stdout": result.stdout}


def _api_key(case) -> str:
    function, n, m, k, c, eps = case
    spelled = "" if eps is None else " " + ",".join(
        f"{i},{j}={value}" for (i, j), value in sorted(eps.items()))
    return f"api {function.__name__} {n} {m} {k} {c}{spelled}"


def _api_digest(case) -> str:
    function, n, m, k, c, eps = case
    cert = function(n, m, k, c) if eps is None else function(n, m, k, c, eps)
    return hashlib.sha256(repr(cert).encode()).hexdigest()


@pytest.mark.parametrize("argv, stdin", CASES)
def test_certify_json_is_byte_identical(argv, stdin):
    stored = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert _run(argv, stdin) == stored[" ".join(argv)]


@pytest.mark.parametrize("case", API_CASES, ids=_api_key)
def test_certificate_with_trace_is_identical(case):
    stored = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert _api_digest(case) == stored[_api_key(case)]


if __name__ == "__main__":
    outputs = {" ".join(case.values[0]): _run(*case.values) for case in CASES}
    outputs.update({_api_key(case): _api_digest(case) for case in API_CASES})
    GOLDENS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
