"""tools/ab_replay.py: two trees that agree replay to the end and print each
side's op times by class, alone and with the benchmark's output check; a
tree whose results differ, or that the check cannot read, stops the replay,
which names the first such op once every op is timed."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_replay.py"
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (stdlib only)


def replay(tree_a, tree_b, *extra):
    return subprocess.run([sys.executable, str(TOOL), str(tree_a), str(tree_b), *extra],
                          capture_output=True, text=True, timeout=120)


def test_equal_trees_replay_every_op():
    result = replay(SRC, ROOT, "--ops", "25")  # a checkout's root reads its src
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "certify-wide seed 1: 25 ops, every repr equal"
    classes = {line.split()[0] for line in lines[2:]}
    assert {"cold", "eps", "repeat", "total", "p50", "11th"} <= classes
    # each figure per side, for the op alone and for the op with the output check
    assert lines[1].split() == ["A", "B", "A+check", "B+check"]
    total = next(line.split() for line in lines if line.split()[0] == "total")
    alone_a, alone_b, checked_a, checked_b = map(float, total[1::2])
    assert checked_a > alone_a and checked_b > alone_b


def test_a_differing_result_stops_the_replay(tmp_path):
    tree = copy_with(tmp_path, "\ncertify_interval = lambda *args: None\n")
    result = replay(SRC, tree, "--ops", "5")
    assert result.returncode == 1
    assert result.stderr.startswith("op 0 differs: {'kind': 'certify'")


def copy_with(tmp_path, code):
    """A copy of the package under tmp_path with code appended to its __init__."""
    shutil.copytree(SRC / "nefcert", tmp_path / "nefcert",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "nefcert" / "__init__.py", "a", encoding="utf-8") as handle:
        handle.write(code)
    return tmp_path


def test_the_first_differing_op_is_named_after_every_op_is_timed(tmp_path):
    tree = copy_with(tmp_path, "\nperturbed_certify = lambda *args: None\n")
    ops = workloads.build_ops("certify-wide", 1, 25)
    first = next(index for index, op in enumerate(ops) if op.get("eps"))
    assert first > 0 and sum(bool(op.get("eps")) for op in ops) > 1
    result = replay(SRC, tree, "--ops", "25")
    assert result.returncode == 1
    assert result.stderr == f"op {first} differs: {ops[first]}\n"


def test_reprs_are_taken_once_every_op_is_timed(tmp_path):
    # a repr rebuilds a certificate's legs through its tree's memo, so none
    # may fall between two timed ops
    log = tmp_path / "log"
    tree = copy_with(tmp_path / "tree", f"""
_log, _certify = open({str(log)!r}, "a"), certify_interval


class _Logged:
    def __init__(self, cert):
        self._cert = cert

    def __getattr__(self, name):
        return getattr(self._cert, name)

    def __repr__(self):
        _log.write("repr\\n")
        _log.flush()
        return repr(self._cert)


def certify_interval(*args):
    _log.write("op\\n")
    _log.flush()
    return _Logged(_certify(*args))
""")
    result = replay(SRC, tree, "--ops", "25")
    assert result.returncode == 0, result.stderr
    lines = log.read_text().split()
    ops = lines.count("op")
    assert ops > 10 and lines == ["op"] * ops + ["repr"] * ops


def test_an_output_check_that_raises_stops_the_replay(tmp_path):
    tree = copy_with(tmp_path, """
class _Unreadable:  # a certificate's repr, and none of the fields the check reads
    def __init__(self, cert):
        self._text = repr(cert)

    def __repr__(self):
        return self._text


_certify = certify_interval
certify_interval = lambda *args: _Unreadable(_certify(*args))
""")
    result = replay(SRC, tree, "--ops", "5")
    assert result.returncode == 1
    assert result.stderr.startswith("op 0 fails its output check (AttributeError(")


def test_a_tree_without_the_package_is_refused(tmp_path):
    result = replay(SRC, tmp_path, "--ops", "5")
    assert result.returncode == 1
    assert f"no nefcert package under {tmp_path}" in result.stderr
