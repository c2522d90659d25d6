"""tools/ab_replay.py: two trees that agree replay to the end and print each
side's op times by class, alone and with the benchmark's output check; a
tree whose results differ stops the replay."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_replay.py"
SRC = ROOT / "src"


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
    shutil.copytree(SRC / "nefcert", tmp_path / "nefcert",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "nefcert" / "__init__.py", "a", encoding="utf-8") as handle:
        handle.write("\ncertify_interval = lambda *args: None\n")
    result = replay(SRC, tmp_path, "--ops", "5")
    assert result.returncode == 1
    assert result.stderr.startswith("op 0 differs: {'kind': 'certify'")


def test_a_tree_without_the_package_is_refused(tmp_path):
    result = replay(SRC, tmp_path, "--ops", "5")
    assert result.returncode == 1
    assert f"no nefcert package under {tmp_path}" in result.stderr
