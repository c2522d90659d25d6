"""tools/code_lines.py: docstrings, comments and blank lines are not code; a
token spanning several lines makes each of them a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module
docstring."""
# a comment

import os  # code


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """two
        lines"""
        return (text,
                os)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the string's two lines, the return's two lines
    assert code_lines.code_lines(path) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 7\ntotal 8\n"
