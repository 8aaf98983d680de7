import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("code_lines",
                                              os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module
docstring."""
# a comment

import math  # counted


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """a string
        over three
        lines"""
        return (math.pi,
                text)
'''


def test_counts_code_lines_only():
    # import, class, def, the string's three lines and the two-line return
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE)
    b.write_text("x = 1\n\n# end\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"8 {a}\n1 {b}\n9 total\n"
