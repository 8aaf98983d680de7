import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import untested  # noqa: E402

SOURCE = '''"""Module docstring."""
import os


@staticmethod
@property
def f(x):
    """Function docstring."""
    try:
        y = (x +
             1)
    except ValueError:
        return None
    if y: return y
    return 0
'''


def test_statements_are_headers_without_docstrings_or_try():
    # a decorated def spans its decorators; a statement spans all its lines
    assert untested.statements(SOURCE) == [(2, 2), (5, 7), (10, 11), (13, 13), (14, 14),
                                           (14, 14), (15, 15)]


def test_a_statement_ran_when_any_header_line_ran():
    assert untested.unexecuted(SOURCE, {2, 6, 11, 14}) == [13, 15]
    assert untested.unexecuted(SOURCE, set()) == [2, 5, 10, 13, 14, 14, 15]
