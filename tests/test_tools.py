import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools"
    / "code_lines.py")
_MODULE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_MODULE)
code_lines = _MODULE.code_lines

SNIPPET = '''"""Module docstring,
two lines."""

import math  # a comment on a code line

# a comment line


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Method docstring."""
        text = """a multi-line
string that is not a docstring"""
        return (self.size
                * self.size)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, size, def, the two lines of text, the two of return
    assert code_lines(SNIPPET) == 8


def test_code_lines_of_an_empty_module():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0
