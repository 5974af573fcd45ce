"""The code-line counter of tests/code_lines.py, on a small sample."""

from code_lines import code_lines

SAMPLE = '''"""A module docstring
over two lines."""

import os   # a comment after code

# a comment alone


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the string, the two of return
    assert code_lines(SAMPLE) == 7


def test_an_empty_module_has_none():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0
