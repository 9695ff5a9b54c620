"""Checks on tools/src_lines.py, the code/docstring/comment/blank split of
the package source."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from src_lines import PARTS, main, split_lines  # noqa: E402

SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment makes no comment line

# a comment-only line


def f(x):
    """One-line docstring."""
    # an indented comment
    s = """a string
that is not a docstring"""
    return x


class A:
    """Class docstring

    with a blank line inside."""

    def g(self):
        return 1
'''


def test_split_of_a_synthetic_module():
    assert split_lines(SAMPLE) == {"code": 8, "docstring": 6, "comment": 2, "blank": 7, "lines": 23}


def test_parts_add_up_on_every_src_file(capsys):
    paths = sorted((ROOT / "src" / "rackrepair").glob("*.py"))
    total = 0
    for path in paths:
        counts = split_lines(path.read_text())
        assert sum(counts[p] for p in PARTS) == counts["lines"] == len(path.read_text().splitlines())
        total += counts["lines"]
    assert paths and main([]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[0] == "total" and int(last[1].replace(",", "")) == total
