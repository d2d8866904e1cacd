"""The README's library quick tour runs as written."""

import doctest
import pathlib

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
