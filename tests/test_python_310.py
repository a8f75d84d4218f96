"""Every file parses with the grammar of Python 3.10, the oldest pyproject.toml allows.

This checks grammar only (``except*``, PEP 695 type parameters and the like
are refused), not that an API of the standard library exists in 3.10.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "perfbench") for path in (REPO / top).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(REPO).as_posix())
def test_a_file_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
