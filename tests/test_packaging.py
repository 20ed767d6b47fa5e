"""Package metadata agrees with the importable package."""

import ast
from pathlib import Path

import repro

SETUP_PY = Path(__file__).resolve().parent.parent / "setup.py"


def _setup_keyword(name: str):
    """Literal value of a keyword argument of the ``setup(...)`` call."""
    tree = ast.parse(SETUP_PY.read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setup"
        ):
            for keyword in node.keywords:
                if keyword.arg == name:
                    return ast.literal_eval(keyword.value)
    raise AssertionError(f"setup.py declares no {name}=")


def test_setup_version_matches_package_version():
    assert _setup_keyword("version") == repro.__version__
