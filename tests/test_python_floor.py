"""The package source stays within Python 3.9, the floor that
``pyproject.toml`` (``requires-python = ">=3.9"``) and the CI matrix claim.

Two checks that run on any newer interpreter: every ``src/**/*.py``
parses with ``feature_version=(3, 9)``, and no ``dataclass(...)`` call
passes a keyword that only exists from Python 3.10 on.  Neither catches
a 3.10+ library call; the 3.9 CI leg stays the real check.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted(SRC.rglob("*.py"))

#: ``dataclasses.dataclass`` keywords added in Python 3.10.
DATACLASS_KEYWORDS_SINCE_3_10 = frozenset({"slots", "kw_only", "match_args"})


def _is_dataclass_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "dataclass"


def test_every_source_parses_as_python_3_9():
    assert len(SOURCES) > 50  # the glob found the package
    failures = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 9))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(SRC)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_no_dataclass_keyword_newer_than_python_3_9():
    failures = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not _is_dataclass_call(node):
                continue
            for keyword in node.keywords:
                if keyword.arg in DATACLASS_KEYWORDS_SINCE_3_10:
                    failures.append(
                        f"{path.relative_to(SRC)}:{node.lineno}: "
                        f"dataclass({keyword.arg}=...)"
                    )
    assert failures == []
