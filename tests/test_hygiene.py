"""Import hygiene: every imported name is used, the CLI imports light, and
a minimal CLI call builds no condition level.

Each ``.py`` file under ``src/``, ``tests/`` and ``demos/`` is parsed with
``ast``.  An imported name counts as used when the module refers to it as a
name anywhere, lists it in ``__all__``, or imports it ``from __future__``.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_sources_found():
    assert len(SOURCES) >= 20


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_cli_import_skips_heavy_modules():
    # every CLI call would pay their import; dataclasses also pulls in
    # inspect, ast, dis and tokenize
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import supercyclic.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_minimal_cli_call_builds_no_condition_level():
    # the benchmark's setup call: a level is built by the first condition
    # scan at its |X|, never at import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import supercyclic.cli; "
            "supercyclic.cli.main(['gen', 'complete', '--nx', '1', "
            "'--ny', '1']); "
            "from supercyclic import condition; "
            "print(condition._LEVELS, condition._ORDERS, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code,
                           str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == "{} {}\n"
