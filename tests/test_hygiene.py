"""Import hygiene: every imported name is used, the CLI imports light, each
command loads only the modules it runs, the package's public names resolve
on first use, and a minimal CLI call builds no condition level.

Each ``.py`` file under ``src/``, ``tests/`` and ``demos/`` is parsed with
``ast``.  An imported name counts as used when the module refers to it as a
name anywhere, lists it in ``__all__``, or imports it ``from __future__``.
"""

from __future__ import annotations

import ast
import importlib
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
            "print(condition._LEVELS, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code,
                           str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == "{}\n"


def _loaded_after(statements: str, stdin: str = "") -> set[str]:
    """The ``supercyclic`` submodules loaded by ``statements`` in a fresh
    ``python -S``, which must exit 0; stdout is discarded."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            f"{statements}; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('supercyclic.')), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code,
                           str(ROOT / "src")],
                          capture_output=True, text=True, input=stdin,
                          check=True)
    last = proc.stderr.strip().splitlines()[-1]
    return {m.removeprefix("supercyclic.") for m in ast.literal_eval(last)}


def test_cli_import_loads_only_cli_and_errors():
    assert _loaded_after("import supercyclic.cli") == {"cli", "errors"}


K33 = "p bigraph 3 3\n" + "".join(f"e {x} {y}\n" for x in (1, 2, 3)
                                  for y in (1, 2, 3))


@pytest.mark.parametrize("argv, stdin, status, runs, skips", [
    (["gen", "complete", "--nx", "1", "--ny", "1"], "", 0,
     {"generators", "formats"},
     {"condition", "cycles", "classify", "verifier", "structure",
      "verifier_checkpoint", "reports"}),
    # exit 1: K(3, 3) is super-cyclic, so not critical
    (["classify"], K33, 1, {"classify", "formats"},
     {"verifier", "generators", "structure", "verifier_checkpoint"}),
    # exit 0: K(3, 3) passes the condition
    (["check"], K33, 0, {"condition", "formats"},
     {"cycles", "verifier", "generators", "classify", "structure",
      "verifier_checkpoint"}),
    # exit 0: K(3, 3) has a cycle based on X
    (["cycle", "--base", "1,2,3"], K33, 0, {"cycles", "formats"},
     {"condition", "verifier", "generators", "classify", "structure",
      "verifier_checkpoint"}),
    # exit 0: no trial hits, so no dossier is written
    (["hunt", "--nx", "4", "--ny-max", "4", "--random", "--seed", "1",
      "--trials", "5"], "", 0, {"verifier", "generators"},
     {"classify", "structure", "formats"}),
], ids=["gen", "classify", "check", "cycle", "hunt"])
def test_each_command_loads_only_its_modules(argv, stdin, status, runs,
                                            skips):
    loaded = _loaded_after("import supercyclic.cli; "
                           f"assert supercyclic.cli.main({argv!r}) == "
                           f"{status}",
                           stdin)
    assert runs <= loaded
    assert loaded & skips == set()


@pytest.mark.parametrize("argv, stdin", [
    (["gen", "complete", "--nx", "2", "--ny", "2"], ""),
    (["check"], K33),
    (["classify"], K33),
    (["cycle", "--base", "1,2"], K33),
    (["hunt", "--nx", "4", "--ny-max", "4", "--random", "--trials", "5"], ""),
    (["verify", "kcyclic", "--nx", "3", "--ny-max", "3", "--k", "3"], ""),
    (["--help"], ""),
], ids=["gen", "check", "classify", "cycle", "hunt", "verify", "help"])
def test_cli_calls_load_no_argument_parser(argv, stdin):
    # argparse and the gettext and locale it imports cost every call ~3 ms
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import supercyclic.cli\n"
            f"try: supercyclic.cli.main({argv!r})\n"
            "except SystemExit: pass\n"
            "print(sorted({'argparse', 'gettext', 'locale'} "
            "& set(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code,
                           str(ROOT / "src")],
                          capture_output=True, text=True, input=stdin,
                          check=True)
    assert proc.stderr.splitlines()[-1] == "[]"


def test_lazy_exports_resolve_to_their_defining_modules():
    import supercyclic
    table = supercyclic._EXPORTS
    assert set(table) == set(supercyclic.__all__)
    assert set(supercyclic.__all__) <= set(dir(supercyclic))
    assert not hasattr(supercyclic, "nope")
    for name, module in table.items():
        scope: dict = {}
        exec(f"from supercyclic import {name}", scope)
        defining = importlib.import_module(f"supercyclic.{module}")
        assert scope[name] is getattr(defining, name), name
        assert scope[name].__module__ == defining.__name__, name
