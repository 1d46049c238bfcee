"""Import hygiene: the runtime needs only the standard library, every
imported name is used, the verifier shares no code with the producer it
checks, and the CLI starts without dataclasses; also no source line is
longer than 88 columns."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import syntomic

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "syntomic"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(path: Path) -> list[tuple[str, int]]:
    """(top-level module name, relative level) of every import in the file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [(alias.name.split(".")[0], 0) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append(((node.module or "").split(".")[0], node.level))
    return out


def test_the_package_has_modules():
    assert "verifier.py" in {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_imports_are_stdlib_or_the_package(path):
    for name, level in _imported(path):
        assert level or name in sys.stdlib_module_names or name == "syntomic", name


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_modules_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_lines_are_at_most_88_columns(path):
    lines = path.read_text().splitlines()
    long = [(n, len(line)) for n, line in enumerate(lines, 1) if len(line) > 88]
    assert long == [], long


def test_the_cli_starts_without_dataclasses_or_inspect():
    # records are named tuples: dataclasses would import inspect at start-up,
    # about 6 ms of every command
    code = (
        "import sys\n"
        "from syntomic import cli\n"
        "cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
    )
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def test_verifier_imports_nothing_from_the_package():
    for name, level in _imported(PACKAGE / "verifier.py"):
        assert not level and name != "syntomic", (name, level)


def test_zpn_imports_nothing_from_zp():
    # the certificate's target must not come from the engine it is checked
    # against in acceptance criterion 7
    modules = set()
    for node in ast.walk(ast.parse((PACKAGE / "zpn.py").read_text())):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ("syntomic." if node.level else "") + (node.module or "")
            base = base.rstrip(".")
            modules |= {base} | {f"{base}.{a.name}" for a in node.names}
    assert "syntomic.zp" not in modules, sorted(modules)


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "__init__.py"], ids=lambda m: m.name
)
def test_every_imported_name_is_used(path):
    # annotations stay in the tree under `from __future__ import annotations`
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert bound <= used, sorted(bound - used)


def test_all_is_the_public_namespace():
    # __all__ is exactly the public names __init__.py imports, each bound
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
    }
    assert [n for n in syntomic.__all__ if not hasattr(syntomic, n)] == []
    assert set(syntomic.__all__) == {n for n in imported if not n.startswith("_")}
