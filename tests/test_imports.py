"""Every name a ccsym module imports is used in that module (or re-exported),
and the package resolves each public name from its home module on first read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ccsym"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are re-exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport json.decoder\nfrom x import a, b as c\n"
                      "__all__ = ['a']\nprint(json)\n")
    assert _unused_imports(module) == [(1, "os"), (3, "c")]


def test_star_import_binds_each_name_to_its_home_module():
    import ccsym

    namespace = {}
    exec("from ccsym import *", namespace)
    assert sorted(namespace) == sorted(ccsym.__all__ + ["__builtins__"])
    for name in ccsym.__all__:
        obj = namespace[name]
        assert obj.__module__.startswith("ccsym.") and obj.__module__ != "ccsym.__init__"
        assert getattr(sys.modules[obj.__module__], name) is obj is getattr(ccsym, name)


def test_an_unknown_name_is_an_attribute_error():
    import ccsym

    with pytest.raises(AttributeError, match="module 'ccsym' has no attribute 'nonesuch'"):
        ccsym.nonesuch
    assert not hasattr(ccsym, "_nonesuch")


def test_a_name_loads_its_home_module_only():
    # reading cc loads symbol and what it imports, not witt or universal;
    # `from ccsym import witt` still imports the submodule
    code = ("import sys, ccsym; loaded = lambda: sorted(m for m in sys.modules "
            "if m.startswith('ccsym.')); print(loaded()); ccsym.cc; print(loaded()); "
            "from ccsym import witt; print(witt is sys.modules['ccsym.witt'], "
            "ccsym.witt_pair is witt.witt_pair)")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.stderr == "" and proc.stdout.splitlines() == [
        "[]", "['ccsym.coeff', 'ccsym.errors', 'ccsym.forms', 'ccsym.laurent', 'ccsym.symbol']",
        "True True"]
