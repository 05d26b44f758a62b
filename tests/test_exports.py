import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ikt

MODULES = sorted(m.name for m in pkgutil.iter_modules(ikt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ikt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_imports_only_the_standard_library_and_numpy(name):
    # the runtime dependencies are numpy alone
    path = Path(ikt.__file__).with_name(f"{name}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names - {"numpy", "ikt"} == set()


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_only_the_file_owners_open_files(name):
    # cli owns the bundle, dataset the logs and tan the model file; the
    # model layers themselves stay free of file formats
    path = Path(ikt.__file__).with_name(f"{name}.py")
    opens = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert name in {"cli", "dataset", "tan"} or opens == []


def _names_used(*roots):
    used = set()
    for root in roots:
        for path in root.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller_outside_the_tests(name):
    # a public helper that only tests call duplicates a production path
    package = Path(ikt.__file__).parent
    used = _names_used(package, Path(__file__).resolve().parents[1] / "perfbench")
    module = importlib.import_module(f"ikt.{name}")
    assert [n for n in getattr(module, "__all__", ()) if n not in used] == []


# the data types, the error classes and the byte-offset helper: the
# references in oracles.py take nothing else from the code they check
ORACLE_IMPORTS = {
    "ikt.dataset": {"DataFormatError", "Dataset", "SchemaError", "_undecodable_offset"},
    "ikt.tan": {"Discretizer", "ExplanationRecord", "NodeContribution", "TanModel",
                "TanStructure"},
}


def test_oracles_import_only_data_types_and_errors_from_ikt():
    path = Path(__file__).with_name("oracles.py")
    taken = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            taken += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "ikt"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ikt":
            taken += [(node.module, alias.name) for alias in node.names]
    assert [(module, name) for module, name in taken
            if name not in ORACLE_IMPORTS.get(module, ())] == []


def _fresh_modules(code, **env):
    # a fresh interpreter, since this one has imported everything already;
    # ``env`` adds to its environment
    src = str(Path(ikt.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", f"import sys\n{code}\nprint(*sys.modules)"],
                         env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(
                             filter(None, [src, os.environ.get("PYTHONPATH")]))},
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_import_loads_only_the_layers_used():
    loaded = _fresh_modules("import ikt, ikt.dataset")
    assert {"ikt.ability", "ikt.bkt", "ikt.evaluation", "ikt.tan",
            "concurrent.futures"} & loaded == set()
    # the fold pool's modules load only when a pool is made
    assert {"concurrent.futures.process", "multiprocessing"} & _fresh_modules("import ikt.cli") \
        == set()
    assert "ikt.tan" in _fresh_modules("import ikt\nikt.tan.explain")
