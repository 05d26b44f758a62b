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
    # dataset opens every text file, read or written; bundle opens only the
    # input it hashes, in binary. The model layers stay free of file formats
    path = Path(ikt.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    opening = {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert name == "dataset" or opening <= ({"input_entries"} if name == "bundle" else set())


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_model_files_are_saved_and_loaded_through_the_tan_module(name):
    # the benchmark's tracer times save_model and load_model by patching
    # the attributes of ikt.tan, so a caller that binds them by name, as
    # ``from .tan import load_model`` does, escapes it
    path = Path(ikt.__file__).with_name(f"{name}.py")
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            uses.append((node.attr, getattr(node.value, "id", None)))
        elif isinstance(node, ast.Name):
            uses.append((node.id, None))
        elif isinstance(node, (ast.FunctionDef, ast.alias)):
            uses.append((node.name, None))
    uses = [(n, owner) for n, owner in uses if n in ("save_model", "load_model")]
    if name == "bundle":
        assert sorted(set(uses)) == [("load_model", "tan"), ("save_model", "tan")]
    else:
        assert name == "tan" or uses == []


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


def test_every_error_class_is_caught_by_the_cli():
    # a fault class no handler in cli.py names reaches main's catch-all: an
    # internal error, exit 1, whatever the fault's cause
    defined = {cls.__name__ for name in MODULES
               for cls in vars(importlib.import_module(f"ikt.{name}")).values()
               if isinstance(cls, type) and issubclass(cls, Exception)
               and cls.__module__ == f"ikt.{name}"}
    caught = set()
    tree = ast.parse(Path(ikt.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(getattr(t, "id", getattr(t, "attr", None)) for t in types)
    assert defined and defined - caught == set()


# the data types and the error class: the references in oracles.py take
# nothing else from the code they check
ORACLE_IMPORTS = {
    "ikt.dataset": {"DataFormatError", "Dataset"},
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
