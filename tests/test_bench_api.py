"""The benchmark under perfbench/ reaches into sqlab by import and by module
attribute; every sqlab name it uses must still exist, so that removing one
fails here and not silently inside a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("perfbench/tests/*.py"))


def sqlab_references(source: str) -> tuple[set, set]:
    """(imports, attributes) of one file: (module, name) for each name
    imported from a sqlab module, and (local name, attribute) for each
    attribute read or set on a name."""
    tree = ast.parse(source)
    imports, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqlab":
            imports.update((node.module, alias.name, alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sqlab":
                    imports.add((alias.name, None, alias.asname or alias.name))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attributes.add((node.value.id, node.attr))
    return imports, attributes


def resolve(module: str, name: str | None):
    """The object `from module import name` (or `import module`) binds,
    or None when it does not exist."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    if name is None:
        return mod
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(mod, name, None)


def missing_names(source: str) -> list[str]:
    """The sqlab names a source file uses that do not exist."""
    imports, attributes = sqlab_references(source)
    missing, modules = [], {}
    for module, name, local in imports:
        obj = resolve(module, name)
        if obj is None:
            missing.append(f"{module}.{name}" if name else module)
        elif inspect.ismodule(obj):
            modules[local] = obj
    for local, attr in attributes:
        if local in modules and not hasattr(modules[local], attr):
            missing.append(f"{modules[local].__name__}.{attr}")
    return missing


def test_benchmark_uses_only_existing_sqlab_names():
    assert BENCH_FILES, "no benchmark sources found"
    missing = {path.name: missing_names(path.read_text()) for path in BENCH_FILES}
    assert not any(missing.values()), {k: v for k, v in missing.items() if v}


def test_scan_reports_what_is_missing():
    # the scan must see both kinds of use, or the test above checks nothing
    source = (
        "from sqlab import circle, no_such_module\n"
        "from sqlab.gauss import gauss_G0, no_such_sum\n"
        "circle.dirichlet_approx(0, 1)\n"
        "circle.no_such_function(0)\n"
    )
    assert sorted(missing_names(source)) == [
        "sqlab.circle.no_such_function",
        "sqlab.gauss.no_such_sum",
        "sqlab.no_such_module",
    ]
