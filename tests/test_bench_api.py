"""The benchmark under perfbench/ reaches into sqlab by import and by module
attribute; every sqlab name it uses must still exist, so that removing one
fails here and not silently inside a benchmark run.  Likewise every
multiplier piece that sqlab or the benchmark names to sample_multiplier
must be one it samples.  Conversely, every public name sqlab defines must
be used by sqlab itself, by the benchmark or by the CLI, so that a route
only the tests use lives with the tests."""

import ast
import importlib
import inspect
from pathlib import Path

from sqlab.arith import DomainError
from sqlab.circle import sample_multiplier

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("perfbench/tests/*.py"))
SRC = ROOT / "src" / "sqlab"


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


def refused_piece(which: str) -> bool:
    """Whether sample_multiplier refuses to sample the piece named which,
    tried on the smallest grid it takes at N = 8 (M = J = 2, L = 256)."""
    try:
        sample_multiplier(which, 8, 2, 2, 256)
    except DomainError:
        return True
    return False


def missing_names(source: str) -> list[str]:
    """The sqlab names a source file uses that do not exist, each keyword
    it passes to a sqlab callable that takes no parameter of that name, as
    "module.callable(keyword=)", and each piece name it passes as a string
    literal to sample_multiplier that the function refuses, as
    "sqlab.circle.sample_multiplier('name')"."""
    imports, attributes = sqlab_references(source)
    missing, modules, bound = [], {}, {}
    for module, name, local in imports:
        obj = resolve(module, name)
        if obj is None:
            missing.append(f"{module}.{name}" if name else module)
        elif inspect.ismodule(obj):
            modules[local] = obj
        else:
            bound[local] = (f"{module}.{name}", obj)
    for local, attr in attributes:
        if local in modules and not hasattr(modules[local], attr):
            missing.append(f"{modules[local].__name__}.{attr}")
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        which = node.args[0] if node.args else None
        if (
            getattr(func, "id", getattr(func, "attr", None)) == "sample_multiplier"
            and isinstance(which, ast.Constant)
            and isinstance(which.value, str)
            and refused_piece(which.value)
        ):
            missing.append(f"sqlab.circle.sample_multiplier({which.value!r})")
        if isinstance(func, ast.Name) and func.id in bound:
            name, target = bound[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            name = f"{modules[func.value.id].__name__}.{func.attr}"
            target = getattr(modules[func.value.id], func.attr, None)
        else:
            continue
        if not callable(target):
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        missing += [f"{name}({kw.arg}=)" for kw in node.keywords if kw.arg and kw.arg not in params]
    return missing


def test_benchmark_uses_only_existing_sqlab_names():
    assert BENCH_FILES, "no benchmark sources found"
    missing = {path.name: missing_names(path.read_text()) for path in BENCH_FILES}
    assert not any(missing.values()), {k: v for k, v in missing.items() if v}


def test_library_samples_only_pieces_it_defines():
    missing = {path.name: missing_names(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "operators.py" in missing and not any(missing.values()), {k: v for k, v in missing.items() if v}


def test_scan_reports_what_is_missing():
    # the scan must see every kind of use, or the tests above check nothing
    source = (
        "from sqlab import circle, no_such_module, operators\n"
        "from sqlab.gauss import gauss_G0, no_such_sum\n"
        "circle.dirichlet_approx(0, 1)\n"
        "circle.no_such_function(0)\n"
        'operators.average_squares(f, 2, method="dft")\n'
        'operators.average_squares(f, 2, route="dft")\n'
        "gauss_G0(1, q=3, modulus=3)\n"
        'circle.sample_multiplier("b_N1", 64, 4, 4, 1 << 14)\n'
        'circle.sample_multiplier("a_N", 64, 16, None, 1 << 14)\n'
    )
    assert sorted(missing_names(source)) == [
        "sqlab.circle.no_such_function",
        "sqlab.circle.sample_multiplier('a_N')",
        "sqlab.gauss.gauss_G0(modulus=)",
        "sqlab.gauss.no_such_sum",
        "sqlab.no_such_module",
        "sqlab.operators.average_squares(route=)",
    ]


TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_names(source: str) -> tuple[set, set]:
    """(span names, cache attributes) a tracer source names by string:
    each "layer.name" string among the values of _SELF_S, in _CALLS and
    among the keys of _PROBES, and (module, attribute) of each
    _cache_probe(key, module, attribute) call."""
    spans, caches = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target, value = node.targets[0].id, node.value
            if target == "_SELF_S":
                parts = value.values
            elif target == "_CALLS":
                parts = [value]
            elif target == "_PROBES":
                parts = value.keys
            else:
                continue
            for part in parts:
                spans.update(
                    c.value for c in ast.walk(part) if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_cache_probe":
            caches.add((node.args[1].value, node.args[2].value))
    return spans, caches


def missing_tracer_names(source: str) -> list[str]:
    """The span names and cache attributes a tracer source names that no
    sqlab layer defines; a span name must be defined in its own layer,
    since only there does the tracer wrap it under that name."""
    spans, caches = tracer_names(source)
    missing = []
    for name in spans:
        layer, *path = name.split(".")
        obj = resolve(f"sqlab.{layer}", None)
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None or getattr(obj, "__module__", None) != f"sqlab.{layer}":
            missing.append(name)
    for module, attr in caches:
        if not hasattr(resolve(f"sqlab.{module}", None), attr):
            missing.append(f"{module}.{attr}")
    return missing


def test_tracer_names_exist():
    spans, caches = tracer_names(TRACER.read_text())
    assert "sparse.check_admissible" in spans and ("arith", "factorize") in caches
    assert not missing_tracer_names(TRACER.read_text())


def test_tracer_scan_reports_what_is_missing():
    # metric keys such as "gauss.vector" are not names, so they are not read
    source = (
        '_SELF_S = {"gauss.vector": ("gauss.gauss_G0_vector", "gauss.no_such_table")}\n'
        '_CALLS = ("circle.gamma_N", "no_such_layer.f", "sparse.SparseCollection.verify")\n'
        "_PROBES = {\n"
        '    "arith.no_such_count": _cache_probe("arith.k", "arith", "no_such_cache"),\n'
        '    "hsums.h_vector": _cache_probe("hsums.k", "hsums", "_h_vector_cached"),\n'
        '    "operators.DomainError": None,\n'
        "}\n"
    )
    assert sorted(missing_tracer_names(source)) == [
        "arith.no_such_cache",
        "arith.no_such_count",
        "gauss.no_such_table",
        "no_such_layer.f",
        "operators.DomainError",
    ]


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(dotted name, node) of each public function and class of a module,
    and of each public method and property of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


def bench_reads(source: str) -> tuple[set, set]:
    """(qualified, attributes) a benchmark source reads: ("module", name)
    for each name imported from a sqlab module or read off a local bound to
    one, and the name of every attribute read on any object."""
    imports, attributes = sqlab_references(source)
    qualified, bound = set(), {}
    for module, name, local in imports:
        if module == "sqlab" and name is not None:
            bound[local] = name
        elif module.startswith("sqlab."):
            if name is None:
                bound[local] = module.split(".", 1)[1]
            else:
                qualified.add((module.split(".", 1)[1], name))
    qualified |= {(bound[local], attr) for local, attr in attributes if local in bound}
    tree = ast.parse(source)
    return qualified, {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def unused_names(sources: dict, bench_sources: list, spans: set, commands) -> list[str]:
    """The public functions, classes, methods and properties of the modules
    in ``sources`` (module name -> source) that nothing runs: none is
    referenced in those modules outside its own definition, read by a
    benchmark source, named by a tracer span, or the runner of a command."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs: dict[str, set] = {}  # name -> ids of the nodes referring to it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs.setdefault(alias.name, set()).add(id(node))
    qualified, attributes = set(), set()
    for text in bench_sources:
        q, a = bench_reads(text)
        qualified |= q
        attributes |= a
    runners = {"run_" + command.replace("-", "_") for command in commands}
    unused = []
    for module, tree in trees.items():
        for dotted, node in public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if (
                refs.get(node.name, set()) - inside
                or f"{module}.{dotted}" in spans
                or ("." in dotted and node.name in attributes)
                or ("." not in dotted and (module, dotted) in qualified)
                or (module == "experiments" and dotted in runners)
            ):
                continue
            unused.append(f"{module}.{dotted}")
    return sorted(unused)


def test_library_defines_only_what_runs():
    # a name only the tests use belongs in tests/oracles.py, not in sqlab
    from sqlab.cli import COMMANDS

    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    spans, _ = tracer_names(TRACER.read_text())
    bench = [path.read_text() for path in BENCH_FILES]
    assert "experiments" in sources and "operators" in sources
    unused = unused_names(sources, bench, spans, COMMANDS)
    assert not unused, f"nothing that runs uses {', '.join(unused)}"


def test_unused_scan_reports_what_nothing_runs():
    # each kind of use keeps one name; the three names nothing uses are named
    sources = {
        "experiments": (
            "from .beta import shared\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def imported_by_bench():\n    return shared()\n"
            "def _private():\n    return 0\n"
            "class Box:\n"
            "    def called(self):\n        return self.prop\n"
            "    @property\n    def prop(self):\n        return 1\n"
            "    def lonely(self):\n        return 2\n"
            "    def traced(self):\n        return 3\n"
            "def run_demo():\n    return Box()\n"
            "def run_other():\n    return 0\n"
        ),
        "beta": "def shared():\n    return 1\ndef attribute_of_bench():\n    return 2\n",
    }
    bench = ["from sqlab import beta\nfrom sqlab.experiments import imported_by_bench\nbeta.attribute_of_bench()\nobj.called()\n"]
    assert unused_names(sources, bench, {"experiments.Box.traced"}, ["demo"]) == [
        "experiments.Box.lonely",
        "experiments.recursive",
        "experiments.run_other",
    ]
