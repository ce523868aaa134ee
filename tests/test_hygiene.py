"""Source hygiene of ``src/nlw``, checked with the standard library alone.

Five kinds of dead code fail here, one cost at import, one cache and
three second spellings, of the pair order, of the radial kernels and of
the log ratio:

* a name a module imports but neither uses nor re-exports (a package
  ``__init__`` re-exports everything it imports; other modules re-export
  the names their ``__all__`` lists);
* a module-level function, class or UPPER_CASE constant that no code
  under ``src/``, ``tests/`` or ``perfbench/`` reads and no ``__all__``
  lists;
* a method of a class (dunders aside) whose name no code under those
  directories reads;
* a name in a module's ``__all__`` that the module neither defines nor
  imports (a stale export of something deleted);
* an option the program never sets: a defaulted parameter of a function
  or method, or a defaulted field of a frozen dataclass, of a callable
  that code under ``src/`` calls, which no call under ``src/`` or
  ``perfbench/`` passes by keyword or by position.  A value that only
  tests pass is a test hook, and the program runs one value: a constant.
  ``cli.main(argv)`` is exempt, since it carries the program's outside
  input.  An option of a callable that only tests and ``perfbench/`` call
  (a test oracle like ``check_metric_axioms`` or ``action``) must still be
  set by some call under the three directories.  Calls match by the
  called name alone, and a call with ``*args`` or ``**kwargs`` sets every
  option of its name.  Non-frozen dataclasses, filled after construction
  like ``RunResult``, are exempt;
* a scipy import that runs when its module loads (anywhere outside a
  function body): ``import nlw`` loads numpy alone, and each scipy
  subpackage loads inside the functions that call it;
* a call of ``np.triu_indices`` outside ``metric._edges``: pair order is
  row-major i < j, the order of ``system.json``'s eta, and the transport
  solver is the one module that lists the pairs, as vectorized edge
  arrays; the kernel assembly keeps its pair integrals in eta's upper
  triangle, and the pair functionals and the tangent flux walk its rows,
  so none of them numbers pairs;
* a ``cached_property`` in ``discretize``: a ``DiscreteSystem`` holds
  grid, pi, eta and provenance, and no cache derived from eta;
* a tuple naming both ``ConstantKernel`` and ``FractionalKernel`` (as in
  ``isinstance(spec, (ConstantKernel, FractionalKernel))``) outside
  ``kernels._radial``: the offset classes, the far field and the
  one-probe moment sups all ask that one predicate whether a kernel
  reads only the radius;
* a call of ``np.log1p`` in ``functionals`` or ``flow`` outside
  ``functionals._log_ratio``: the logarithmic mean takes the log ratio
  ell and its overflow branch from that one helper.

Two more checks tie the benchmark to the program: every
"<layer>.<function>" name ``perfbench/tracing.py`` reads is a public
function of its layer, so a rename fails here rather than zeroing a
per-layer metric, and ``perfbench/selftest.py`` exits 0.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nlw"
SEARCHED = ("src", "tests", "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    """Every name read as a variable or attribute, also inside quoted annotations.

    Assignment targets do not count, so a constant is not its own reader.
    """
    used = set()
    quoted = [
        ast.parse(node.value, mode="eval")
        for ann in _annotations(tree)
        for node in ast.walk(ann)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    for root in [tree, *quoted]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _imported_names(tree: ast.Module):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level: definitions, assignments and imports."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {name for name, _ in _imported_names(node)}
    return bound


_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")  # UPPER_CASE module constants; dunders like __all__ do not match


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def test_every_import_is_used_or_reexported():
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        keep = _used_names(tree) | _dunder_all(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in keep]
    assert not unused, "unused imports: " + ", ".join(unused)


def _referenced_names() -> set[str]:
    """Every name read or imported by name anywhere under ``SEARCHED``."""
    referenced = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            tree = _parse(path)
            referenced |= _used_names(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    referenced |= {alias.name for alias in node.names}
    return referenced


def test_every_module_level_definition_is_referenced_or_exported():
    referenced = _referenced_names()
    dead = []
    for path in _modules():
        tree = _parse(path)
        exported = _dunder_all(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                names = [name for name in names if _CONSTANT.fullmatch(name)]
            else:
                continue
            dead += [f"{path.name}:{node.lineno} {name}" for name in names if name not in exported | referenced]
    assert not dead, "unreferenced definitions: " + ", ".join(dead)


def test_every_method_is_referenced():
    referenced = _referenced_names()
    dead = []
    for path in _modules():
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if node.name not in referenced:
                    dead.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert not dead, "unreferenced methods: " + ", ".join(dead)


def test_every_exported_name_is_bound_in_its_module():
    stale = []
    for path in _modules():
        tree = _parse(path)
        stale += [f"{path.name} {name}" for name in sorted(_dunder_all(tree) - _bound_names(tree))]
    assert not stale, "__all__ lists names the module does not bind: " + ", ".join(stale)


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(deco, ast.Call)
        and getattr(deco.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in deco.keywords)
        for deco in cls.decorator_list
    )


def _options(tree: ast.Module):
    """(label, called name, position, option) for every defaulted option.

    Options are the defaulted parameters of functions and methods and the
    defaulted fields of frozen dataclasses.  A dataclass and a class's
    ``__init__`` are called by the class name.  The position is the
    option's index among a call's positional arguments: a method's
    ``self`` or ``cls`` takes none, since ``obj.method(a)`` fills it
    implicitly.  Keyword-only options have position None.
    """
    owner = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_frozen_dataclass(cls):
            fields = [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
            for k, node in enumerate(fields):
                if node.value is not None:
                    yield f"{cls.name}.{node.target.id}", cls.name, k, node.target.id
        for node in cls.body:
            if not any(getattr(d, "id", None) == "staticmethod" for d in getattr(node, "decorator_list", ())):
                owner[node] = cls
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(node)
        label = node.name if cls is None else f"{cls.name}.{node.name}"
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], start=first - (cls is not None)):
            yield f"{label}({arg.arg})", name, k, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}({arg.arg})", name, None, arg.arg


def _calls(tops: tuple) -> tuple[set, dict, set]:
    """Every call under the directories ``tops``, by the called name alone.

    Returns the (name, keyword) pairs passed, the most positional
    arguments any call of a name passes, and the names called with
    ``*args`` or ``**kwargs``.
    """
    keywords, positional, splatted = set(), {}, set()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            for call in ast.walk(_parse(path)):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                    splatted.add(name)
                keywords |= {(name, k.arg) for k in call.keywords}
                positional[name] = max(positional.get(name, 0), len(call.args))
    return keywords, positional, splatted


_OUTSIDE_INPUT = {"main(argv)"}  # cli.main: the command line reaches it through sys.argv


def test_every_option_is_set_by_some_call():
    program_called = _calls(("src",))[1].keys()  # the positional counts hold every called name
    program = _calls(("src", "perfbench"))
    anywhere = _calls(SEARCHED)
    unset = []
    for path in _modules():
        for label, name, position, option in _options(_parse(path)):
            if label in _OUTSIDE_INPUT:
                continue
            keywords, positional, splatted = program if name in program_called else anywhere
            if name in splatted or (name, option) in keywords:
                continue
            if position is not None and position < positional.get(name, 0):
                continue
            unset.append(f"{path.name} {label}")
    assert not unset, "options that no program call sets: " + ", ".join(unset)


def _load_time_imports(node: ast.AST):
    """Import statements that run when the module loads: all but those inside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _load_time_imports(child)


def test_no_scipy_import_runs_at_module_load():
    eager = []
    for path in _modules():
        for node in _load_time_imports(_parse(path)):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            eager += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not eager, "module-level scipy imports: " + ", ".join(eager)


_PAIR_ORDER_OWNERS = {("metric.py", "_edges")}


def _nodes_by_scope(node: ast.AST, kind: type, scope: str = ""):
    """(enclosing qualified name, node) for every node of type ``kind`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _nodes_by_scope(child, kind, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, kind):
            yield scope, child
        yield from _nodes_by_scope(child, kind, scope)


def test_the_pair_order_is_built_only_by_the_pair_list():
    owners = set()
    for path in _modules():
        for scope, call in _nodes_by_scope(_parse(path), ast.Call):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "triu_indices":
                owners.add((path.name, scope or "<module>"))
    assert owners <= _PAIR_ORDER_OWNERS, f"np.triu_indices called in {sorted(owners - _PAIR_ORDER_OWNERS)}"
    assert owners, "metric._edges no longer calls np.triu_indices"


def test_discretize_defines_no_cached_property():
    cached = [
        f"discretize.py:{node.lineno} {node.name}"
        for node in ast.walk(_parse(PACKAGE / "discretize.py"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for deco in node.decorator_list
        if getattr(deco, "id", getattr(deco, "attr", None)) == "cached_property"
    ]
    assert not cached, "cached properties in discretize: " + ", ".join(cached)


_RADIAL_OWNERS = {("kernels.py", "_radial")}


def test_the_radial_kernels_are_named_only_by_the_radial_predicate():
    owners = set()
    for path in _modules():
        for scope, node in _nodes_by_scope(_parse(path), ast.Tuple):
            names = {getattr(elt, "id", getattr(elt, "attr", None)) for elt in node.elts}
            if {"ConstantKernel", "FractionalKernel"} <= names:
                owners.add((path.name, scope or "<module>"))
    assert owners <= _RADIAL_OWNERS, f"(ConstantKernel, FractionalKernel) named in {sorted(owners - _RADIAL_OWNERS)}"
    assert owners, "kernels._radial no longer names (ConstantKernel, FractionalKernel)"


_LOG_RATIO_OWNERS = {("functionals.py", "_log_ratio")}


def test_the_log_ratio_is_taken_only_by_its_helper():
    owners = set()
    for name in ("functionals.py", "flow.py"):
        for scope, call in _nodes_by_scope(_parse(PACKAGE / name), ast.Call):
            if getattr(call.func, "attr", getattr(call.func, "id", None)) == "log1p":
                owners.add((name, scope or "<module>"))
    assert owners <= _LOG_RATIO_OWNERS, f"np.log1p called in {sorted(owners - _LOG_RATIO_OWNERS)}"
    assert owners, "functionals._log_ratio no longer calls np.log1p"


# a name the benchmark's tracer reads though the program no longer defines it;
# its per-layer metric reads 0 until the benchmark drops it
_TRACED_BUT_DELETED = {"discretize.save_system"}
_TRACE_READERS = {"total", "self_s", "calls", "count", "_under"}  # layer_metrics' readers of span names


def _traced_names(tree: ast.Module) -> set[str]:
    """The "<layer>.<function>" span names ``perfbench/tracing.py`` reads.

    They are ``EXTRACT``'s keys, the first argument of each call to one of
    ``layer_metrics``' readers and the strings compared with a span's name.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "EXTRACT" for t in node.targets):
            names |= {key.value for key in node.value.keys}
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _TRACE_READERS:
            names |= {arg.value for arg in node.args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
        elif isinstance(node, ast.Compare):
            names |= {c.value for c in node.comparators if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def test_every_name_the_benchmark_traces_is_a_public_function_of_its_layer():
    # the tracer wraps the functions in each layer's __all__ and the density
    # method of each measure class; any other name it reads would give a
    # per-layer metric that reads 0, so it fails here instead
    tree = _parse(ROOT / "perfbench" / "tracing.py")
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    traced = {name for name in _traced_names(tree) if name.split(".")[0] in layers}
    assert {"flow.solve", "flow.edi_report", "kernels.density"} <= traced
    missing = []
    for name in sorted(traced - _TRACED_BUT_DELETED):
        layer, function = name.split(".")
        module = _parse(PACKAGE / f"{layer}.py")
        if name == "kernels.density":
            found = any(
                isinstance(node, ast.FunctionDef) and node.name == "density"
                for cls in module.body if isinstance(cls, ast.ClassDef)
                for node in cls.body
            )
        else:
            defined = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
            found = function in defined and function in _dunder_all(module)
        if not found:
            missing.append(name)
    assert not missing, "traced names that are not public functions of their layer: " + ", ".join(missing)


def test_the_benchmark_self_test_passes():
    # the harness's own self-test (tiny workloads through their checks, span
    # arithmetic, the tracer) runs with the suite, in a fresh interpreter
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
