"""The package's public names, the names the benchmark traces, the names
and call signatures its workloads use, and the one fault rule."""

import ast
import builtins
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import oatdar
from oatdar.errors import ConfigError, TensorFileError, blame

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"
# removed with the on-the-fly operator; the benchmark still lists them
STALE_TRACE_TARGETS = {"kernels.otf_apply", "kernels.otf_adjoint"}


def test_every_exported_name_resolves():
    assert len(set(oatdar.__all__)) == len(oatdar.__all__)
    missing = [n for n in oatdar.__all__ if not hasattr(oatdar, n)]
    assert missing == []


def test_every_benchmark_trace_target_resolves():
    """A refactor that drops or renames a traced name fails here, not
    silently as a missing span in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def module(name):
        return importlib.import_module(f"oatdar.{name}")

    functions = tracing.FUNCTION_TARGETS + tuple(
        ("autodiff", op) for op in tracing.AUTODIFF_OPS)
    missing = {f"{m}.{a}" for m, a in functions
               if not callable(getattr(module(m), a, None))}
    missing |= {f"{m}.{c}.{a}" for m, c, a in tracing.METHOD_TARGETS
                if a not in vars(getattr(module(m), c, object))}
    assert missing <= STALE_TRACE_TARGETS


WORKLOADS = TRACING.parent / "workloads.py"


def _workload_uses():
    """``(dotted name, call node or None)`` for every attribute chain of an
    ``oatdar`` module in the benchmark workloads, taken from their AST."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "oatdar"
               for a in node.names}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    uses, inner = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts, value = [node.attr], node.value
        while isinstance(value, ast.Attribute):
            inner.add(id(value))
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in modules:
            uses.append((".".join([value.id, *reversed(parts)]),
                         calls.get(id(node))))
    return uses


def test_every_oatdar_name_the_workloads_use_resolves():
    """A refactor that renames or re-signs what the gated benchmark calls
    fails here, not as failed operations in a benchmark run."""
    uses = _workload_uses()
    assert any(name == "pipeline.reconstruct_dar" for name, _ in uses)
    for name, call in uses:
        obj = oatdar
        for part in name.split("."):
            assert hasattr(obj, part), name
            obj = getattr(obj, part)
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        # the call's positional count and keyword names must bind
        keywords = {k.arg: k for k in call.keywords if k.arg is not None}
        inspect.signature(obj).bind(*call.args, **keywords)


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads; names in ``__all__`` count
    as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted([*(ROOT / "src" / "oatdar").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 20
    assert [u for p in paths for u in _unused_imports(p)] == []


# every exception that says a file is bad: OSError and UnicodeError with
# their subclasses, and the toolkit's and json's own
FILE_FAULT_NAMES = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, (OSError, UnicodeError))
} | {"TensorFileError", "ShapeError", "JSONDecodeError"}


def _subclass_names(cls) -> set[str]:
    return {cls.__name__}.union(*map(_subclass_names, cls.__subclasses__()))


def _names(node) -> set[str]:
    """The exception names an ``except`` clause's type expression gives."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_blame_turns_a_file_fault_into_a_config_error():
    """``errors.blame`` is the one rule that makes a bad file exit 2: no
    ``except`` clause elsewhere that catches a file fault raises a
    ConfigError (or a subclass). Mapping one onto a TensorFileError, as
    ``tensorfile`` does, stays allowed."""
    config_errors = _subclass_names(ConfigError)
    found = []
    for path in sorted((ROOT / "src" / "oatdar").glob("*.py")):
        if path.name == "errors.py":
            continue
        for handler in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(handler, ast.ExceptHandler) and handler.type
                    and _names(handler.type) & FILE_FAULT_NAMES):
                continue
            found += [f"{path.name}:{r.lineno}"
                      for stmt in handler.body for r in ast.walk(stmt)
                      if isinstance(r, ast.Raise) and r.exc is not None
                      and _names(r.exc) & config_errors]
    assert found == []


@pytest.mark.parametrize("message", ["a.ckpt: bad header", "bad header"])
def test_blame_names_its_source_once(message):
    """A fault whose message already starts with its source is not
    prefixed with it again."""
    with pytest.raises(ConfigError) as info, blame("a.ckpt", "; then"):
        raise TensorFileError(message)
    assert str(info.value) == "a.ckpt: bad header; then"
