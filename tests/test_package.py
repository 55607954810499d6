"""The package's public names, and the names the benchmark traces."""

import importlib
import importlib.util
from pathlib import Path

import oatdar

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
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
