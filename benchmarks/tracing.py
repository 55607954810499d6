"""In-memory span tracing installed from outside the package.

A :class:`Tracer` wraps public functions of the ``oatdar`` layer modules.
Each wrapped call records one span (name, start, end, parent span, request
id) and, where the call's arguments or result make it cheap, work counts
such as CSR bytes or convolution FLOPs. Nothing under ``src/`` is edited:
the wrappers replace module attributes and are removed again by
:meth:`Tracer.uninstall`.

Several package modules import names with ``from .x import y``; such a
binding is looked up in the importing module, so a wrapper must replace it
there too. :meth:`Tracer.install` therefore scans every loaded ``oatdar``
module for attributes that are the original function object and patches
each one.

Spans stay in memory until :meth:`Tracer.write_jsonl` writes them out at
the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) of every wrapped function; the span name is
# "<module>.<attribute>".
FUNCTION_TARGETS = (
    ("kernels", "forward_entries"), ("kernels", "assemble_csr"),
    ("kernels", "csr_matvec"), ("kernels", "csr_rmatvec"),
    ("kernels", "otf_apply"), ("kernels", "otf_adjoint"),
    ("kernels", "render_capsules"),
    ("operator", "build_forward_operator"), ("operator", "apply_forward"),
    ("operator", "apply_adjoint"), ("operator", "tikhonov_solve"),
    ("operator", "time_derivative"), ("operator", "time_derivative_adjoint"),
    ("layers", "cross_attention"),
    ("models", "denoise_predict"), ("models", "fd_unet_forward"),
    ("models", "cip_encode"),
    ("diffusion", "sample_batch"), ("diffusion", "ddim_step"),
    ("optim", "adam_update"),
    ("phantoms", "generate_phantom"),
    ("dataset", "build_dataset"),
    ("tensorfile", "write_tensor"), ("tensorfile", "read_tensor"),
    ("tensorfile", "write_bundle"), ("tensorfile", "read_bundle"),
    ("training", "train_fdunet"), ("training", "train_cip"),
    ("training", "train_diffusion"), ("training", "save_checkpoint"),
    ("metrics", "psnr"), ("metrics", "ssim"),
    ("pipeline", "reconstruct_lbp"), ("pipeline", "reconstruct_tikhonov"),
    ("pipeline", "reconstruct_fdunet"), ("pipeline", "reconstruct_dar"),
    ("pipeline", "load_models"),
)
# autodiff ops: the forward call is one span, and the vector-Jacobian
# closure of the returned tensor is wrapped as "<name>.bwd".
AUTODIFF_OPS = ("conv2d", "group_norm", "matmul", "softmax", "max_pool2")
# (module, class, method) wrapped on the class; a __call__ span is named
# after the class.
METHOD_TARGETS = (("autodiff", "Tensor", "backward"),
                  ("layers", "ResBlock", "__call__"))


def _nbytes(arrays):
    return float(sum(np.asarray(a).nbytes for a in arrays))


# Work counts, computed from argument and result shapes: (args, out) -> {}.
def _csr_counts(args, out):
    indptr, indices, data, vec = args[:4]
    return {"bytes_computed": _nbytes((indptr, indices, data, vec, out))}


def _data(a):
    return a.data if hasattr(a, "data") else np.asarray(a)


def _conv_flops(x, w, out):
    """Multiply-adds x2 of one stride-1 convolution pass."""
    n, c = _data(x).shape[:2]
    f, _, kh, kw = _data(w).shape
    return 2.0 * n * f * c * kh * kw * out.shape[2] * out.shape[3]


_COUNTERS = {
    "kernels.forward_entries": lambda a, o: {"entries": float(len(o[2]))},
    "kernels.assemble_csr": lambda a, o: {"nnz": float(len(o[1]))},
    "kernels.csr_matvec": _csr_counts,
    "kernels.csr_rmatvec": _csr_counts,
    "kernels.render_capsules": lambda a, o: {
        "segments": float(np.shape(a[1])[0]) if np.size(a[1]) else 0.0},
    "operator.tikhonov_solve": lambda a, o: {"iterations": float(o.iterations)},
    "models.denoise_predict": lambda a, o: {
        "batch": float(np.shape(a[1])[0]) if np.ndim(a[1]) > 2 else 1.0},
    "optim.adam_update": lambda a, o: {
        "params": float(sum(np.size(p) for p in a[0].values()))},
    "training.save_checkpoint": lambda a, o: {
        "bytes": _nbytes(a[1].values())
        + (_nbytes(a[2].state_arrays().values()) if a[2] is not None
           else 0.0)},
    "tensorfile.write_tensor": lambda a, o: {"bytes": _nbytes((a[1],))},
    "tensorfile.read_tensor": lambda a, o: {"bytes": _nbytes((o,))},
    "tensorfile.write_bundle": lambda a, o: {"bytes": _nbytes(a[1].values())},
    "tensorfile.read_bundle": lambda a, o: {"bytes": _nbytes(o[0].values())},
}


def _tape_nodes(root):
    """Tensors that ``backward`` from ``root`` will visit."""
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.counts = defaultdict(float)   # "<span>.<stat>" -> value
        self.request = 0
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.bindings = set()    # "<module>.<attribute>" bindings patched
        self.wrapped = []        # span names of every wrapper
        self.missing = []        # targets the package no longer has

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                for stat, value in counter(args, out).items():
                    self.counts[f"{name}.{stat}"] += value
            return out
        return traced

    def _wrap_op(self, name, fn):
        """Forward span, plus a span around the returned tensor's VJP."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            flops = 0.0
            if name == "autodiff.conv2d":
                flops = _conv_flops(args[0], args[1], out.data)
                tracer.counts[f"{name}.flop"] += flops
            vjp = out._vjp
            if vjp is not None:
                n_grads = sum(bool(getattr(a, "requires_grad", False))
                              for a in args[:2])

                def traced_vjp(g):
                    tracer.open(name + ".bwd")
                    try:
                        vjp(g)
                    finally:
                        tracer.close()
                    tracer.counts[f"{name}.flop"] += flops * n_grads

                out._vjp = traced_vjp
            return out
        return traced

    def _wrap_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(tensor):
            tracer.counts["autodiff.Tensor.backward.tape_nodes"] += \
                _tape_nodes(tensor)
            tracer.open("autodiff.Tensor.backward")
            try:
                return fn(tensor)
            finally:
                tracer.close()
        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        """Replace every ``oatdar`` module binding of ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "oatdar"
                                   or mod_name.startswith("oatdar.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
                    self.bindings.add(f"{mod_name}.{attr}")

    def install(self):
        """Wrap every target that exists; absent ones go to ``missing``."""
        import importlib
        self.wrapped, self.missing = [], []
        for mod_name, attr in FUNCTION_TARGETS + tuple(
                ("autodiff", op) for op in AUTODIFF_OPS):
            name = f"{mod_name}.{attr}"
            original = getattr(importlib.import_module(f"oatdar.{mod_name}"),
                               attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = (self._wrap_op(name, original) if attr in AUTODIFF_OPS
                       else self._wrap(name, original, _COUNTERS.get(name)))
            self._patch_everywhere(original, wrapper)
            self.wrapped.append(name)
        for mod_name, cls_name, attr in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"oatdar.{mod_name}"),
                          cls_name, None)
            name = f"{mod_name}.{cls_name}" if attr == "__call__" else \
                f"{mod_name}.{cls_name}.{attr}"
            if cls is None or attr not in vars(cls):
                self.missing.append(name)
                continue
            original = vars(cls)[attr]
            wrapper = (self._wrap_backward(original) if attr == "backward"
                       else self._wrap(name, original))
            self._patch(cls, attr, wrapper)
            self.bindings.add(f"oatdar.{mod_name}.{cls_name}.{attr}")
            self.wrapped.append(name)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------------

    def durations(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def time_under(self, names, ancestor=None, windows=()):
        """Seconds spent in spans named ``names`` that run inside a span
        named ``ancestor`` or start inside one of the ``windows``
        (start, end) intervals. Nested spans of ``names`` count once."""
        names = set(names)
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            inside = any(a <= start < b for a, b in windows)
            p = parent
            while p >= 0:
                pname = self.spans[p][0]
                if pname in names:
                    inside = False
                    break
                if pname == ancestor:
                    inside = True
                    break
                p = self.spans[p][3]
            if inside:
                total += end - start
        return total

    def count_under(self, name, ancestor):
        n = 0
        for sname, _, _, parent, _ in self.spans:
            if sname != name:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def covered_seconds(self):
        """Wall time covered by spans that have no parent span."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def write_jsonl(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")
        return path


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------

_STAT_FROM_DURATION = {"calls": 0, "fwd_calls": 0, "s": 1, "fwd_s": 1,
                       "self_s": 2}


def per_layer_metrics(tracer, report, expected, names):
    """name -> value of the per-layer metrics ``names`` for one traced run.

    Returns the metrics and the expected span names that never fired.
    """
    dur = tracer.durations()
    values = {}
    for name in names:
        span, stat = name.rsplit(".", 1)
        if stat == "bwd_s":
            values[name] = dur.get(span + ".bwd", (0, 0.0, 0.0))[1]
        elif stat in _STAT_FROM_DURATION:
            values[name] = dur.get(span, (0, 0.0, 0.0))[
                _STAT_FROM_DURATION[stat]]
        elif stat == "gflop_computed":
            values[name] = tracer.counts[span + ".flop"] / 1e9
        elif stat == "batches":
            values[name] = tracer.count_under("optim.adam_update", span)
        else:
            values[name] = tracer.counts.get(name, 0.0)
    calls = dur.get("models.denoise_predict", (0,))[0]
    values["models.denoise_predict.batch"] /= max(calls, 1)
    iters = values["operator.tikhonov_solve.iterations"]
    values["operator.tikhonov_solve.s_per_iter"] = \
        values["operator.tikhonov_solve.s"] / max(iters, 1)

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    csr = ("kernels.csr_matvec", "kernels.csr_rmatvec")
    otf = ("kernels.otf_apply", "kernels.otf_adjoint")
    values["share.csr_in_tikhonov"] = share(
        tracer.time_under(csr, "operator.tikhonov_solve"),
        values["operator.tikhonov_solve.s"])
    values["share.otf_in_setup"] = share(
        tracer.time_under(otf, windows=report.setup_windows),
        sum(b - a for a, b in report.setup_windows))
    values["share.denoise_predict_in_dar"] = share(
        tracer.time_under(("models.denoise_predict",),
                          "pipeline.reconstruct_dar"),
        values["pipeline.reconstruct_dar.s"])
    window = sum(b - a for a, b in report.trace_windows)
    values["trace.coverage"] = share(tracer.covered_seconds(), window)
    values["trace.overhead"] = (
        statistics.median(report.traced) / statistics.median(report.untraced)
        - 1.0 if report.traced and report.untraced else 0.0)
    fired = {n for n in tracer.wrapped if dur.get(n, (0,))[0] > 0}
    silent = sorted(n for n in expected
                    if n not in dur and n.split(".bwd")[0] in tracer.wrapped)
    values["trace.wrappers_fired"] = len(fired)
    values["trace.expected_silent"] = len(silent)
    values["trace.bindings_patched"] = len(tracer.bindings)
    values["trace.spans"] = len(tracer.spans)
    values["trace.traced_items"] = len(report.traced)
    return {k: float(v) for k, v in values.items()}, sorted(fired), silent
