"""The three benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the seed, builds what a user would
build before the first result (set-up, timed several times), warms up
until per-item times are steady, then times calls into the package's
public functions until ``seconds`` have passed. Every timed call is an
operation whose output is checked; a failed check or a raised exception
counts as a failed operation.

* ``paper_classical``: paper geometry; LBP and Tikhonov CG per sinogram.
* ``desk_dar``: desk profile; FD-UNet and DAR per sinogram, from
  checkpoints that hold the seeded initial weights.
* ``desk_train``: desk profile; dataset build plus the three trainers,
  repeated in fresh run directories.

Around every timed call (or batch of short calls) an untraced run times
``reference_s``, a fixed loop that calls no oatdar code, and stores the
call with the mean of the reference times before and after it, so that
the gated slots can be given in multiples of it (README, "Metrics").

With a tracer, a fixed number of items (``TRACED_PAIRS``) runs twice on
the same input, traced and untraced, so that the per-layer totals
cover a fixed amount of work and the traced run also measures its own
overhead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oatdar import (config, dataset, geometry, metrics, operator, phantoms,
                    pipeline, tensorfile, training)

WORKLOADS = ("paper_classical", "desk_dar", "desk_train")
WARMUP_ROUND = 999_999     # seed key of desk_train's untimed warm-up round
# Warm-up ends when the last WARMUP_REPS times agree within WARMUP_TOL.
WARMUP_REPS = 3
WARMUP_TOL = 0.15
# Items a traced run times, each once traced and once untraced.
TRACED_PAIRS = {"paper_classical": 1, "desk_dar": 8, "desk_train": 2}

# Span names each workload must fire in a traced run.
_OPERATOR_BUILD = ("operator.build_forward_operator", "kernels.forward_entries",
                   "kernels.assemble_csr", "kernels.otf_apply",
                   "kernels.otf_adjoint", "operator.time_derivative",
                   "operator.time_derivative_adjoint")
_AUTODIFF_FWD = ("autodiff.conv2d", "autodiff.group_norm", "autodiff.matmul",
                 "autodiff.softmax", "autodiff.max_pool2",
                 "layers.cross_attention", "layers.ResBlock")
EXPECTED_SPANS = {
    "paper_classical": _OPERATOR_BUILD + (
        "kernels.csr_matvec", "kernels.csr_rmatvec", "operator.apply_adjoint",
        "operator.tikhonov_solve", "pipeline.reconstruct_lbp",
        "metrics.psnr", "metrics.ssim"),
    "desk_dar": _OPERATOR_BUILD + _AUTODIFF_FWD + (
        "kernels.csr_rmatvec", "operator.apply_adjoint", "pipeline.load_models",
        "tensorfile.read_bundle", "tensorfile.read_tensor",
        "pipeline.reconstruct_fdunet", "pipeline.reconstruct_dar",
        "models.fd_unet_forward", "models.cip_encode",
        "models.denoise_predict", "diffusion.sample_batch",
        "diffusion.ddim_step", "metrics.psnr", "metrics.ssim"),
    "desk_train": _OPERATOR_BUILD + _AUTODIFF_FWD + tuple(
        f"{op}.bwd" for op in ("autodiff.conv2d", "autodiff.group_norm",
                               "autodiff.matmul", "autodiff.softmax",
                               "autodiff.max_pool2")) + (
        "kernels.csr_matvec", "kernels.csr_rmatvec", "kernels.render_capsules",
        "operator.apply_forward", "operator.apply_adjoint",
        "phantoms.generate_phantom", "dataset.build_dataset",
        "tensorfile.write_tensor", "tensorfile.read_tensor",
        "tensorfile.write_bundle", "tensorfile.read_bundle",
        "training.train_fdunet", "training.train_cip",
        "training.train_diffusion", "training.save_checkpoint",
        "optim.adam_update", "autodiff.Tensor.backward"),
}


@dataclass(frozen=True)
class Sizes:
    """How much work a run does beyond its ``--seconds`` loop."""

    paper_geometry: bool = True   # paper_classical on the paper profile
    setup_reps: dict = field(default_factory=lambda: {
        "paper_classical": 2, "desk_dar": 9, "desk_train": 11})
    n_inputs: int = 8             # distinct sinograms, reused cyclically
    nis: int | None = None        # None: the config's inference.nis
    train_entries: int = 32
    warmup_max_s: float = 6.0
    warmup_max_reps: int = 12


FULL = Sizes()
TINY = Sizes(paper_geometry=False,
             setup_reps={"paper_classical": 1, "desk_dar": 1,
                         "desk_train": 1},
             n_inputs=2, nis=2, train_entries=4,
             warmup_max_s=1.0, warmup_max_reps=3)


@dataclass
class Outcome:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


@dataclass
class Report:
    """What one workload run measured."""

    workload: str
    config_hash: str
    outcome: Outcome
    setup: list = field(default_factory=list)
    # step name -> [(seconds, reference_s around the call)]
    steps: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)    # other named values
    traced: list = field(default_factory=list)    # main-step s, traced items
    untraced: list = field(default_factory=list)  # main-step s, untraced
    trace_windows: list = field(default_factory=list)  # traced (start, end)
    setup_windows: list = field(default_factory=list)  # traced set-up


def median(xs):
    return float(statistics.median(xs))


@functools.cache
def _reference_arrays():
    rng = np.random.default_rng(0)
    return (rng.random((64, 288), dtype=np.float32),
            rng.random((288, 1024), dtype=np.float32),
            rng.random((8, 64, 32, 32), dtype=np.float32),
            rng.random(2_000_000, dtype=np.float32),
            np.empty(2_000_000, dtype=np.float32))


def reference_s():
    """Median wall seconds of three passes of a fixed loop that calls no
    oatdar code: a float32 GEMM, elementwise and reduction ops on
    activation-sized arrays, an 8 MB stream and an interpreter loop, the
    kinds of work the workloads do. It tracks the host's speed, which
    drifts by up to a third between runs."""
    a, b, c, d, out = _reference_arrays()
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        a @ b
        np.concatenate([np.maximum(c, 0.0) * 1.5 + c, c], axis=1)
        c.sum(axis=(2, 3))
        d.sum()
        np.multiply(d, 1.0001, out=out)
        acc = 0
        for k in range(3000):
            acc += k * k
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes)


def tail(xs):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten samples above it; the maximum when there are fewer than 11."""
    xs = sorted(xs)
    n = len(xs)
    if n < 11:
        return float(xs[-1]), 100, n
    return float(xs[n - 11]), int(100 * (n - 10) // n), n


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def image_ok(img, shape):
    d = np.asarray(img.data)
    return (d.shape == tuple(shape) and bool(np.all(np.isfinite(d)))
            and float(d.min()) >= 0.0 and float(d.max()) <= 1.0)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def warm_up(fn, sizes):
    """Call ``fn`` until the last WARMUP_REPS times agree within
    WARMUP_TOL."""
    times, outs = [], []
    t_start = time.perf_counter()
    while True:
        out, dt = timed(fn)
        times.append(dt)
        outs.append(out)
        last = times[-WARMUP_REPS:]
        if (len(times) >= WARMUP_REPS
                and max(last) <= (1 + WARMUP_TOL) * min(last)):
            break
        if (len(times) >= sizes.warmup_max_reps
                or time.perf_counter() - t_start > sizes.warmup_max_s):
            break
    return times, outs


class Run:
    """Shared state of one workload run."""

    def __init__(self, root, workload, seed, seconds, sizes, tracer=None):
        self.root = Path(root)
        self.work = self.root / ".bench_work"
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.sizes = sizes
        self.tracer = tracer
        self.outcome = Outcome()
        self._ref = None        # reference_s that ended the last timed call

    def sub_seed(self, *keys):
        return int(np.random.SeedSequence((self.seed, *keys))
                   .generate_state(1)[0])

    def attempt(self, what, fn, *args, **kwargs):
        """Run one operation; an exception counts as its failure."""
        try:
            out = fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed operation is data
            traceback.print_exc(file=sys.stderr)
            self.outcome.check(False, f"{what} raised")
            return None
        self.outcome.check(True, what)
        return out

    # -- traced / untraced items ---------------------------------------------

    def loop(self, step, report, after=None):
        """Call ``step(i)`` until ``seconds`` have passed.
        ``step`` returns the item's main-step seconds for the overhead
        comparison; ``after(i)``, if given, checks the item outside any
        trace. With a tracer, items 0 .. TRACED_PAIRS - 1 each run once
        traced and once untraced, the traced run first on even items, and
        ``seconds`` is not used."""
        if self.tracer is not None:
            for i in range(TRACED_PAIRS[self.workload]):
                for traced in (i % 2 == 0, i % 2 == 1):
                    self._item(step, i, report, after, traced)
            return
        t_start = time.perf_counter()
        item_s = []
        # stop before an item that would end past ``seconds``
        while not item_s or (time.perf_counter() - t_start
                             + statistics.median(item_s) <= self.seconds):
            item_s.append(self._item(step, len(item_s), report, after))

    def _item(self, step, i, report, after, traced=False):
        """Run item ``i``; returns its wall seconds."""
        self._ref = None
        if traced:
            self.tracer.request = i + 1
            self.tracer.install()
        w0 = time.perf_counter()
        try:
            main_s = step(i)
        finally:
            if traced:
                self.tracer.uninstall()
                report.trace_windows.append((w0, time.perf_counter()))
        item_s = time.perf_counter() - w0
        if after is not None:
            after(i)
        if main_s is not None:
            (report.traced if traced else report.untraced).append(main_s)
        return item_s

    def timed_ref(self, fn, *args):
        """(out, seconds, reference): ``fn(*args)`` timed, and the mean of
        ``reference_s`` just before and just after it. Calls in a row
        within one item share the reference time between them. Traced runs
        are not gated, so they skip the reference loop and give NaN."""
        if self.tracer is not None:
            return (*timed(fn, *args), float("nan"))
        before = self._ref if self._ref is not None else reference_s()
        out, dt = timed(fn, *args)
        self._ref = reference_s()
        return out, dt, (before + self._ref) / 2

    def set_up(self, fn, report):
        """Time ``fn`` ``setup_reps`` times; with a tracer the first rep is
        traced and at least one more runs untraced."""
        reps = self.sizes.setup_reps[self.workload]
        if self.tracer is not None:
            reps = max(reps, 2)
        for r in range(reps):
            out = None      # each repetition starts without the last result
            traced = self.tracer is not None and r == 0
            if traced:
                self.tracer.request = 0
                self.tracer.install()
            w0 = time.perf_counter()
            try:
                out, dt = timed(fn)
            finally:
                if traced:
                    self.tracer.uninstall()
                    w = (w0, time.perf_counter())
                    report.setup_windows.append(w)
                    report.trace_windows.append(w)
            report.setup.append(dt)
        return out

    # -- inputs ----------------------------------------------------------------

    def simulation_operator(self, cfg):
        """The jittered operator that simulates the measurements.

        Input generation is not timed, and at paper scale this build takes
        seconds, so it is cached in the work directory, keyed by the source
        digest and the geometry.
        """
        geom = config.geometry_from_config(cfg)
        key = hashlib.sha256(
            (source_digest(self.root) + json.dumps(geom.to_dict(),
                                                   sort_keys=True)).encode()
        ).hexdigest()[:16]
        path = self.work / "cache" / f"simop-{key}.pickle"
        if path.is_file():
            with open(path, "rb") as fh:
                return pickle.load(fh)
        op = operator.build_forward_operator(geom, jittered=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{time.time_ns()}")
        with open(tmp, "wb") as fh:
            pickle.dump(op, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)
        return op

    def make_inputs(self, cfg, n):
        """``n`` (phantom, noisy sinogram) pairs drawn from the seed: a
        vessel phantom, the jittered-operator simulation, and white noise
        at an SNR drawn from ``dataset.snr_db_range``."""
        geom = config.geometry_from_config(cfg)
        sim_op = self.simulation_operator(cfg)
        lo, hi = cfg["dataset"]["snr_db_range"]
        rng = np.random.default_rng(self.sub_seed(1))
        pairs = []
        for _ in range(n):
            ph_seed, nz_seed = (int(s) for s in rng.integers(0, 2**31, 2))
            snr = float(rng.uniform(lo, hi))
            phantom = phantoms.generate_phantom(
                config.phantom_params_from_config(cfg, ph_seed),
                geom.grid_nx, geom.grid_ny)
            clean = operator.apply_forward(sim_op, phantom)
            pairs.append((phantom, operator.add_noise(clean, snr, nz_seed)))
        return pairs

    def fresh_dir(self, name):
        path = self.work / f"{self.workload}-{self.seed}" / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def _score(report, key, img, phantom):
    """PSNR and SSIM against the phantom, as ``evaluate_methods`` scores;
    only the PSNR is reported."""
    report.values.setdefault(key, []).append(
        metrics.psnr(img.data, phantom.data))
    metrics.ssim(img.data, phantom.data)


# ---------------------------------------------------------------------------
# paper_classical
# ---------------------------------------------------------------------------


def paper_classical(run: Run) -> Report:
    cfg = config.paper_config() if run.sizes.paper_geometry \
        else config.desk_config()
    config.validate_config(cfg)
    report = Report("paper_classical", config.config_hash(cfg), run.outcome)
    geom = config.geometry_from_config(cfg)
    ev = cfg["eval"]
    # set-up first, so that its peak memory does not depend on the seed
    rec_op = run.set_up(
        lambda: operator.build_forward_operator(geom, jittered=False), report)
    inputs = run.make_inputs(cfg, run.sizes.n_inputs)

    # dot-product identity <Ax, y> = <x, A^T y> on a seeded pair
    rng = np.random.default_rng(run.sub_seed(2))
    x = rng.random(geom.image_shape)
    y = rng.standard_normal(geom.sinogram_shape)
    ax = operator.apply_forward(rec_op, geometry.Image(x)).data
    aty = operator.apply_adjoint(rec_op, geometry.Sinogram(y)).data
    lhs, rhs = float(np.vdot(ax, y)), float(np.vdot(x, aty))
    run.outcome.check(abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs)),
                      f"dot-product identity: {lhs!r} vs {rhs!r}")

    sino0 = inputs[0][1]
    warm_up(lambda: pipeline.reconstruct_lbp(rec_op, sino0), run.sizes)
    operator.tikhonov_solve(rec_op, sino0, ev["tikhonov_lambda"], 3,
                            ev["tikhonov_tol"])

    lbp_s, tik_s, iters = [], [], []

    def tikhonov(sino):
        # reconstruct_tikhonov's body; it drops the solver's convergence
        # record, which the check below needs
        res = operator.tikhonov_solve(rec_op, sino, ev["tikhonov_lambda"],
                                      ev["tikhonov_iters"], ev["tikhonov_tol"])
        return res, geometry.Image(training.normalize01(res.image.data))

    def lbp_all():
        return [timed(pipeline.reconstruct_lbp, rec_op, sino)
                for _, sino in inputs]

    def step(i):
        # LBP costs ~1% of Tikhonov, so every item backprojects all inputs
        results, _, ref = run.timed_ref(lbp_all)
        for j, ((img, dt), (phantom, _)) in enumerate(zip(results, inputs)):
            lbp_s.append((dt, ref))
            if run.outcome.check(image_ok(img, geom.image_shape),
                                 f"lbp image {j} out of range or shape"):
                _score(report, "lbp_psnr_db", img, phantom)
        phantom, sino = inputs[i % len(inputs)]
        (res, img), dt, ref = run.timed_ref(tikhonov, sino)
        tik_s.append((dt, ref))
        iters.append(res.iterations)
        ok = (res.converged and res.residual <= ev["tikhonov_tol"]
              and image_ok(img, geom.image_shape))
        if run.outcome.check(ok, f"tikhonov {i}: converged={res.converged} "
                                 f"residual={res.residual:.3g}"):
            _score(report, "tikhonov_psnr_db", img, phantom)
        return dt

    run.loop(step, report)
    report.steps = {"lbp": lbp_s, "tikhonov": tik_s}
    report.values["tikhonov_iters"] = iters
    return report


# ---------------------------------------------------------------------------
# desk_dar
# ---------------------------------------------------------------------------


def _desk_cfg(**sections):
    cfg = config.desk_config()
    for name, values in sections.items():
        cfg[name] = {**cfg[name], **values}
    config.validate_config(cfg)
    return cfg


def _train_all(cfg, run_dir, call=lambda name, fn, *args: fn(*args)):
    """The package's dataset build and trainers, in pipeline order;
    ``call(name, fn, *args)`` runs each stage."""
    manifest = call("dataset", dataset.build_dataset, cfg, run_dir)
    call("fdunet", training.train_fdunet, cfg, run_dir, manifest)
    manifest = call("emit", training.emit_fdunet_outputs, cfg, run_dir,
                    manifest)
    call("cip", training.train_cip, cfg, run_dir, manifest, "fdunet")
    call("diffusion", training.train_diffusion, cfg, run_dir, manifest,
         "fdunet")
    return manifest


def desk_dar(run: Run) -> Report:
    inference = {"nis": run.sizes.nis} if run.sizes.nis else {}
    cfg = _desk_cfg(dataset={"train": 2, "val": 0, "test": 0,
                             "master_seed": run.sub_seed(3) % 2**31},
                    training={"epochs": 0}, inference=inference)
    report = Report("desk_dar", config.config_hash(cfg), run.outcome)
    geom = config.geometry_from_config(cfg)
    inf = cfg["inference"]
    # checkpoints holding the seeded initial weights (zero epochs)
    run_dir = run.fresh_dir("run")
    _train_all(cfg, run_dir)

    models, rec_op = run.set_up(lambda: (
        pipeline.load_models(run_dir, "fdunet"),
        operator.build_forward_operator(geom, jittered=False)), report)
    inputs = run.make_inputs(cfg, run.sizes.n_inputs)

    def dar(i, seed):
        return pipeline.reconstruct_dar(
            inputs[i % len(inputs)][1], models, geom, nis=inf["nis"],
            eta=inf["eta"], seed=seed, condition_on="fdunet", rec_op=rec_op)

    seed0 = run.sub_seed(4, 0)
    _, outs = warm_up(lambda: dar(0, seed0), run.sizes)
    ref = outs[0].data.tobytes()
    run.outcome.check(all(o.data.tobytes() == ref for o in outs),
                      "DAR differs between runs on the same seed")

    fd_s, dar_s = [], []

    def fdunet_all():
        return [timed(pipeline.reconstruct_fdunet, rec_op, models.fdunet,
                      sino) for _, sino in inputs]

    def step(i):
        # FD-UNet costs ~2% of DAR, so every item runs it on all inputs;
        # its samples then cover as much of the run as DAR's do
        results, _, ref = run.timed_ref(fdunet_all)
        for j, ((img, dt), (phantom, _)) in enumerate(zip(results, inputs)):
            fd_s.append((dt, ref))
            if run.outcome.check(image_ok(img, geom.image_shape),
                                 f"fdunet image {j} out of range or shape"):
                _score(report, "fdunet_psnr_db", img, phantom)
        phantom, sino = inputs[i % len(inputs)]
        img, dt, ref = run.timed_ref(dar, i, run.sub_seed(4, i))
        dar_s.append((dt, ref))
        if run.outcome.check(image_ok(img, geom.image_shape),
                             f"dar image {i} out of range or shape"):
            _score(report, "dar_psnr_db", img, phantom)
        return dt

    run.loop(step, report)
    run.outcome.check(dar(0, seed0).data.tobytes() == ref,
                      "DAR after the timed loop differs from the warm-up")
    shutil.rmtree(run_dir.parent, ignore_errors=True)
    report.steps = {"fdunet": fd_s, "dar": dar_s}
    return report


# ---------------------------------------------------------------------------
# desk_train
# ---------------------------------------------------------------------------


def _check_round(run, run_dir, n_entries):
    out = run.outcome
    data_dir = run_dir / "dataset"
    manifest = dataset.DatasetManifest.read(data_dir)
    out.check(len(manifest.entries) == n_entries, "dataset entry count")
    run.attempt("dataset read-back", manifest.validate_files, data_dir)
    ckpts = run_dir / "checkpoints"
    for name in ("fdunet.ckpt", "cip_fdunet.ckpt", "denoiser_fdunet.ckpt"):
        bundle = run.attempt(f"read {name}", tensorfile.read_bundle,
                             ckpts / name)
        if bundle is None:
            continue
        arrays, meta = bundle
        losses = meta.get("losses", [])
        out.check(len(losses) == 1 and all(np.isfinite(losses))
                  and all(np.all(np.isfinite(a)) for a in arrays.values()),
                  f"{name}: losses {losses!r}")


class RoundFailed(Exception):
    """A training stage failed, so the rest of its round cannot run."""


def desk_train(run: Run) -> Report:
    n = run.sizes.train_entries
    batch = min(16, n)

    def round_cfg(r, entries):
        # one epoch: losses and per-image rates are per epoch
        return _desk_cfg(dataset={"train": entries, "val": 0, "test": 0,
                                  "master_seed": run.sub_seed(5, r) % 2**31},
                         training={"epochs": 1, "batch_size": batch})

    cfg = round_cfg(0, n)
    report = Report("desk_train", config.config_hash(cfg), run.outcome)
    geom = config.geometry_from_config(cfg)
    grid = cfg["patch"]
    patches_per_image = (geom.grid_ny // grid["h"]) * (geom.grid_nx // grid["w"])

    # what build_dataset pays before its first entry
    run.set_up(lambda: (
        operator.build_forward_operator(geom, jittered=True),
        operator.build_forward_operator(geom, jittered=False)), report)
    _train_all(round_cfg(WARMUP_ROUND, batch), run.fresh_dir("warmup"))

    ds_s, fd_s, den_s, train_s = [], [], [], []

    def step(i):
        cfg_i = round_cfg(i, n)
        run_dir = run.fresh_dir(f"round{i}")
        times, refs = {}, {}

        def call(name, fn, *args):
            out, times[name], refs[name] = run.timed_ref(
                run.attempt, f"{name} round {i}", fn, *args)
            if out is None:
                raise RoundFailed(name)
            return out

        try:
            _train_all(cfg_i, run_dir, call)
        except RoundFailed:
            return None
        ds_s.append((times["dataset"] / n, refs["dataset"]))
        fd_s.append((times["fdunet"] / n, refs["fdunet"]))
        den_s.append((times["diffusion"] / (n * patches_per_image),
                      refs["diffusion"]))
        # the two trainers' references, weighted by their times
        t_fd, t_den = times["fdunet"], times["diffusion"]
        train_s.append(((t_fd + t_den) / n,
                        (t_fd * refs["fdunet"] + t_den * refs["diffusion"])
                        / (t_fd + t_den)))
        return sum(times.values())

    def after(i):
        run_dir = run.work / f"desk_train-{run.seed}" / f"round{i}"
        if (run_dir / "checkpoints" / "denoiser_fdunet.ckpt").is_dir():
            _check_round(run, run_dir, n)
        shutil.rmtree(run_dir, ignore_errors=True)

    run.loop(step, report, after=after)
    shutil.rmtree(run.work / f"desk_train-{run.seed}", ignore_errors=True)
    report.steps = {"dataset_per_entry": ds_s, "fdunet_per_sample": fd_s,
                    "denoiser_per_patch": den_s,
                    "training_per_image_epoch": train_s}
    return report


RUNNERS = {"paper_classical": paper_classical, "desk_dar": desk_dar,
           "desk_train": desk_train}
