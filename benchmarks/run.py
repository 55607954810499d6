"""Benchmark entry point: one workload per process.

    python3 benchmarks/run.py --workload desk_dar --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` installs span wrappers (see ``tracing.py``) and reports the
per-layer metrics instead, including the tracing overhead, over a fixed
number of items whatever ``--seconds`` is. ``--workload
all`` runs every workload in its own process and prints one table of the
named metrics. ``--tiny`` shrinks every workload for the self-check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program under
test is imported from ``src/`` of the checkout that holds this script;
without it the run exits with code 1 before measuring anything.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Metric name -> unit, as BENCHMARK.json lists them. Every workload reports
# each end-to-end slot, and each slot means one thing per workload
# (README.md, "Metrics").
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
STEP_SLOTS = {"paper_classical": ("lbp", "tikhonov"),
              "desk_dar": ("fdunet", "dar"),
              "desk_train": ("dataset_per_entry", "training_per_image_epoch")}


def _import_program():
    if not (ROOT / "src" / "oatdar" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {ROOT / 'src' / 'oatdar'}"
                 " is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import oatdar
    if Path(oatdar.__file__).resolve().parent != ROOT / "src" / "oatdar":
        sys.exit(f"error: imported oatdar from {oatdar.__file__}, not from "
                 "this checkout")


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args, config_hash):
    import numpy as np
    from oatdar import kernels

    from workloads import source_digest
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    backend = getattr(kernels, "backend_name", lambda: "numpy")()
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "kernels_backend": backend, "git_rev": _git_rev(),
        "source_digest": source_digest(ROOT), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "config_hash": config_hash,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def named_metrics(report):
    """The per-workload metrics by their descriptive names:
    name -> (value, unit, note)."""
    from workloads import median, tail
    vals = report.values
    steps = {k: [sec for sec, _ in xs] for k, xs in report.steps.items()}
    out = {"setup_s": (median(report.setup), "s", "")}

    def rate(xs):
        return median([1.0 / x for x in xs])

    if report.workload == "paper_classical":
        out.update({
            "lbp_s_p50": (median(steps["lbp"]), "s/image", ""),
            "tikhonov_s_p50": (median(steps["tikhonov"]), "s/image", ""),
            "tikhonov_iters": (median(vals["tikhonov_iters"]), "count", ""),
            "lbp_psnr_db": (median(vals.get("lbp_psnr_db", [0.0])), "dB", ""),
            "tikhonov_psnr_db": (median(vals.get("tikhonov_psnr_db", [0.0])),
                                 "dB", ""),
        })
    elif report.workload == "desk_dar":
        value, pct, n = tail(steps["dar"])
        out.update({
            "fdunet_s_p50": (median(steps["fdunet"]), "s/image", ""),
            "dar_s_p50": (median(steps["dar"]), "s/image", ""),
            "dar_s_tail": (value, "s/image", f"p{pct} of n={n}" if pct < 100
                           else f"max of n={n}"),
        })
    else:
        out.update({
            "dataset_entries_per_s": (rate(steps["dataset_per_entry"]),
                                      "entries/s", ""),
            "fdunet_train_samples_per_s": (rate(steps["fdunet_per_sample"]),
                                           "images/s", ""),
            "denoiser_train_patches_per_s": (
                rate(steps["denoiser_per_patch"]), "patches/s", ""),
        })
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", "")
    o = report.outcome
    out["error_rate"] = (o.failed / max(o.attempted, 1), "failed/attempted",
                         f"{o.failed}/{o.attempted}")
    return out


def end_to_end(report):
    """The END_TO_END slots of one untraced run: the set-up median in
    seconds, and each step's median in multiples of the reference loop
    timed around its call."""
    from workloads import median

    def in_ref(step):
        return median([sec / ref for sec, ref in report.steps[step]])

    step1, step2 = STEP_SLOTS[report.workload]
    return {"setup_s": median(report.setup), "step1_ref": in_ref(step1),
            "step2_ref": in_ref(step2)}


def run_one(args):
    import workloads
    from tracing import Tracer, per_layer_metrics

    tracer = Tracer() if args.trace else None
    sizes = workloads.TINY if args.tiny else workloads.FULL
    run = workloads.Run(ROOT, args.workload, args.seed, args.seconds, sizes,
                        tracer)
    report = workloads.RUNNERS[args.workload](run)
    print("env " + json.dumps(environment(args, report.config_hash),
                              sort_keys=True))
    if tracer is None:
        for name, (value, unit, note) in named_metrics(report).items():
            print(f"metric {name} {value:.6g} {unit} {note}".rstrip())
        slots = end_to_end(report)
        metrics = {k: {"value": slots[k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        values, fired, silent = per_layer_metrics(
            tracer, report, workloads.EXPECTED_SPANS[args.workload],
            PER_LAYER)
        run.outcome.check(not silent, f"expected spans never fired: {silent}")
        path = tracer.write_jsonl(ROOT / ".bench_work" / "traces" /
                                  f"{args.workload}-seed{args.seed}.jsonl")
        print("trace fired " + " ".join(fired))
        print("trace silent " + (" ".join(silent) or "-"))
        print("trace missing " + (" ".join(tracer.missing) or "-"))
        print("trace bindings " + " ".join(sorted(tracer.bindings)))
        print(f"trace spans {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
        for name in PER_LAYER:
            print(f"layer {name} {values[name]:.6g} {PER_LAYER[name]}")
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    o = run.outcome
    for failure in o.failures:
        print(f"failure {failure}")
    print(json.dumps({"correct": o.failed == 0, "attempted": o.attempted,
                      "failed": o.failed, "metrics": metrics}))


def run_all(args, workloads):
    """Every workload in its own process; one table of named metrics."""
    rows, ok = [], True
    for workload in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny
                                                     else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        lines = proc.stdout.splitlines()
        ok = ok and json.loads(lines[-1])["correct"]
        for line in lines:
            if line.startswith("metric "):
                name, value, unit, *note = line.split(" ", 4)[1:]
                rows.append((workload, name, value, unit, " ".join(note)))
            elif line.startswith("env ") and workload == workloads[0]:
                print(line)
    width = max(len(r[1]) for r in rows) if rows else 10
    for workload, name, value, unit, note in rows:
        print(f"{workload:16s} {name:{width}s} {value:>12s} {unit} {note}"
              .rstrip())
    return 0 if ok else 1


def main(argv=None):
    _import_program()
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (self-check only)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
