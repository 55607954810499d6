"""Command-line orchestrator.

Exit codes: 0 success, 2 configuration error, 3 missing prerequisite,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline, training
from .config import (apply_flag_overrides, config_hash, geometry_from_config,
                     load_config, phantom_params_from_config)
from .dataset import SPLITS, DatasetManifest, build_dataset
from .errors import (ConfigError, NumericalError, PrerequisiteError,
                     ShapeError, TensorFileError)
from .geometry import Image, Sinogram, check_image, check_sinogram
from .operator import build_forward_operator
from .phantoms import generate_phantom
from .tensorfile import read_tensor, write_tensor

log = logging.getLogger("oatdar")


def _parse_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes a comma list of {kind.__name__}s, "
                          f"got {text!r}") from None


def _seed(text: str) -> int:
    """Every ``--seed`` flag's type: digits only, so argparse exits 2 on a
    negative or non-integer seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return int(text)


def _read_arg(path, flag: str, kind, check, geometry):
    """``flag``'s tensor file as a ``kind`` that fits ``geometry``."""
    try:
        value = kind(read_tensor(path))
        check(geometry, value)
        return value
    except (TensorFileError, ShapeError) as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _load_cfg(args) -> dict:
    overrides = apply_flag_overrides({}, args.set or [])
    cfg = load_config(args.config, overrides)
    log.info("config hash %s", config_hash(cfg))
    return cfg


def _run_dir(args) -> Path:
    rd = Path(args.run_dir)
    rd.mkdir(parents=True, exist_ok=True)
    return rd


def _write_effective_config(cfg, run_dir):
    (Path(run_dir) / "config.json").write_text(
        json.dumps(cfg, indent=1, sort_keys=True) + "\n")


def cmd_phantom(args):
    cfg = _load_cfg(args)
    geom = geometry_from_config(cfg)
    params = phantom_params_from_config(cfg, args.seed)
    img = generate_phantom(params, geom.grid_nx, geom.grid_ny)
    pipeline.export_image(img, args.out)
    print(f"phantom seed={args.seed} -> {args.out}")


def cmd_operator(args):
    cfg = _load_cfg(args)
    op = build_forward_operator(geometry_from_config(cfg),
                                jittered=args.jittered)
    op.to_bundle(args.out)
    nnz = int(op.indptr[-1])
    print(f"operator {op.n_rows}x{op.n_cols}, {nnz} entries -> {args.out}")


def cmd_simulate(args):
    cfg = _load_cfg(args)
    phantom = _read_arg(args.phantom, "--phantom", Image, check_image,
                        geometry_from_config(cfg))
    sino = pipeline.simulate_sinogram(cfg, phantom, args.snr, args.seed)
    write_tensor(args.out, sino.data)
    print(f"sinogram {sino.data.shape} snr={args.snr} -> {args.out}")


def cmd_dataset(args):
    cfg = _load_cfg(args)
    run_dir = _run_dir(args)
    _write_effective_config(cfg, run_dir)
    manifest = build_dataset(cfg, run_dir, force=args.force)
    print(f"dataset: {len(manifest.entries)} entries, "
          f"hash {manifest.content_hash(run_dir / 'dataset')[:16]}")


def _manifest(run_dir) -> DatasetManifest:
    return DatasetManifest.read(Path(run_dir) / "dataset")


def cmd_train(args):
    cfg = _load_cfg(args)
    run_dir = _run_dir(args)
    manifest = _manifest(run_dir)
    if args.block == "fdunet":
        ckpt = training.train_fdunet(cfg, run_dir, manifest,
                                     resume=args.resume)
        training.emit_fdunet_outputs(cfg, run_dir, manifest)
        print(f"fdunet trained -> {ckpt}")
    elif args.block == "cip":
        ckpt = training.train_cip(cfg, run_dir, manifest,
                                  condition_on=args.condition_on,
                                  resume=args.resume)
        print(f"cip[{args.condition_on}] trained -> {ckpt}")
    else:  # argparse admits only fdunet, cip and diffusion
        ckpt = training.train_diffusion(cfg, run_dir, manifest,
                                        condition_on=args.condition_on,
                                        resume=args.resume)
        print(f"diffusion[{args.condition_on}] trained -> {ckpt}")


def cmd_reconstruct(args):
    cfg = _load_cfg(args)
    inf = cfg["inference"]
    nis = args.nis if args.nis is not None else inf["nis"]
    eta = args.eta if args.eta is not None else inf["eta"]
    if args.method in pipeline.DAR_INITIAL:
        pipeline.check_dar_steps(cfg, [nis], eta)
    models = pipeline.load_method_models(args.run_dir, args.method)
    rec_op = build_forward_operator(geometry_from_config(cfg), jittered=False)
    sino = _read_arg(args.sino, "--sino", Sinogram, check_sinogram,
                     rec_op.geometry)
    img = pipeline.reconstruct(
        args.method, cfg, rec_op, sino, models, nis=nis, eta=eta,
        seed=args.seed if args.seed is not None else inf["seed"])
    pipeline.export_image(img, args.out)
    print(f"{args.method} reconstruction -> {args.out}")


def cmd_eval(args):
    cfg = _load_cfg(args)
    run_dir = Path(args.run_dir)
    manifest = _manifest(run_dir)
    methods = [m.strip() for m in args.methods.split(",")]
    nis_list = _parse_list(args.nis, int, "--nis") if args.nis else ()
    snr_list = _parse_list(args.snr, float, "--snr") if args.snr else None
    report = pipeline.evaluate_methods(cfg, run_dir, manifest, methods,
                                       nis_list, snr_list, split=args.split)
    out = Path(args.out) if args.out else run_dir / "reports"
    report.write(out)
    print((out / "summary.txt").read_text())
    print(f"report hash {report.content_hash(out)[:16]}")


def cmd_run_all(args):
    cfg = _load_cfg(args)
    run_dir = _run_dir(args)
    _write_effective_config(cfg, run_dir)
    manifest = build_dataset(cfg, run_dir, force=args.force)
    training.train_fdunet(cfg, run_dir, manifest)
    manifest = training.emit_fdunet_outputs(cfg, run_dir, manifest)
    for cond in training.CONDITIONS:
        training.train_cip(cfg, run_dir, manifest, condition_on=cond)
        training.train_diffusion(cfg, run_dir, manifest, condition_on=cond)
    report = pipeline.evaluate_methods(
        cfg, run_dir, manifest,
        [m for m in pipeline.METHODS if m != "tikhonov"],
        nis_list=[cfg["inference"]["nis"]])
    out = run_dir / "reports"
    report.write(out)
    print((out / "summary.txt").read_text())
    print(f"report hash {report.content_hash(out)[:16]}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oatdar",
        description="Model-based optoacoustic reconstruction with "
                    "diffusion-assisted enhancement. Results are "
                    "bit-reproducible at a fixed BLAS thread count: set "
                    "OPENBLAS_NUM_THREADS=1 before the process starts.")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run_dir=True):
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--set", action="append", metavar="SECTION.KEY=VAL",
                        help="override a config value (JSON-parsed)")
        if run_dir:
            sp.add_argument("--run-dir", default="runs/desk")

    sp = sub.add_parser("phantom", help="render one procedural phantom")
    common(sp, run_dir=False)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_phantom)

    sp = sub.add_parser("operator", help="build and serialize the forward "
                                         "operator")
    common(sp, run_dir=False)
    sp.add_argument("--jittered", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_operator)

    sp = sub.add_parser("simulate", help="phantom file -> noisy sinogram")
    common(sp, run_dir=False)
    sp.add_argument("--phantom", required=True)
    sp.add_argument("--snr", type=float, default=float("inf"))
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("dataset", help="build the training dataset")
    sp.add_argument("action", choices=["build"])
    common(sp)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(fn=cmd_dataset)

    sp = sub.add_parser("train", help="train one block")
    sp.add_argument("block", choices=["fdunet", "cip", "diffusion"])
    common(sp)
    sp.add_argument("--condition-on", choices=training.CONDITIONS,
                    default=training.CONDITIONS[0])
    sp.add_argument("--resume", action="store_true")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("reconstruct", help="reconstruct one sinogram file")
    sp.add_argument("method", choices=pipeline.METHODS)
    common(sp)
    sp.add_argument("--sino", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--nis", type=int, default=None)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--seed", type=_seed, default=None)
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("eval", help="score methods over the test split")
    common(sp)
    sp.add_argument("--methods", default="lbp,fdunet,dar")
    sp.add_argument("--nis", default=None, help="comma list for dar methods")
    sp.add_argument("--snr", default=None, help="comma list of re-noise SNRs")
    sp.add_argument("--split", default="test", choices=SPLITS)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("run-all", help="dataset + all trainings + eval")
    common(sp)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(fn=cmd_run_all)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        args.fn(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except PrerequisiteError as exc:
        log.error("prerequisite missing: %s", exc)
        return 3
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
