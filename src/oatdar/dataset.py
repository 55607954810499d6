"""Dataset generation and the on-disk manifest.

Every entry derives all of its randomness from (master_seed, index), so
builds produce bit-identical artifacts at a fixed BLAS thread count
(``OPENBLAS_NUM_THREADS`` set before the process starts; nothing else pins
it) and re-running a build is a no-op once the manifest validates. Simulation uses the jittered detector positions while
the stored backprojection uses nominal ones — the reconstruction operator
never sees the true detector placement.

Manifest format: line-oriented text. '#'-prefixed header lines carry the
config hash and master seed; each record line is tab-separated:

    index  phantom  sinogram  lbp  fdunet(or -)  split  seed  snr_db
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (config_hash, geometry_from_config,
                     phantom_params_from_config)
from .errors import ConfigError, PrerequisiteError, TensorFileError
from .operator import add_noise, apply_adjoint, apply_forward, \
    build_forward_operator
from .phantoms import generate_phantom
from .tensorfile import read_tensor, write_tensor

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.tsv"

SPLITS = ("train", "val", "test")   # in dataset index order


@dataclass(frozen=True)
class DatasetEntry:
    index: int
    phantom: str
    sinogram: str
    lbp: str
    fdunet: str          # "-" until the enhancement stage fills it in
    split: str           # one of SPLITS
    seed: int
    snr_db: float


@dataclass
class DatasetManifest:
    entries: list
    master_seed: int
    config_hash: str

    def split(self, name: str) -> list:
        return [e for e in self.entries if e.split == name]

    def write(self, directory) -> Path:
        directory = Path(directory)
        lines = ["#oatdar-manifest v1",
                 f"#config_hash={self.config_hash}",
                 f"#master_seed={self.master_seed}"]
        for e in self.entries:
            lines.append("\t".join([
                str(e.index), e.phantom, e.sinogram, e.lbp, e.fdunet,
                e.split, str(e.seed), repr(e.snr_db)]))
        path = directory / MANIFEST_NAME
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def read(cls, directory) -> "DatasetManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.is_file():
            raise ConfigError(f"no manifest at {path}")
        header = {}
        entries = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                if "=" in line:
                    k, v = line[1:].split("=", 1)
                    header[k] = v
                continue
            try:   # a wrong field count fails the unpacking
                index, phantom, sino, lbp, fdunet, split, seed, snr = \
                    line.split("\t")
                entries.append(DatasetEntry(int(index), phantom, sino, lbp,
                                            fdunet, split, int(seed),
                                            float(snr)))
            except ValueError:
                raise ConfigError(f"malformed manifest line: {line!r}") \
                    from None
        try:
            return cls(entries=entries, master_seed=int(header["master_seed"]),
                       config_hash=header["config_hash"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"manifest {path} needs #master_seed=<int> and "
                              f"#config_hash= headers ({exc!r})") from None

    def content_hash(self, directory) -> str:
        path = Path(directory) / MANIFEST_NAME
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def validate_files(self, directory):
        directory = Path(directory)
        seen_splits = {}
        for e in self.entries:
            if e.index in seen_splits:
                raise ConfigError(f"entry {e.index} appears twice")
            seen_splits[e.index] = e.split
            for rel in (e.phantom, e.sinogram, e.lbp, e.fdunet):
                if rel == "-":
                    continue
                read_tensor(directory / rel)


@contextlib.contextmanager
def reading_dataset():
    """A dataset file read in this block that is missing or corrupt raises
    :class:`ConfigError` ("dataset failed validation"), in every stage that
    reads the dataset as in the build that finds it."""
    try:
        yield
    except TensorFileError as exc:
        raise ConfigError(f"dataset failed validation: {exc}") from exc


def derive_seed(*keys) -> int:
    """The one rule that turns integer keys into a seed: the first word
    ``np.random.SeedSequence(keys)`` generates."""
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def entry_seeds(master_seed: int, index: int):
    """(phantom_seed, noise_seed, snr_rng) for one dataset entry."""
    ph = derive_seed(master_seed, index, 0)
    nz = derive_seed(master_seed, index, 1)
    snr_rng = np.random.default_rng(np.random.SeedSequence((master_seed, index, 2)))
    return ph, nz, snr_rng


def _hashed_name(stem: str, arr: np.ndarray) -> str:
    h = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:8]
    return f"{stem}_{h}.oatd"


def build_dataset(cfg: dict, run_dir, force: bool = False) -> DatasetManifest:
    """Generate phantoms, simulate noisy sinograms, backproject, persist.

    Idempotent: an existing manifest with the same config hash short-circuits
    after validating every referenced file; a different hash is an error
    unless ``force``.
    """
    run_dir = Path(run_dir)
    data_dir = run_dir / "dataset"
    chash = config_hash(cfg)
    if (data_dir / MANIFEST_NAME).is_file() and not force:
        manifest = DatasetManifest.read(data_dir)
        if manifest.config_hash != chash:
            raise ConfigError(
                f"existing dataset was built with config {manifest.config_hash},"
                f" current is {chash}; use force to rebuild")
        with reading_dataset():
            manifest.validate_files(data_dir)
        log.info("dataset already built (%d entries), skipping",
                 len(manifest.entries))
        return manifest
    data_dir.mkdir(parents=True, exist_ok=True)

    geom = geometry_from_config(cfg)
    sim_op = build_forward_operator(geom, jittered=True)
    rec_op = build_forward_operator(geom, jittered=False)
    ds = cfg["dataset"]
    master = ds["master_seed"]
    lo, hi = ds["snr_db_range"]
    entries = []
    index = 0
    for split in SPLITS:
        for _ in range(ds[split]):
            ph_seed, nz_seed, snr_rng = entry_seeds(master, index)
            params = phantom_params_from_config(cfg, ph_seed)
            phantom = generate_phantom(params, geom.grid_nx, geom.grid_ny)
            sino = apply_forward(sim_op, phantom)
            snr = float(snr_rng.uniform(lo, hi))
            noisy = add_noise(sino, snr, nz_seed)
            lbp = apply_adjoint(rec_op, noisy)
            names = {}
            for stem, arr in (("phantom", phantom.data),
                              ("sino", noisy.data), ("lbp", lbp.data)):
                name = _hashed_name(f"{stem}_{index:05d}", arr)
                write_tensor(data_dir / name, arr)
                names[stem] = name
            entries.append(DatasetEntry(
                index=index, phantom=names["phantom"], sinogram=names["sino"],
                lbp=names["lbp"], fdunet="-", split=split, seed=ph_seed,
                snr_db=snr))
            index += 1
            if index % 250 == 0:
                log.info("dataset: %d entries done", index)
    manifest = DatasetManifest(entries=entries, master_seed=master,
                               config_hash=chash)
    manifest.write(data_dir)
    return manifest


def load_images(manifest: DatasetManifest, directory, field: str,
                split: str | None = None) -> np.ndarray:
    """Stack one artifact kind for a split into an (N, H, W) float array;
    an empty split or a missing output raises :class:`PrerequisiteError`,
    and a missing or corrupt file :class:`ConfigError`."""
    directory = Path(directory)
    entries = manifest.entries if split is None else manifest.split(split)
    if not entries:
        raise PrerequisiteError(f"no entries in split {split!r}")
    out = []
    with reading_dataset():
        for e in entries:
            rel = getattr(e, field)
            if rel == "-":  # only the enhancer output starts out empty
                raise PrerequisiteError(
                    f"entry {e.index} has no {field} output yet; run "
                    "'train fdunet' first")
            out.append(read_tensor(directory / rel))
    return np.stack(out)


def attach_fdunet_outputs(manifest: DatasetManifest, directory,
                          outputs: np.ndarray) -> DatasetManifest:
    """Persist enhancement outputs for every entry and rewrite the manifest."""
    directory = Path(directory)
    if outputs.shape[0] != len(manifest.entries):
        raise ConfigError("one enhancement output per entry required")
    new_entries = []
    for e, arr in zip(manifest.entries, outputs):
        name = _hashed_name(f"fdunet_{e.index:05d}", arr)
        write_tensor(directory / name, arr.astype(np.float32))
        new_entries.append(replace(e, fdunet=name))
    manifest = DatasetManifest(entries=new_entries,
                               master_seed=manifest.master_seed,
                               config_hash=manifest.config_hash)
    manifest.write(directory)
    return manifest
