"""Dataset generation and the on-disk manifest.

Every entry derives all of its randomness from (master_seed, index), so
builds produce bit-identical artifacts at a fixed BLAS thread count
(``OPENBLAS_NUM_THREADS`` set before the process starts; nothing else pins
it) and re-running a build is a no-op once the manifest validates. An entry
stores its phantom and its sinogram, simulated on the jittered detector
positions. Its LBP is computed, not stored: every stage backprojects the
sinogram on the nominal positions (``operator.reconstruct_lbp``).

Manifest format v2: the line ``#oatdar-manifest v2`` (any other needs
``--force``), '#'-prefixed config hash and master seed lines, then one
tab-separated line per entry:

    index  phantom  sinogram  fdunet(or -)  split  seed  snr_db
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .config import (config_hash, geometry_from_config,
                     phantom_params_from_config)
from .errors import (ConfigError, PrerequisiteError, ShapeError,
                     TensorFileError)
from .operator import add_noise, apply_forward, build_forward_operator
from .phantoms import generate_phantom
from .tensorfile import read_tensor, write_tensor

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.tsv"
MANIFEST_VERSION = "#oatdar-manifest v2"

SPLITS = ("train", "val", "test")   # in dataset index order


@dataclass(frozen=True)
class DatasetEntry:
    index: int
    phantom: str
    sinogram: str
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
        lines = [MANIFEST_VERSION, f"#config_hash={self.config_hash}",
                 f"#master_seed={self.master_seed}"]
        lines += ["\t".join(map(str, astuple(e))) for e in self.entries]
        path = directory / MANIFEST_NAME
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def read(cls, directory) -> "DatasetManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.is_file():
            raise PrerequisiteError(f"no manifest at {path}; run 'dataset "
                                    "build' first")
        version, *lines = path.read_text().splitlines() or [""]
        if version != MANIFEST_VERSION:
            raise ConfigError(f"{path} is not {MANIFEST_VERSION[1:]}; "
                              "rebuild it with 'dataset build --force'")
        header = dict(line[1:].split("=", 1) for line in lines
                      if line.startswith("#") and "=" in line)
        entries = []
        for line in lines:
            if not line.strip() or line.startswith("#"):
                continue
            try:   # a wrong field count fails the unpacking
                index, phantom, sino, fdunet, split, seed, snr = \
                    line.split("\t")
                entries.append(DatasetEntry(int(index), phantom, sino, fdunet,
                                            split, int(seed), float(snr)))
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
        seen = set()
        for e in self.entries:
            if e.index in seen:
                raise ConfigError(f"entry {e.index} appears twice")
            seen.add(e.index)
            for rel in (e.phantom, e.sinogram, e.fdunet):
                if rel != "-":
                    read_tensor(directory / rel)


@contextlib.contextmanager
def reading_dataset():
    """A dataset file read in this block that is missing or corrupt, or
    that does not fit the config's geometry, raises :class:`ConfigError`
    ("dataset failed validation"), in every stage that reads the dataset as
    in the build that finds it."""
    try:
        yield
    except (TensorFileError, ShapeError) as exc:
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


def _write_hashed(directory: Path, stem: str, arr: np.ndarray) -> str:
    h = hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:8]
    write_tensor(directory / f"{stem}_{h}.oatd", arr)
    return f"{stem}_{h}.oatd"


def build_dataset(cfg: dict, run_dir, force: bool = False) -> DatasetManifest:
    """Generate phantoms, simulate noisy sinograms, persist both.

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
    ds = cfg["dataset"]
    master = ds["master_seed"]
    lo, hi = ds["snr_db_range"]
    entries = []
    for index, split in enumerate(s for s in SPLITS for _ in range(ds[s])):
        ph_seed, nz_seed, snr_rng = entry_seeds(master, index)
        params = phantom_params_from_config(cfg, ph_seed)
        phantom = generate_phantom(params, geom.grid_nx, geom.grid_ny)
        sino = apply_forward(sim_op, phantom)
        snr = float(snr_rng.uniform(lo, hi))
        noisy = add_noise(sino, snr, nz_seed)
        entries.append(DatasetEntry(
            index=index,
            phantom=_write_hashed(data_dir, f"phantom_{index:05d}",
                                  phantom.data),
            sinogram=_write_hashed(data_dir, f"sino_{index:05d}", noisy.data),
            fdunet="-", split=split, seed=ph_seed, snr_db=snr))
        if (index + 1) % 250 == 0:
            log.info("dataset: %d entries done", index + 1)
    manifest = DatasetManifest(entries=entries, master_seed=master,
                               config_hash=chash)
    manifest.write(data_dir)
    return manifest


def load_images(manifest: DatasetManifest, directory, field: str,
                split: str | None = None, each=None) -> np.ndarray:
    """Stack one artifact kind of a split, each file's array mapped through
    ``each`` if given, into an (N, H, W) array; an empty split or a missing
    output raises :class:`PrerequisiteError`, and a missing, corrupt or
    misshapen file :class:`ConfigError`."""
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
            arr = read_tensor(directory / rel)
            out.append(arr if each is None else each(arr))
    return np.stack(out)


def attach_fdunet_outputs(manifest: DatasetManifest, directory,
                          outputs: np.ndarray) -> DatasetManifest:
    """Persist enhancement outputs for every entry and rewrite the manifest."""
    directory = Path(directory)
    if outputs.shape[0] != len(manifest.entries):
        raise ConfigError("one enhancement output per entry required")
    manifest = replace(manifest, entries=[
        replace(e, fdunet=_write_hashed(directory, f"fdunet_{e.index:05d}",
                                        arr.astype(np.float32)))
        for e, arr in zip(manifest.entries, outputs)])
    manifest.write(directory)
    return manifest
