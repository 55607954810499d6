"""Dataset generation and the on-disk manifest.

Every entry derives all of its randomness from (master_seed, index), so
builds produce bit-identical artifacts at a fixed BLAS thread count
(``OPENBLAS_NUM_THREADS`` set before the process starts; nothing else pins
it) and re-running a build is a no-op once the manifest validates. An entry
stores its phantom and its sinogram, simulated on the jittered detector
positions. Its LBP is computed, not stored: every stage backprojects the
sinogram on the nominal positions (``operator.reconstruct_lbp``).

Every array is stored at the path its kind and entry index give,
``<kind>_<index:05d>.oatd`` (:func:`entry_file`): the build writes the
``phantom`` and ``sinogram`` arrays, ``train fdunet`` the ``fdunet`` ones.
Only the build writes the manifest: it first deletes the manifest and
every ``*.oatd``, and it writes the manifest last.

Manifest format v3: the line ``#oatdar-manifest v3`` (any other needs
``--force``), '#'-prefixed config hash (of only the sections a build reads,
``config.DATA_SECTIONS``: geometry, phantom, dataset), master seed and
``data_sha256`` (of each entry's phantom and sinogram files, in entry
order) lines, then one tab-separated line per entry, each index once:

    index  split  seed  snr_db
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .config import (DATA_SECTIONS, config_hash, geometry_from_config,
                     phantom_params_from_config)
from .errors import ConfigError, PrerequisiteError, blame
from .operator import add_noise, apply_forward, build_forward_operator
from .phantoms import generate_phantom
from .tensorfile import read_tensor, write_tensor

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.tsv"
MANIFEST_VERSION = "#oatdar-manifest v3"

SPLITS = ("train", "val", "test")   # in dataset index order
STORED = ("phantom", "sinogram")    # the kinds a build writes per entry


def entry_file(directory, kind: str, index: int) -> Path:
    """Where entry ``index``'s array of ``kind`` is stored."""
    return Path(directory) / f"{kind}_{index:05d}.oatd"


@dataclass(frozen=True)
class DatasetEntry:
    index: int
    split: str           # one of SPLITS
    seed: int
    snr_db: float


@dataclass
class DatasetManifest:
    entries: list
    master_seed: int
    config_hash: str
    data_sha256: str

    def split(self, name: str) -> list:
        return [e for e in self.entries if e.split == name]

    def write(self, directory):
        lines = [MANIFEST_VERSION, f"#config_hash={self.config_hash}",
                 f"#master_seed={self.master_seed}",
                 f"#data_sha256={self.data_sha256}"]
        lines += ["\t".join(map(str, astuple(e))) for e in self.entries]
        (Path(directory) / MANIFEST_NAME).write_text("\n".join(lines) + "\n")

    @classmethod
    def read(cls, directory) -> "DatasetManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.is_file():
            raise PrerequisiteError(f"no manifest at {path}; run 'dataset "
                                    "build' first")
        with blame(path):
            version, *lines = path.read_text("utf-8").splitlines() or [""]
        if version != MANIFEST_VERSION:
            raise ConfigError(f"{path} is not {MANIFEST_VERSION[1:]}; "
                              "rebuild it with 'dataset build --force'")
        header = dict(line[1:].split("=", 1) for line in lines
                      if line.startswith("#") and "=" in line)
        entries = {}   # by index, the key of every stored file
        for line in lines:
            if not line.strip() or line.startswith("#"):
                continue
            try:   # a wrong field count fails the unpacking
                index, split, seed, snr = line.split("\t")
                e = DatasetEntry(int(index), split, int(seed), float(snr))
            except ValueError:
                raise ConfigError(f"malformed manifest line: {line!r}") \
                    from None
            if e.index in entries:
                raise ConfigError(f"{path}: entry {e.index} appears twice")
            entries[e.index] = e
        try:
            return cls(list(entries.values()), int(header["master_seed"]),
                       header["config_hash"], header["data_sha256"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"manifest {path} has a missing or bad "
                              f"header ({exc!r})") from None

    def content_hash(self, directory) -> str:
        path = Path(directory) / MANIFEST_NAME
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def validate_files(self, directory):
        for e in self.entries:
            for kind in STORED:
                read_tensor(entry_file(directory, kind, e.index))


def reading_dataset():
    """A dataset file read in this block that is missing or corrupt, or
    that does not fit the config's geometry, raises :class:`ConfigError`
    ("dataset failed validation"), in every stage that reads the dataset as
    in the build that finds it."""
    return blame("dataset failed validation")


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


def build_dataset(cfg: dict, run_dir, force: bool = False) -> DatasetManifest:
    """Generate phantoms, simulate noisy sinograms, persist both.

    Idempotent: an existing manifest with the same config hash short-circuits
    after validating every stored file; a different hash is an error
    unless ``force``. A build first deletes the manifest and every array.
    """
    data_dir = Path(run_dir) / "dataset"
    chash = config_hash({s: cfg[s] for s in DATA_SECTIONS})
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
    for stale in [data_dir / MANIFEST_NAME, *data_dir.glob("*.oatd")]:
        stale.unlink(missing_ok=True)

    geom = geometry_from_config(cfg)
    sim_op = build_forward_operator(geom, jittered=True)
    ds = cfg["dataset"]
    master = ds["master_seed"]
    lo, hi = ds["snr_db_range"]
    entries, digest = [], hashlib.sha256()
    for index, split in enumerate(s for s in SPLITS for _ in range(ds[s])):
        ph_seed, nz_seed, snr_rng = entry_seeds(master, index)
        params = phantom_params_from_config(cfg, ph_seed)
        phantom = generate_phantom(params, geom.grid_nx, geom.grid_ny)
        snr = float(snr_rng.uniform(lo, hi))
        noisy = add_noise(apply_forward(sim_op, phantom), snr, nz_seed)
        for kind, arr in zip(STORED, (phantom.data, noisy.data)):
            path = write_tensor(entry_file(data_dir, kind, index), arr)
            digest.update(path.read_bytes())
        entries.append(DatasetEntry(index, split, ph_seed, snr))
        if (index + 1) % 250 == 0:
            log.info("dataset: %d entries done", index + 1)
    manifest = DatasetManifest(entries, master, chash, digest.hexdigest())
    manifest.write(data_dir)
    return manifest


def load_images(manifest: DatasetManifest, directory, kind: str,
                split: str | None = None, each=None) -> np.ndarray:
    """Stack one array kind of a split, each file's array mapped through
    ``each`` if given, into an (N, H, W) array; an empty split or a missing
    enhancer output raises :class:`PrerequisiteError`, and a missing,
    corrupt or misshapen stored file :class:`ConfigError`."""
    entries = manifest.entries if split is None else manifest.split(split)
    if not entries:
        raise PrerequisiteError(f"no entries in split {split!r}")
    out = []
    with reading_dataset():
        for e in entries:
            path = entry_file(directory, kind, e.index)
            if kind == "fdunet" and not path.is_file():
                raise PrerequisiteError(f"{path} is missing; run 'train "
                                        "fdunet' first")
            arr = read_tensor(path)
            out.append(arr if each is None else each(arr))
    return np.stack(out)
