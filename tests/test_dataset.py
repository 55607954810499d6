"""The dataset manifest round-trips and rejects malformed text, a
repeated entry index, or a manifest of another version, with a config
error; a build, also over an older run directory, stores only the
phantoms, the noisy sinograms and the manifest, each array at the path its
kind and entry index give."""

import hashlib

import pytest

from oatdar.config import load_config
from oatdar.dataset import (MANIFEST_NAME, DatasetEntry, DatasetManifest,
                            build_dataset, entry_file)
from oatdar.errors import ConfigError


@pytest.fixture
def manifest_path(tmp_path):
    DatasetManifest(entries=[DatasetEntry(3, "test", 41, 30.5)],
                    master_seed=7, config_hash="abc",
                    data_sha256="d1g").write(tmp_path)
    return tmp_path / MANIFEST_NAME


def test_manifest_roundtrip(manifest_path):
    m = DatasetManifest.read(manifest_path.parent)
    assert (m.master_seed, m.config_hash, m.data_sha256) == (7, "abc", "d1g")
    assert m.entries == [DatasetEntry(3, "test", 41, 30.5)]


def _edit_header(text, key, value):
    lines = [ln for ln in text.splitlines() if not ln.startswith(f"#{key}=")]
    if value is not None:
        lines.insert(1, f"#{key}={value}")
    return "\n".join(lines) + "\n"


def _edit_field(text, column, value):
    *head, record = text.splitlines()
    fields = record.split("\t")
    fields[column] = value
    return "\n".join([*head, "\t".join(fields)]) + "\n"


@pytest.mark.parametrize("edit", [
    lambda t: _edit_header(t, "master_seed", None),
    lambda t: _edit_header(t, "config_hash", None),
    lambda t: _edit_header(t, "master_seed", "seven"),
    lambda t: _edit_header(t, "data_sha256", None),
    lambda t: _edit_field(t, 0, "three"),       # index
    lambda t: _edit_field(t, 2, "4.1"),         # seed
    lambda t: _edit_field(t, 3, "loud"),        # snr_db
    lambda t: t.rstrip("\n") + "\textra\n",
    lambda t: t + _edit_field(t, 2, "42").splitlines()[-1] + "\n",
    lambda t: _edit_field(t, 1, "t\xe9st"),     # one Latin-1 byte
], ids=["no-master-seed", "no-config-hash", "bad-master-seed",
        "no-data-sha256", "bad-index", "bad-seed", "bad-snr", "extra-field",
        "repeated-index", "not-utf8"])
def test_malformed_manifest_is_a_config_error(manifest_path, edit):
    # Latin-1 writes every other edit's ASCII text as UTF-8 would
    manifest_path.write_bytes(
        edit(manifest_path.read_text()).encode("latin-1"))
    with pytest.raises(ConfigError):
        DatasetManifest.read(manifest_path.parent)


@pytest.mark.parametrize("edit", [
    # v1 and v2 named each entry's files; v1 also stored its LBP
    lambda t: _edit_field(t.replace("manifest v3", "manifest v1"), 0,
                          "3\tp.oatd\ts.oatd\tl.oatd\t-"),
    lambda t: _edit_field(t.replace("manifest v3", "manifest v2"), 0,
                          "3\tp.oatd\ts.oatd\t-"),
    lambda t: t.split("\n", 1)[1],
], ids=["v1", "v2", "no-version"])
def test_manifest_of_another_version_names_the_rebuild(manifest_path, edit):
    manifest_path.write_text(edit(manifest_path.read_text()))
    with pytest.raises(ConfigError, match="dataset build --force"):
        DatasetManifest.read(manifest_path.parent)


def _v2_run_directory(run):
    """The files a v2 build, its enhancer outputs and a v1 build left."""
    data = run / "dataset"
    data.mkdir(parents=True)
    (data / MANIFEST_NAME).write_text("#oatdar-manifest v2\n")
    for i in range(6):
        for stem in ("phantom", "sino", "lbp", "fdunet"):
            (data / f"{stem}_{i:05d}_0123abcd.oatd").write_bytes(b"old")


@pytest.mark.parametrize("force", [False, True], ids=["fresh", "v2-force"])
def test_build_stores_no_initial_reconstruction(tmp_path, force):
    """Every stage computes the LBP from the stored sinogram; a forced
    rebuild deletes every array an older build left, and the manifest's
    digest covers each stored byte."""
    if force:
        _v2_run_directory(tmp_path)
    cfg = load_config(None, {"profile": "desk",
                             "dataset": {"train": 2, "val": 1, "test": 1}})
    manifest = build_dataset(cfg, tmp_path, force=force)
    data = tmp_path / "dataset"
    assert sorted(f.name for f in data.iterdir()) == [
        MANIFEST_NAME, *[f"{kind}_{i:05d}.oatd"
                         for kind in ("phantom", "sinogram")
                         for i in range(4)]]
    digest = hashlib.sha256()
    for e in manifest.entries:
        for kind in ("phantom", "sinogram"):
            digest.update(entry_file(data, kind, e.index).read_bytes())
    assert manifest.data_sha256 == digest.hexdigest()
    assert DatasetManifest.read(data) == manifest


def test_build_under_another_training_config_reuses_the_dataset(tmp_path):
    """The manifest's config hash covers only the sections a build reads:
    a build under another learning rate keeps every file, and one under
    another master seed still needs ``force``."""
    def cfg(section=None, key=None, value=None):
        out = load_config(None, {"profile": "desk",
                                 "dataset": {"train": 2, "val": 0, "test": 0}})
        if section:
            out[section][key] = value
        return out

    first = build_dataset(cfg(), tmp_path)
    data = tmp_path / "dataset"
    stored = {f.name: f.read_bytes() for f in data.iterdir()}
    assert build_dataset(cfg("training", "learning_rate", 1e-3),
                         tmp_path) == first
    assert {f.name: f.read_bytes() for f in data.iterdir()} == stored
    with pytest.raises(ConfigError, match="use force"):
        build_dataset(cfg("dataset", "master_seed", 8), tmp_path)
