"""The dataset manifest round-trips and rejects malformed text, or a
manifest of another version, with a config error; a build stores only the
phantoms, the noisy sinograms and the manifest."""

import pytest

from oatdar.config import load_config
from oatdar.dataset import (MANIFEST_NAME, DatasetEntry, DatasetManifest,
                            build_dataset)
from oatdar.errors import ConfigError


@pytest.fixture
def manifest_path(tmp_path):
    DatasetManifest(
        entries=[DatasetEntry(3, "p.oatd", "s.oatd", "-", "test", 41,
                              30.5)],
        master_seed=7, config_hash="abc").write(tmp_path)
    return tmp_path / MANIFEST_NAME


def test_manifest_roundtrip(manifest_path):
    m = DatasetManifest.read(manifest_path.parent)
    assert (m.master_seed, m.config_hash) == (7, "abc")
    assert m.entries == [DatasetEntry(3, "p.oatd", "s.oatd", "-", "test",
                                      41, 30.5)]


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
    lambda t: _edit_field(t, 0, "three"),       # index
    lambda t: _edit_field(t, 5, "4.1"),         # seed
    lambda t: _edit_field(t, 6, "loud"),        # snr_db
    lambda t: t.rstrip("\n") + "\textra\n",
], ids=["no-master-seed", "no-config-hash", "bad-master-seed", "bad-index",
        "bad-seed", "bad-snr", "extra-field"])
def test_malformed_manifest_is_a_config_error(manifest_path, edit):
    manifest_path.write_text(edit(manifest_path.read_text()))
    with pytest.raises(ConfigError):
        DatasetManifest.read(manifest_path.parent)


@pytest.mark.parametrize("edit", [
    # v1 also stored each entry's LBP, after its sinogram
    lambda t: _edit_field(t.replace("manifest v2", "manifest v1"), 2,
                          "s.oatd\tl.oatd"),
    lambda t: t.split("\n", 1)[1],
], ids=["v1", "no-version"])
def test_manifest_of_another_version_names_the_rebuild(manifest_path, edit):
    manifest_path.write_text(edit(manifest_path.read_text()))
    with pytest.raises(ConfigError, match="dataset build --force"):
        DatasetManifest.read(manifest_path.parent)


def test_build_stores_no_initial_reconstruction(tmp_path):
    """Every stage computes the LBP from the stored sinogram."""
    cfg = load_config(None, {"profile": "desk",
                             "dataset": {"train": 2, "val": 1, "test": 1}})
    build_dataset(cfg, tmp_path)
    names = sorted(f.name for f in (tmp_path / "dataset").iterdir())
    assert [n.split("_")[0] for n in names] == [
        "manifest.tsv", *["phantom"] * 4, *["sino"] * 4]
