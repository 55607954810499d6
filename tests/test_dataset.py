"""The dataset manifest round-trips and rejects malformed text with a
config error."""

import pytest

from oatdar.dataset import MANIFEST_NAME, DatasetEntry, DatasetManifest
from oatdar.errors import ConfigError


@pytest.fixture
def manifest_path(tmp_path):
    DatasetManifest(
        entries=[DatasetEntry(3, "p.oatd", "s.oatd", "l.oatd", "-", "test",
                              41, 30.5)],
        master_seed=7, config_hash="abc").write(tmp_path)
    return tmp_path / MANIFEST_NAME


def test_manifest_roundtrip(manifest_path):
    m = DatasetManifest.read(manifest_path.parent)
    assert (m.master_seed, m.config_hash) == (7, "abc")
    assert m.entries == [DatasetEntry(3, "p.oatd", "s.oatd", "l.oatd", "-",
                                      "test", 41, 30.5)]


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
    lambda t: _edit_field(t, 6, "4.1"),         # seed
    lambda t: _edit_field(t, 7, "loud"),        # snr_db
    lambda t: t.rstrip("\n") + "\textra\n",
], ids=["no-master-seed", "no-config-hash", "bad-master-seed", "bad-index",
        "bad-seed", "bad-snr", "extra-field"])
def test_malformed_manifest_is_a_config_error(manifest_path, edit):
    manifest_path.write_text(edit(manifest_path.read_text()))
    with pytest.raises(ConfigError):
        DatasetManifest.read(manifest_path.parent)
