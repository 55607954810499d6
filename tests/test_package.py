"""The package's public names."""

import oatdar


def test_every_exported_name_resolves():
    assert len(set(oatdar.__all__)) == len(oatdar.__all__)
    missing = [n for n in oatdar.__all__ if not hasattr(oatdar, n)]
    assert missing == []
