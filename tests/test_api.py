"""The package's public names."""

import foxabf


def test_every_exported_name_resolves():
    missing = [name for name in foxabf.__all__ if not hasattr(foxabf, name)]
    assert missing == []
    assert len(set(foxabf.__all__)) == len(foxabf.__all__)
