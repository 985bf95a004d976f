"""The package's public names."""

import plint


def test_every_exported_name_resolves():
    # a rename inside the package must not leave a dangling export
    assert len(set(plint.__all__)) == len(plint.__all__)
    missing = [name for name in plint.__all__ if not hasattr(plint, name)]
    assert missing == []
