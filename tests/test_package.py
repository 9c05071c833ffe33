"""The package's public surface."""

import xmal


def test_every_export_resolves():
    assert [name for name in xmal.__all__ if not hasattr(xmal, name)] == []
    assert len(set(xmal.__all__)) == len(xmal.__all__)
