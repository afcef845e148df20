import shatterlab


def test_every_export_resolves():
    missing = [name for name in shatterlab.__all__ if not hasattr(shatterlab, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(shatterlab.__all__)) == len(shatterlab.__all__)
