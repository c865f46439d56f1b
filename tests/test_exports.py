import rieszlab


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone fails here, not at
    # a user's `from rieszlab import *`
    missing = [name for name in rieszlab.__all__ if not hasattr(rieszlab, name)]
    assert missing == []
    assert len(set(rieszlab.__all__)) == len(rieszlab.__all__)
