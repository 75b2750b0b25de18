import mwwdr


def test_all_names_resolve():
    assert [name for name in mwwdr.__all__ if not hasattr(mwwdr, name)] == []
