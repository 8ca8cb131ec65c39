"""The package's public surface: every exported name exists."""

import eaqec


def test_all_names_resolve_and_star_import_succeeds():
    missing = [name for name in eaqec.__all__ if not hasattr(eaqec, name)]
    assert missing == []
    assert len(set(eaqec.__all__)) == len(eaqec.__all__)
    namespace = {}
    exec("from eaqec import *", namespace)
    assert set(eaqec.__all__) <= namespace.keys()
