import pimac


def test_all_names_resolve_once_and_star_import_works():
    assert len(pimac.__all__) == len(set(pimac.__all__))
    assert [name for name in pimac.__all__ if not hasattr(pimac, name)] == []
    namespace = {}
    exec("from pimac import *", namespace)
    assert set(pimac.__all__) <= set(namespace)
