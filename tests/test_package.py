import memdiff


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from memdiff import *", namespace)
    assert set(memdiff.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(memdiff.__all__) == len(set(memdiff.__all__))
