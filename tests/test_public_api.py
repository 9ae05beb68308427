"""The package's public list: every name in ``sortlab.__all__`` exists,
and none is listed twice."""

from __future__ import annotations

import sortlab


def test_star_import_binds_every_public_name_once():
    namespace: dict = {}
    exec("from sortlab import *", namespace)  # raises AttributeError on a stale entry
    assert len(set(sortlab.__all__)) == len(sortlab.__all__)
    assert set(sortlab.__all__) <= namespace.keys()
