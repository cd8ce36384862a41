"""Every name the package exports resolves, so a star import works.

A name left in __all__ after its definition is deleted breaks
`from fqdyn import *` for every user, not just those who use the name.
"""

from __future__ import annotations

import fqdyn


def test_every_exported_name_resolves():
    assert [name for name in fqdyn.__all__ if not hasattr(fqdyn, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from fqdyn import *", namespace)
    assert set(fqdyn.__all__) <= namespace.keys()
