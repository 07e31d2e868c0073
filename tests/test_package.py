"""The package namespace is the union of the modules' public names."""

import sys

import lagfrac
from lagfrac import fractional, laguerre, solver, special

MODULES = (fractional, laguerre, solver, special)


def test_all_is_the_union_of_the_module_lists():
    names = lagfrac.__all__
    assert len(names) == len(set(names))
    expected = {name for module in MODULES for name in module.__all__}
    assert set(names) == expected | {"exprs", "__version__"}


def test_each_public_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lagfrac, name) is getattr(module, name), name
    assert lagfrac.exprs is sys.modules["lagfrac.exprs"]
    assert not set(lagfrac.exprs.__all__) & set(lagfrac.__all__)
