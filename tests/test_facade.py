"""The package namespace re-exports each module's ``__all__``, and nothing
else: the modules' lists are the one declaration of the public API."""

import inspect

import eebounds
from eebounds import binary, finite, numerics, simulate, spherical

MODULES = (numerics, binary, spherical, finite, simulate)


def test_all_is_the_modules_lists():
    assert eebounds.__all__ == [name for mod in MODULES for name in mod.__all__]
    assert len(set(eebounds.__all__)) == len(eebounds.__all__)


def test_every_name_is_its_modules_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(eebounds, name) is getattr(mod, name), (mod.__name__, name)
    assert eebounds.delta_gv is binary.delta_gv


def test_awgn_union_bound_has_no_node_count_parameter():
    assert "quad_points" not in inspect.signature(finite.awgn_union_bound).parameters
