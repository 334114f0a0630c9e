"""Error/erasure exponent bounds for margin decoding on the BSC and the
AWGN channel, with finite-blocklength union bounds, an exhaustive decoding
oracle and seeded Monte Carlo simulation.

Each module's ``__all__`` is the one list of its public names; this package
re-exports them all. ``numerics``, ``binary`` and ``spherical`` load with the
package, since every command uses them. ``finite`` and ``simulate`` load on
the first use of one of their names, or of the module itself
(``eebounds.simulate``), through the module ``__getattr__`` (PEP 562), which
then binds the module's names here, so a later lookup is a plain attribute
read. ``__all__`` is the five modules' lists in order, as before, and
``from eebounds import *`` binds every name in it."""

__version__ = "0.1.0"

from . import binary, numerics, spherical
from .numerics import *  # noqa: F401,F403
from .binary import *  # noqa: F401,F403
from .spherical import *  # noqa: F401,F403

_LAZY = ("finite", "simulate")  # in __all__ order; simulate imports finite


def _load(name: str):
    """Import the lazy module ``name`` and bind its public names here."""
    from importlib import import_module

    mod = import_module(f".{name}", __name__)
    globals().update((attr, getattr(mod, attr)) for attr in mod.__all__)
    return mod


def __getattr__(attr: str):
    if attr in _LAZY:
        return _load(attr)
    if attr == "__all__":
        eager = numerics.__all__ + binary.__all__ + spherical.__all__
        globals()["__all__"] = eager + [a for name in _LAZY for a in _load(name).__all__]
        return globals()["__all__"]
    for name in _LAZY:
        if attr in _load(name).__all__:
            return globals()[attr]
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
