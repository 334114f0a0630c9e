"""Error/erasure exponent bounds for margin decoding on the BSC and the
AWGN channel, with finite-blocklength union bounds, an exhaustive decoding
oracle and seeded Monte Carlo simulation.

Each module's ``__all__`` is the one list of its public names; this package
re-exports them all."""

__version__ = "0.1.0"

from . import binary, finite, numerics, simulate, spherical
from .numerics import *  # noqa: F401,F403
from .binary import *  # noqa: F401,F403
from .spherical import *  # noqa: F401,F403
from .finite import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__all__ = numerics.__all__ + binary.__all__ + spherical.__all__ + finite.__all__ + simulate.__all__
