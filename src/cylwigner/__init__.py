"""Phase-space toolkit for the planar rotator.

Quasi-probability (Wigner-type) functions on the cylinder spanned by an
angle and a continuous angular momentum, with exact momentum-direction
integral reduction, both marginals, probability extraction, overlap and
expectation pairings, density-matrix reconstruction, diagonal-time
evolution, and thermal states.

The public names are those each module lists in its ``__all__``.
"""

__version__ = "0.1.0"

from . import dynamics, specfun, states, thermal, wigner
from .dynamics import *  # noqa: F403
from .specfun import *  # noqa: F403
from .states import *  # noqa: F403
from .thermal import *  # noqa: F403
from .wigner import *  # noqa: F403

__all__ = specfun.__all__ + states.__all__ + wigner.__all__ + dynamics.__all__ + thermal.__all__
