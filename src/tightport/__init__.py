"""Unitary operator bases and tight teleportation / dense-coding schemes.

Five kinds of objects, each constructible from any of the others, live
here: unitary operator bases, orthonormal bases of maximally entangled
vectors, unitary depolarizing families, tight teleportation schemes, and
tight dense-coding schemes.  The package builds them from Latin squares
and complex Hadamard matrices, converts between them, and numerically
verifies every defining identity.  ``import tightport`` gives exactly the
names each module lists in ``__all__``, and no others.
"""

from .common import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403
from .designs import *  # noqa: F401,F403
from .bases import *  # noqa: F401,F403
from .schemes import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403

__version__ = "0.1.0"
