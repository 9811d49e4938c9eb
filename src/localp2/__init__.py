"""Desk-scale mirror correspondence for the canonical line bundle over P^2.

Subpackages:
  cohomology       exact K-theory bases, pairings and central charges
  specfun          hypergeometric and elliptic special-function kernel
  picard_fuchs     series, Mellin-Barnes continuation, monodromy transport
  mirror_geometry  vanishing-cycle periods
  mirror_map       pinned transfer matrix, its fit, mirror object identification
  cli              command-line front end
"""

from . import cohomology, errors, mirror_geometry, mirror_map, picard_fuchs, specfun

__version__ = "0.1.0"

__all__ = [
    "cohomology",
    "errors",
    "mirror_geometry",
    "mirror_map",
    "picard_fuchs",
    "specfun",
    "__version__",
]
