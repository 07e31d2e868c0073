"""Variable-order fractional calculus on generalized Laguerre expansions.

Functions on the half line are expanded in generalized Laguerre polynomials;
fractional integrals and Caputo derivatives of the expansion follow from
recurrences on the basis, with the order free to vary with x. A spectral
collocation solver built on the same machinery handles first and second
order initial value problems with an added variable-order fractional term.
"""

from . import exprs, fractional, laguerre, solver, special
from .fractional import *  # noqa: F401,F403
from .laguerre import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403

__version__ = "0.1.0"

# public names are declared once, in each module's __all__
__all__ = [*fractional.__all__, *laguerre.__all__, *solver.__all__, *special.__all__,
           "exprs", "__version__"]
