"""Numerical toolkit for associative and classical Yang-Baxter solutions.

The package builds elliptic, trigonometric and scalar solution families,
verifies their defining identities numerically, classifies scalar
solutions by the Laurent data of their lowest coefficients, and
re-derives the trigonometric families from linear algebra on a nodal
cubic curve.  ``aybe.cli`` exposes the same operations as a command line
tool.

Each module declares its public names once, in its own ``__all__``; the
package exports their union.
"""

from . import errors, tensors, special, solutions, verify, series, curve
from .errors import *
from .tensors import *
from .special import *
from .solutions import *
from .verify import *
from .series import *
from .curve import *

__version__ = "0.1.0"

__all__ = [
    name for module in (errors, tensors, special, solutions, verify, series, curve)
    for name in module.__all__
] + ["__version__"]
