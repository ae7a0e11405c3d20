"""Numerical laboratory for the porous medium equation with nonlocal pressure.

The density flow u_t = div(u^(m-1) grad (-Delta)^(-s) u) for m > 1 and
0 < s < 1 on a truncated periodic box, together with its regularized
approximation chain, the integrated one-dimensional form solved as a
monotone scheme, the self-similar exponent algebra with profile
transformations to the fractional porous medium equation, and diagnostics
that turn the flow's structural properties (conservation, monotone norms,
smoothing exponents, propagation speed, rescaled-family convergence) into
pass/fail checks.

Every name a library module lists in its ``__all__`` is importable from
``nlpme``; that list is the one declaration of the public API.
"""

from .grid import *
from .evolve import *
from .integrated import *
from .operators import *
from .similarity import *
from .diagnostics import *

__version__ = "0.1.0"
