"""Stochastic characteristics for scalar conservation laws.

Solve u_t + sum_i a_i(t, u) u_{x_i} = 0 three ways that cross-check
each other: explicit Gaussian-kernel quadrature of the noise-smoothed
representation, classical characteristics (implicit relation, exact
gradients, blow-up detection), and Monte Carlo particles.  A balance
module verifies the moment-system identities the smoothed fields
satisfy, including the covariance sources that survive past blow-up.
"""

# each module's __all__ is what the package re-exports, in this order
from . import (errors, expr, problem, representation, characteristics, montecarlo,
               balance)
from .errors import *
from .expr import *
from .problem import *
from .representation import *
from .characteristics import *
from .montecarlo import *
from .balance import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for module in (
    errors, expr, problem, representation, characteristics, montecarlo, balance)
    for name in module.__all__]
