"""Limit cycles of the periodically forced saturated scalar equation

    x' = a*x + (b - a)*sat(x) + mu*sin(t),

with exact per-zone flows, Poincare-map analysis, the three-zonal
crossing-time system, and the closed-form first-order averaging
(Melnikov) bifurcation diagram.

Each public name is declared once, in its module's ``__all__``; the
package namespace is the union of those lists.
"""

__version__ = "0.1.0"

from . import crossings, errors, exactflow, melnikov, model, poincare
from .model import *  # noqa: F403
from .exactflow import *  # noqa: F403
from .poincare import *  # noqa: F403
from .crossings import *  # noqa: F403
from .melnikov import *  # noqa: F403
from .errors import *  # noqa: F403

__all__ = ["__version__", *model.__all__, *exactflow.__all__, *poincare.__all__,
           *crossings.__all__, *melnikov.__all__, *errors.__all__]
