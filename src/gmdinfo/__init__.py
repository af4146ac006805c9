"""Gini-mean-difference information measures.

Exact population values for parametric models (adaptive quadrature in
both the x- and quantile domains), order-statistic and probability-
weighted-moment estimators for data samples, and a registry of the
algebraic identities tying the measures together, each verified through
two independent computational routes.

Every measure is one entry of :data:`MEASURE_IDS`, evaluated by
:func:`measure_sample` and :func:`measure_population`.  The package
exports each module's own ``__all__``; a name is declared only there.
"""

from . import empirical, errors, identities, measures, models, population, pwm, quadrature
from .empirical import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .population import *  # noqa: F401,F403
from .pwm import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, empirical, models, pwm, measures, population, identities, quadrature)
    for name in module.__all__
]
