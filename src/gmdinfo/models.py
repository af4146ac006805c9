"""Parametric distribution families with closed-form F, survival, quantile.

Four non-negative families are provided: uniform, Weibull, its shape-1
case the exponential, and Pareto.  Each exposes exactly what the
population-side machinery needs — ``cdf``/``sf``/``quantile``/``mean``/
``median``, the ``unit`` its quantile integrals are measured in, the
support, the tail index governing which moments exist and ``tail_map``,
the quantile in the hazard variable y = -log S, that every tail piece
runs in — plus inverse-transform sampling for Monte Carlo work.  The
distribution methods accept scalars or arrays.
"""

import math

import numpy as np

from .errors import BadParameterError, NonFiniteError, UnsupportedSpecError

__all__ = [
    "ParametricModel",
    "Uniform",
    "Exponential",
    "Weibull",
    "Pareto",
    "make_model",
    "MODEL_FAMILIES",
]


def _margin(model, degree: float, vpow: float, pwm=()) -> float:
    """The margin 1 + vpow - degree/tail_index: at or below 0, E[X^degree] or M_pwm is refused."""
    margin = 1.0 + vpow - degree / model.tail_index
    if not margin > 0.0:
        name = "M_{%s,%s,%s}" % pwm if pwm else f"E[X^{degree:g}]"
        raise UnsupportedSpecError(f"{name} does not exist for {model.describe()}")
    return margin


def _show(value: float) -> str:
    """value with :g where that reads back as the same float, else its repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} must be finite")
    if value <= 0:
        raise BadParameterError(f"{name} must be positive, got {value}")
    return value


class ParametricModel:
    """Base class: a named family on [0, inf) with an invertible CDF.

    Attributes
    ----------
    support : (float, float)
        Closure of {x : 0 < F(x) < 1}; the upper end may be ``inf``.
    tail_index : float
        sup{q : E[X^q] < inf}; ``inf`` for light tails.  Lets callers
        refuse moment integrals that do not exist.
    """

    support = (0.0, math.inf)
    tail_index = math.inf

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        """Survival function 1 - F(x), computed without cancellation."""
        raise NotImplementedError

    def quantile(self, u):
        """Inverse CDF; u may touch 0 or 1 only where Q stays finite."""
        raise NotImplementedError

    def tail_map(self, y):
        """(log x, d log x/dy) at x = Q(1 - e^-y), in closed form from y = -log S itself.

        Both population routes run a tail piece in this hazard variable, so
        no 1 - u is formed and neither S nor x need be representable.
        """
        raise NotImplementedError

    def unit(self) -> float:
        """A positive closed-form scale (mean, scale parameter or upper end), the unit of Q."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def median(self) -> float:
        """The closed-form median, so the x-domain routes can split there without Q."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def sample(self, n: int, rng: "np.random.Generator") -> np.ndarray:
        """n inverse-transform draws using the supplied generator."""
        return np.asarray(self.quantile(rng.random(n)), dtype=float)

    def __repr__(self):
        return self.describe()


class Uniform(ParametricModel):
    """Uniform on [a, b], a >= 0."""

    def __init__(self, a: float = 0.0, b: float = 1.0):
        a = float(a)
        b = float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteError("uniform endpoints must be finite")
        if a < 0:
            raise BadParameterError("uniform lower endpoint must be >= 0")
        if b <= a:
            raise BadParameterError("uniform needs b > a")
        self.a = a
        self.b = b
        self.support = (a, b)

    def cdf(self, x):
        # x + (0 - a), not x - a: the same float, but +0.0 at x = -0.0 and a = 0
        return np.clip((np.asarray(x, dtype=float) + (0.0 - self.a)) / (self.b - self.a), 0.0, 1.0)

    def sf(self, x):
        return np.clip((self.b - np.asarray(x, dtype=float)) / (self.b - self.a), 0.0, 1.0)

    def quantile(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)

    def tail_map(self, y):
        drop = (self.b - self.a) * np.exp(-y)
        x = self.b - drop
        return np.log(x), drop / x

    def unit(self) -> float:
        return self.b

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def median(self) -> float:
        return self.a + (self.b - self.a) * 0.5

    def describe(self) -> str:
        return f"uniform(a={_show(self.a)}, b={_show(self.b)})"


class Weibull(ParametricModel):
    """Weibull with shape kappa and scale lam: sf(x) = exp(-(x/lam)^kappa)."""

    def __init__(self, shape: float, scale: float = 1.0):
        self.kappa = _check_positive("weibull shape", shape)
        self.lam = _check_positive("weibull scale", scale)

    def _hazard(self, x):
        """-log S = (max(x, 0)/lam)^kappa, 0 everywhere below the support."""
        return (np.maximum(np.asarray(x, dtype=float), 0.0) / self.lam) ** self.kappa

    def cdf(self, x):
        # 0.0 - ...: -0.0 may come out of np.maximum, and F(-0.0) is +0.0
        return 0.0 - np.expm1(-self._hazard(x))

    def sf(self, x):
        return np.exp(-self._hazard(x))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.lam * (-np.log1p(-u)) ** (1.0 / self.kappa)

    def tail_map(self, y):
        return math.log(self.lam) + np.log(y) / self.kappa, (1.0 / self.kappa) / y

    def unit(self) -> float:
        return self.lam

    def mean(self) -> float:
        return self.lam * math.gamma(1.0 + 1.0 / self.kappa)

    def median(self) -> float:
        return self.lam * math.log(2.0) ** (1.0 / self.kappa)

    def describe(self) -> str:
        return f"weibull(shape={_show(self.kappa)}, scale={_show(self.lam)})"


class Exponential(Weibull):
    """Exponential with mean mu (rate 1/mu): the Weibull of shape 1 and scale mu."""

    def __init__(self, mean: float = 1.0):
        self.mu = _check_positive("exponential mean", mean)
        super().__init__(1.0, self.mu)

    def describe(self) -> str:
        return f"exponential(mean={_show(self.mu)})"


class Pareto(ParametricModel):
    """Pareto with sf(x) = (sigma/x)^a on [sigma, inf).

    Shape must exceed 2 so that the second-moment (weighted) measures
    exist; the tail index equals the shape.
    """

    def __init__(self, shape: float, scale: float = 1.0):
        shape = float(shape)
        if not math.isfinite(shape):
            raise NonFiniteError("pareto shape must be finite")
        if shape <= 2:
            raise BadParameterError("pareto shape must exceed 2")
        self.a = shape
        self.sigma = _check_positive("pareto scale", scale)
        self.support = (self.sigma, math.inf)
        self.tail_index = self.a

    def _survival(self, x):
        """(sigma/max(x, sigma))^a, 1 everywhere below the support."""
        return (self.sigma / np.maximum(np.asarray(x, dtype=float), self.sigma)) ** self.a

    def cdf(self, x):
        return 1.0 - self._survival(x)

    def sf(self, x):
        return self._survival(x)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.sigma * (1.0 - u) ** (-1.0 / self.a)

    def tail_map(self, y):
        return math.log(self.sigma) + y / self.a, 1.0 / self.a

    def unit(self) -> float:
        return self.sigma

    def mean(self) -> float:
        return self.a * self.sigma / (self.a - 1.0)

    def median(self) -> float:
        return self.sigma * 2.0 ** (1.0 / self.a)

    def describe(self) -> str:
        return f"pareto(shape={_show(self.a)}, scale={_show(self.sigma)})"


MODEL_FAMILIES = ("uniform", "exponential", "weibull", "pareto")
_FAMILY_CLASSES = {"uniform": Uniform, "exponential": Exponential, "exp": Exponential,
                   "weibull": Weibull, "pareto": Pareto}


def make_model(family: str, **params) -> ParametricModel:
    """Build a model from a family token and keyword parameters.

    Accepted tokens: ``uniform`` (a, b), ``exponential``/``exp`` (mean),
    ``weibull`` (shape, scale), ``pareto`` (shape, scale).
    """
    family = family.lower()
    if family not in _FAMILY_CLASSES:
        raise BadParameterError(f"unknown family {family!r}; expected one of {MODEL_FAMILIES}")
    try:
        return _FAMILY_CLASSES[family](**params)
    except TypeError as exc:
        raise BadParameterError(f"bad parameters for {family}: {exc}") from None
