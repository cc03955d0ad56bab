"""Gaussian location distributions and the ``Prob(l, sigma, p, delta)`` kernel.

Section 3.1 models the true location of a mobile object at a snapshot as a
bivariate normal ``N((l_x, l_y), sigma^2 I)`` -- independent axes with equal
variance, ``sigma = U / c`` where ``U`` is the tolerable uncertainty distance
and ``c`` a confidence constant.  Section 3.3 then needs, for every pattern
position ``p``, the probability that the true location falls within the
indifference distance ``delta`` of ``p``.

The paper leaves the shape of the "within delta" region implicit.  We
implement both natural readings and make the choice explicit:

* **box** (default): ``|X - p_x| <= delta`` and ``|Y - p_y| <= delta``.
  Axis-separable, so it is a product of two normal-CDF differences -- cheap,
  and consistent with the grid discretisation (a cell is itself a box).
* **disk**: Euclidean ``||(X, Y) - p|| <= delta``.  With equal axis variance
  the squared distance is ``sigma^2`` times a noncentral chi-square with two
  degrees of freedom, so the disk probability is an ``ncx2`` CDF.

The two agree up to a constant factor (a disk inscribed in the box) and the
ablation benchmark A3 confirms the mined pattern ranking is insensitive to
the choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.uncertainty.logspace import safe_log

_SQRT2 = np.sqrt(2.0)


class ProbModel(enum.Enum):
    """Geometry of the "within ``delta``" region in ``Prob(l, sigma, p, delta)``."""

    BOX = "box"
    DISK = "disk"


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, vectorised via ``erf``."""
    # Imported here, not at module scope: scipy.special adds ~26 MiB and
    # ~0.3 s to every process that imports the engine, and only this
    # reference path needs it (the compiled kernels use libm ``erf``).
    from scipy import special

    return 0.5 * (1.0 + special.erf(z / _SQRT2))


def _interval_prob(mean: np.ndarray, sigma: np.ndarray, center: np.ndarray, delta: float) -> np.ndarray:
    """P(|X - center| <= delta) for ``X ~ N(mean, sigma^2)``, elementwise."""
    lo = (center - delta - mean) / sigma
    hi = _normal_cdf((center + delta - mean) / sigma)
    # In place: one pair-sized array fewer while the second CDF runs.
    hi -= _normal_cdf(lo)
    return hi


def prob_within_box(
    mean: np.ndarray,
    sigma: np.ndarray,
    center: np.ndarray,
    delta: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Box-semantics ``Prob``: both axes within ``delta`` of ``center``.

    Parameters
    ----------
    mean:
        Snapshot means, array broadcastable to ``(..., 2)``.
    sigma:
        Per-snapshot standard deviation, broadcastable to ``(...)``.
    center:
        Query positions, broadcastable to ``(..., 2)``.
    delta:
        Indifference distance (half-width of the box).
    out:
        Optional preallocated result array (the engine's chunked index
        build writes each chunk straight into its slice of the full
        probability array).
    """
    mean = np.asarray(mean, dtype=float)
    center = np.asarray(center, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    _validate(sigma, delta)
    px = _interval_prob(mean[..., 0], sigma, center[..., 0], delta)
    py = _interval_prob(mean[..., 1], sigma, center[..., 1], delta)
    if out is not None:
        return np.multiply(px, py, out=out)
    return px * py


def prob_within_disk(
    mean: np.ndarray,
    sigma: np.ndarray,
    center: np.ndarray,
    delta: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Disk-semantics ``Prob``: Euclidean distance to ``center`` at most ``delta``.

    For ``(X, Y) ~ N(mean, sigma^2 I)`` the squared distance to ``center``
    divided by ``sigma^2`` follows a noncentral chi-square distribution with
    2 degrees of freedom and noncentrality ``||mean - center||^2 / sigma^2``.
    """
    # scipy.stats costs ~45 MiB of resident memory to import; only the
    # non-default disk model needs it, so keep it off the module import
    # path (the mine/serve process floor matters for out-of-core runs).
    from scipy import stats

    mean = np.asarray(mean, dtype=float)
    center = np.asarray(center, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    _validate(sigma, delta)
    d2 = np.sum((mean - center) ** 2, axis=-1)
    nc = d2 / sigma**2
    q = (delta / sigma) ** 2
    result = stats.ncx2.cdf(q, df=2, nc=nc)
    if out is not None:
        out[...] = result
        return out
    return result


def prob_within(
    mean: np.ndarray,
    sigma: np.ndarray,
    center: np.ndarray,
    delta: float,
    model: ProbModel = ProbModel.BOX,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``Prob(l, sigma, p, delta)`` under the selected geometry."""
    if model is ProbModel.BOX:
        return prob_within_box(mean, sigma, center, delta, out=out)
    if model is ProbModel.DISK:
        return prob_within_disk(mean, sigma, center, delta, out=out)
    raise ValueError(f"unknown probability model: {model!r}")


def log_prob_within(
    mean: np.ndarray,
    sigma: np.ndarray,
    center: np.ndarray,
    delta: float,
    model: ProbModel = ProbModel.BOX,
) -> np.ndarray:
    """``log Prob(l, sigma, p, delta)`` with zeros mapped to the log floor."""
    return safe_log(prob_within(mean, sigma, center, delta, model=model))


def sigma_from_uncertainty(uncertainty: float, c: float) -> float:
    """The paper's ``sigma = U / c`` (section 3.1).

    ``c`` trades off report frequency against confidence: with ``c = 1, 2, 3``
    the object is within ``U`` of the prediction with probability ~0.68,
    ~0.95 and ~0.997 respectively.
    """
    if uncertainty <= 0:
        raise ValueError("uncertainty distance U must be positive")
    if c <= 0:
        raise ValueError("confidence constant c must be positive")
    return uncertainty / c


def _validate(sigma: np.ndarray, delta: float) -> None:
    if np.any(np.asarray(sigma) <= 0):
        raise ValueError("sigma must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")


@dataclass(frozen=True, slots=True)
class GaussianLocation:
    """One snapshot of an uncertain trajectory: ``N((x, y), sigma^2 I)``.

    This is the scalar-friendly view used in examples and tests; bulk code
    keeps means and sigmas in numpy arrays.
    """

    x: float
    y: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def prob_near(
        self, px: float, py: float, delta: float, model: ProbModel = ProbModel.BOX
    ) -> float:
        """Probability of being within ``delta`` of ``(px, py)``."""
        return float(
            prob_within(self.mean, np.asarray(self.sigma), np.array([px, py]), delta, model)
        )

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` samples of the true location, shape ``(n, 2)``."""
        return rng.normal(loc=self.mean, scale=self.sigma, size=(n, 2))
