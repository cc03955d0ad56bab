"""Pattern-augmented location prediction (paper section 6.1, Fig. 3).

The experiment: mine top-k velocity patterns on training trajectories, then
track held-out objects with a dead-reckoning model that *consults the
patterns first*.  Before predicting tick ``t``, the server derives the
recent velocity history from its own estimates; if a trailing segment
confirms a mined pattern's prefix -- the Eq. 2 probability of the segment
under the prefix is at least the confirmation threshold (the paper uses
90%) -- the pattern's next position (a velocity-grid cell centre) supplies
the velocity prediction; otherwise the base model predicts as usual.  Every
avoided uplink is a mis-prediction saved; Fig. 3 reports the reduction
ratio per base model (LM / LKF / RMF) for match-mined vs NM-mined patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.apps.confirm import ConfirmationIndex
from repro.core.pattern import TrajectoryPattern
from repro.geometry.grid import Grid
from repro.mobility.models import MotionModel
from repro.mobility.objects import GroundTruthPath
from repro.mobility.reporting import ReportingConfig, dead_reckon
from repro.uncertainty.gaussian import ProbModel

if TYPE_CHECKING:
    from repro.core.kernels import KernelBackend


class PatternLibrary:
    """Mined velocity patterns packaged for online prefix confirmation.

    Parameters
    ----------
    patterns:
        Mined velocity patterns (cells of ``grid``), typically the top-k
        from :class:`~repro.core.trajpattern.TrajPatternMiner` or the match
        baseline.
    grid:
        The velocity grid the patterns were mined on.
    delta:
        The indifference distance used during mining.
    confirm_threshold:
        Minimum Eq. 2 probability for a trailing segment to confirm a
        pattern prefix (the paper's footnote 2 uses 0.9).
    min_prefix:
        Shortest prefix allowed to trigger a pattern prediction; very short
        prefixes confirm spuriously.
    require_nonconstant_prefix:
        Only fire on prefixes that contain at least two distinct cells.  A
        constant-velocity prefix (pure cruise, or a full stop) matches at
        *every* point of a route segment, so its continuation (the eventual
        turn) fires long before the manoeuvre actually starts; requiring a
        non-constant prefix restricts predictions to manoeuvres already in
        progress, which is where the motifs carry timing information.
    confirm_sigma_factor:
        Scale of the confirmation probe.  The mining ``delta`` is tiny by
        design (a grid cell), so Eq. 2 at that scale can never reach 0.9 --
        the paper's footnote leaves the scale implicit.  We probe at
        ``delta_eff = max(delta, confirm_sigma_factor * sigma)``: "the
        trailing segment is within the pattern's positions at the tracking
        error scale with probability >= threshold".
    prob_model:
        Geometry of ``Prob`` (box by default, matching the miner).
    kernels:
        Kernel backend that evaluates the confirmation ``Prob`` (see
        :class:`~repro.apps.confirm.ConfirmationIndex`); ``None``, the
        default, keeps the scipy reference.  The serving layer passes its
        snapshot engine's backend.
    """

    def __init__(
        self,
        patterns: Sequence[TrajectoryPattern],
        grid: Grid,
        delta: float,
        confirm_threshold: float = 0.9,
        min_prefix: int = 2,
        confirm_sigma_factor: float = 2.5,
        require_nonconstant_prefix: bool = True,
        prob_model: ProbModel = ProbModel.BOX,
        kernels: KernelBackend | None = None,
    ) -> None:
        if not 0.0 < confirm_threshold <= 1.0:
            raise ValueError("confirm_threshold must be in (0, 1]")
        if min_prefix < 1:
            raise ValueError("min_prefix must be at least 1")
        if confirm_sigma_factor <= 0:
            raise ValueError("confirm_sigma_factor must be positive")
        self.grid = grid
        self.delta = delta
        self.confirm_threshold = confirm_threshold
        self.min_prefix = min_prefix
        self.confirm_sigma_factor = confirm_sigma_factor
        self.require_nonconstant_prefix = require_nonconstant_prefix
        self.prob_model = prob_model
        self.n_queries = 0
        self.n_confirmations = 0
        # Only patterns that can both be confirmed (prefix >= min_prefix)
        # and still predict a next position (length > min_prefix) are usable.
        self.patterns = [p for p in patterns if len(p) > min_prefix and not p.has_wildcards]
        # All (pattern, prefix-length) confirmation candidates, flattened
        # for one-call vectorised evaluation (shared with the forecaster
        # and the serving layer; see repro.apps.confirm).
        self._index = ConfirmationIndex(self.patterns, grid, min_prefix, kernels)
        self.max_prefix = max((len(p) - 1 for p in self.patterns), default=0)

    def __len__(self) -> int:
        return len(self.patterns)

    def predict_next_velocity(
        self, recent_velocities: np.ndarray, sigma: float
    ) -> np.ndarray | None:
        """Best pattern continuation for a trailing velocity history.

        Parameters
        ----------
        recent_velocities:
            ``(h, 2)`` array of the server's most recent velocity
            estimates, oldest first.
        sigma:
            Standard deviation of each velocity estimate.

        Returns the predicted next velocity (a cell centre) of the
        highest-confidence confirmed (pattern, prefix) pair, or ``None``
        when nothing confirms.
        """
        recent_velocities = np.asarray(recent_velocities, dtype=float)
        h = len(recent_velocities)
        if h < self.min_prefix or not self.patterns:
            return None
        self.n_queries += 1

        delta_eff = max(self.delta, self.confirm_sigma_factor * float(sigma))
        # Longest confirmed context wins (ties by confidence): two patterns
        # sharing a short prefix but diverging afterwards are disambiguated
        # by how much history they explain, like a variable-order Markov
        # predictor.  Confidence is the geometric-mean (per-position) Eq. 2
        # probability: the raw product shrinks with q, so a fixed threshold
        # would forbid exactly the long contexts that carry information --
        # the same length effect NM itself normalises away (Eq. 3).  All
        # candidates are evaluated in one vectorised pass.
        best = self._index.best_candidate(
            recent_velocities,
            sigma,
            delta_eff,
            self.prob_model,
            self.confirm_threshold,
            require_nonconstant=self.require_nonconstant_prefix,
        )
        if best is None:
            return None
        self.n_confirmations += 1
        return self._index.next_center[best].copy()


def pattern_override(
    library: PatternLibrary,
    velocity_sigma: float,
    min_deviation: float = 0.0,
    recency: int | None = None,
) -> Callable[[int, np.ndarray, MotionModel, np.ndarray], np.ndarray | None]:
    """Build the ``override_prediction`` hook for :func:`dead_reckon`.

    The hook derives the recent velocity history from the server's own
    position estimates, asks the library for a confirmed continuation and,
    when one exists, predicts ``last estimate + pattern velocity``.

    Two gates keep the patterns from degrading the base model:

    * ``min_deviation`` keeps the base model in charge whenever the pattern
      agrees with it: the model's continuous prediction is strictly more
      precise than a grid-cell centre during steady motion, so patterns
      only take over when they forecast a manoeuvre the model cannot (a
      velocity change of at least ``min_deviation``).
    * ``recency`` optionally restricts pattern firing to the ticks right
      after a delivered report (``None``, the default, disables the gate).
      With report-interpolated mining data the patterns chain safely
      through whole manoeuvres, so the gate is usually unnecessary; it is
      kept for ablations.
    """

    def override(
        t: int,
        estimates: np.ndarray,
        model: MotionModel,
        delivered: np.ndarray,
    ) -> np.ndarray | None:
        h = library.max_prefix
        if len(estimates) < 2 or h == 0:
            return None
        if recency is not None:
            # delivered[0] is the handshake, not a manoeuvre signal.
            recent = delivered[max(1, t - recency) : t]
            if not recent.any():
                return None
        window = estimates[-(h + 1) :]
        velocities = np.diff(window, axis=0)
        v_next = library.predict_next_velocity(velocities, velocity_sigma)
        if v_next is None:
            return None
        if min_deviation > 0.0:
            v_model = np.asarray(model.predict(float(t))) - estimates[-1]
            if float(np.hypot(*(v_next - v_model))) < min_deviation:
                return None
        return estimates[-1] + v_next

    return override


@dataclass
class PredictionComparison:
    """Mis-prediction counts with and without pattern augmentation."""

    base_mispredictions: int
    augmented_mispredictions: int
    n_paths: int

    @property
    def reduction(self) -> float:
        """Fraction of mis-predictions removed by the patterns (Fig. 3's y-axis)."""
        if self.base_mispredictions == 0:
            return 0.0
        saved = self.base_mispredictions - self.augmented_mispredictions
        return saved / self.base_mispredictions


def compare_prediction(
    paths: Sequence[GroundTruthPath],
    model_factory: Callable[[], MotionModel],
    config: ReportingConfig,
    library: PatternLibrary,
    seed: int = 0,
    min_deviation: float | None = None,
    recency: int | None = None,
) -> PredictionComparison:
    """Track ``paths`` twice -- base model vs pattern-augmented -- and compare.

    Both runs see identical uplink-loss randomness (same seed) so the only
    difference is the prediction rule.  ``min_deviation`` defaults to half
    the uncertainty distance: the pattern must forecast a manoeuvre of at
    least ``U / 2`` to take over from the base model.  ``recency`` is the
    post-report firing window (see :func:`pattern_override`).
    """
    velocity_sigma = float(np.sqrt(2.0)) * config.sigma
    if min_deviation is None:
        min_deviation = config.uncertainty / 2.0
    override = pattern_override(
        library, velocity_sigma, min_deviation=min_deviation, recency=recency
    )

    base_total = 0
    augmented_total = 0
    for i, path in enumerate(paths):
        base_log = dead_reckon(
            path, model_factory(), config, rng=np.random.default_rng(seed + i)
        )
        aug_log = dead_reckon(
            path,
            model_factory(),
            config,
            rng=np.random.default_rng(seed + i),
            override_prediction=override,
        )
        base_total += base_log.n_mispredictions
        augmented_total += aug_log.n_mispredictions
    return PredictionComparison(
        base_mispredictions=base_total,
        augmented_mispredictions=augmented_total,
        n_paths=len(paths),
    )
