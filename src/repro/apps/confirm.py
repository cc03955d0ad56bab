"""Batched prefix-confirmation shared by prediction, forecasting and serving.

Both online pattern applications -- the Fig. 3 prediction override
(:class:`~repro.apps.prediction.PatternLibrary`) and the pre-allocation
forecaster (:class:`~repro.apps.forecast.LocationForecaster`) -- answer the
same inner question for every query: *which (pattern, prefix-length) pairs
does the trailing history confirm, and how confidently?*  Historically each
kept its own Python loop over patterns and prefix lengths, calling
:func:`~repro.uncertainty.gaussian.prob_within` once per pair; the serving
layer (:mod:`repro.serve`) turns this from a per-experiment cost into a
per-request cost, so the loop became the hot path.

:class:`ConfirmationIndex` flattens every candidate ``(pattern, q)`` pair
of a library into padded position arrays once, at construction.  A query
then evaluates *all* candidates with a single vectorised
:func:`prob_within` call and one ``np.multiply.reduceat``.  The
per-element probabilities and the sequential product order are identical
to the scalar loop's; only the final geometric-mean root goes through
numpy's array-pow instead of scalar-pow, whose results can differ in the
last ULP.  Both application classes and the serving path share this one
code path.

``Prob`` is the scipy reference by default.  Given a kernel backend it
runs there instead: the serving layer passes its snapshot engine's, so a
compiled server confirms through the C box-``Prob`` kernel (libm
``erf``, within a couple of ULPs of scipy) and never loads scipy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.pattern import TrajectoryPattern
from repro.geometry.grid import Grid
from repro.uncertainty.gaussian import ProbModel, prob_within

if TYPE_CHECKING:
    from repro.core.kernels import KernelBackend


class ConfirmationIndex:
    """Flattened ``(pattern, prefix-length)`` candidates of a pattern library.

    Parameters
    ----------
    patterns:
        Usable library patterns (no wildcards, ``len > min_prefix`` --
        callers pre-filter exactly as before).
    grid:
        The grid the pattern cells refer to.
    min_prefix:
        Shortest prefix allowed to confirm.
    kernels:
        Kernel backend whose ``prob_within`` evaluates ``Prob``
        (:mod:`repro.core.kernels`); ``None`` keeps the scipy reference.

    One *candidate* is a pair ``(pattern i, prefix length q)`` with
    ``min_prefix <= q <= len(p_i) - 1``; its confirmation confidence for a
    history of length ``h >= q`` is the geometric-mean Eq. 2 probability of
    the trailing ``q`` history entries under the pattern's first ``q``
    centers.  Candidates are ordered by (pattern, q) -- the same order the
    scalar loops visited them in, which keeps first-wins tie-breaking
    identical.
    """

    def __init__(
        self,
        patterns: Sequence[TrajectoryPattern],
        grid: Grid,
        min_prefix: int,
        kernels: KernelBackend | None = None,
    ) -> None:
        self.min_prefix = min_prefix
        self._prob_within = prob_within if kernels is None else kernels.prob_within
        pattern_idx: list[int] = []
        qs: list[int] = []
        next_cells: list[int] = []
        next_centers: list[np.ndarray] = []
        nonconstant: list[bool] = []
        pos_centers: list[np.ndarray] = []
        pos_rel: list[np.ndarray] = []
        for i, pattern in enumerate(patterns):
            centers = pattern.centers(grid)
            for q in range(min_prefix, len(pattern)):
                pattern_idx.append(i)
                qs.append(q)
                next_cells.append(pattern.cells[q])
                next_centers.append(centers[q])
                nonconstant.append(len(set(pattern.cells[:q])) >= 2)
                pos_centers.append(centers[:q])
                # History offset from the end: position j of the prefix
                # lines up with history entry ``h + (j - q)``.
                pos_rel.append(np.arange(q, dtype=np.int64) - q)

        self.n_candidates = len(qs)
        self.pattern_idx = np.asarray(pattern_idx, dtype=np.int64)
        self.q = np.asarray(qs, dtype=np.int64)
        self.next_cell = np.asarray(next_cells, dtype=np.int64)
        self.next_center = (
            np.vstack(next_centers) if next_centers else np.empty((0, 2))
        )
        self.nonconstant = np.asarray(nonconstant, dtype=bool)
        if pos_centers:
            self._pos_centers = np.vstack(pos_centers)
            self._pos_rel = np.concatenate(pos_rel)
            self._starts = np.concatenate([[0], np.cumsum(self.q)[:-1]])
        else:
            self._pos_centers = np.empty((0, 2))
            self._pos_rel = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.n_candidates

    def confidences(
        self,
        history: np.ndarray,
        sigma: float,
        delta_eff: float,
        prob_model: ProbModel,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate confirmation confidence for one trailing history.

        Parameters
        ----------
        history:
            ``(h, 2)`` trailing observations, oldest first (velocities for
            the prediction library, positions for the forecaster).
        sigma:
            Standard deviation of each history entry.
        delta_eff:
            Effective confirmation probe scale.
        prob_model:
            ``Prob`` geometry.

        Returns ``(conf, valid)``: the geometric-mean confidence per
        candidate and the mask of candidates whose prefix fits the history
        (``q <= h``).  Confidences of invalid candidates are meaningless.
        """
        h = len(history)
        valid = self.q <= h
        if self.n_candidates == 0 or not valid.any():
            return np.zeros(self.n_candidates), valid
        # Clamp out-of-range history indices of invalid candidates: their
        # probabilities are computed (vectorisation is cheaper than
        # compaction) and discarded through the mask.
        idx = np.clip(h + self._pos_rel, 0, h - 1)
        # One sigma per pair: the compiled box kernel takes no broadcast.
        probs = self._prob_within(
            history[idx],
            np.full(len(idx), sigma, dtype=float),
            self._pos_centers,
            delta_eff,
            model=prob_model,
        )
        # multiply.reduceat applies the product sequentially per segment --
        # the exact FP order of np.prod over each scalar loop's segment.
        # The ** below is array-pow; scalar-pow can differ in the last ULP.
        seg_prod = np.multiply.reduceat(probs, self._starts)
        conf = seg_prod ** (1.0 / self.q)
        return conf, valid

    def best_candidate(
        self,
        history: np.ndarray,
        sigma: float,
        delta_eff: float,
        prob_model: ProbModel,
        threshold: float,
        require_nonconstant: bool = False,
    ) -> int | None:
        """Index of the best confirmed candidate, or ``None``.

        "Best" is the longest confirmed context, ties broken by confidence,
        then by candidate order (first wins) -- identical to the scalar
        loop's ``(q, conf)`` tuple maximum under strict improvement.
        """
        conf, valid = self.confidences(history, sigma, delta_eff, prob_model)
        ok = valid & (conf >= threshold)
        if require_nonconstant:
            ok &= self.nonconstant
        if not ok.any():
            return None
        # q + conf orders exactly like the tuple (q, conf): q differences
        # are >= 1 while confidence differences are < 1.
        key = np.where(ok, self.q + conf, -np.inf)
        return int(np.argmax(key))

    def vote(
        self,
        history: np.ndarray,
        sigma: float,
        delta_eff: float,
        prob_model: ProbModel,
        threshold: float,
    ) -> dict[int, float]:
        """Continuation-cell votes of every confirmed candidate.

        Each confirmed candidate votes for its continuation cell with
        weight ``conf * q`` (longer confirmed contexts vote more strongly);
        votes accumulate per cell in candidate order, matching the scalar
        loop's summation order bit-for-bit.
        """
        conf, valid = self.confidences(history, sigma, delta_eff, prob_model)
        ok = valid & (conf >= threshold)
        if not ok.any():
            return {}
        votes: dict[int, float] = {}
        weights = conf[ok] * self.q[ok]
        for cell, weight in zip(self.next_cell[ok], weights):
            cell = int(cell)
            votes[cell] = votes.get(cell, 0.0) + float(weight)
        return votes
