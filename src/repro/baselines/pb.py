"""The projection-based (PB) baseline for NM mining (paper section 6.2).

The paper adapts the projection-based approach of InfoMiner [13] to mine
the same top-k NM patterns and uses it as the comparison baseline of the
scalability study.  Section 6.2 describes exactly how it behaves:

    "a large set of prefixes need to be maintained.  At each unspecified
    position, the maximum match of a position p is used as the up-bound of
    the possible match.  However, this bound could be very loose.  As a
    result, it could be true that every prefix up to length c could be
    extensible [...] we need to keep G^c prefixes."

This module implements that adaptation: a breadth-first prefix search where
a prefix ``P`` of length ``i`` survives when its optimistic NM bound --
filling every unspecified position with the best singular NM ``s*`` --
still reaches the running top-k threshold ``omega``:

    ``ub(P) = max over n in (i, M] of (i NM(P) + (n - i) s*) / n``

(``M`` is the maximum pattern length searched; by monotonicity the maximum
sits at ``n = M`` when ``s* >= NM(P)`` and at ``n = i + 1`` otherwise).
Because ``s*`` upper-bounds the NM of *every* pattern (by the min-max
property), this bound rarely prunes and the prefix set grows roughly like
``G^c`` -- the exponential behaviour Fig. 4 reports.  The search is exact
within ``max_length``: no prefix whose extension could still qualify is
ever dropped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core.engine import NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import MiningResult, MinerStats

Cells = tuple[int, ...]


@dataclass
class PBStats:
    """Instrumentation of a PB run (prefix growth is the story here)."""

    levels: int = 0
    prefixes_evaluated: int = 0
    prefix_set_sizes: list[int] = field(default_factory=list)
    truncated: bool = False
    wall_time_s: float = 0.0


class PBMiner:
    """Projection-based top-k NM miner (the Fig. 4 baseline).

    Parameters
    ----------
    engine:
        Evaluation engine over the target dataset.
    k:
        Number of patterns to mine.
    max_length:
        Maximum pattern length searched.  PB *needs* this cap: its bound
        cannot by itself conclude that longer patterns stop qualifying.
    min_length:
        Only patterns at least this long qualify for the top-k.
    max_prefixes:
        Safety valve against the algorithm's own exponential growth: when a
        level exceeds this many prefixes, the level is truncated to the
        best-bounded ones and the run is flagged ``truncated`` (benchmarks
        keep parameters below this; the flag guards interpretation).
    """

    def __init__(
        self,
        engine: NMEngine,
        k: int,
        max_length: int = 4,
        min_length: int = 1,
        max_prefixes: int = 500_000,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if min_length < 1:
            raise ValueError("min_length must be at least 1")
        if max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        if max_prefixes <= 0:
            raise ValueError("max_prefixes must be positive")
        self.engine = engine
        self.k = k
        self.max_length = max_length
        self.min_length = min_length
        self.max_prefixes = max_prefixes

    #: Frontier prefixes whose extension tables share one batched engine pass.
    FRONTIER_BATCH = 64

    def mine(self) -> tuple[MiningResult, PBStats]:
        """Run the prefix search; returns (result, PB-specific stats).

        The result reuses :class:`~repro.core.trajpattern.MiningResult` so
        the experiment harness can treat both miners uniformly.
        """
        stats = PBStats()
        t0 = time.perf_counter()

        singulars = sorted(self.engine.singular_nm_table().items())
        alphabet = [c for c, _ in singulars]
        scores: dict[Cells, float] = {(c,): nm for c, nm in singulars}
        stats.prefixes_evaluated += len(scores)
        s_star = max(scores.values())

        omega = self._threshold(scores)
        prefixes = [
            c for c, nm in scores.items()
            if self._upper_bound(nm, 1, s_star) >= omega
        ]
        stats.levels = 1
        stats.prefix_set_sizes.append(len(prefixes))

        for length in range(2, self.max_length + 1):
            if not prefixes:
                break
            next_prefixes: list[Cells] = []
            for pos in range(0, len(prefixes), self.FRONTIER_BATCH):
                chunk = prefixes[pos : pos + self.FRONTIER_BATCH]
                # All single-cell right-extensions of the whole chunk in
                # one batched engine pass.
                tables = self.engine.extension_tables_many(
                    [TrajectoryPattern(p) for p in chunk]
                )
                for prefix, table in zip(chunk, tables):
                    for cell in alphabet:
                        candidate = prefix + (cell,)
                        nm = table.nm_by_cell[cell]
                        scores[candidate] = nm
                        stats.prefixes_evaluated += 1
                        if (
                            length < self.max_length
                            and self._upper_bound(nm, length, s_star) >= omega
                        ):
                            next_prefixes.append(candidate)
            omega = max(omega, self._threshold(scores))
            next_prefixes = [
                c
                for c in next_prefixes
                if self._upper_bound(scores[c], length, s_star) >= omega
            ]
            if len(next_prefixes) > self.max_prefixes:
                next_prefixes.sort(key=lambda c: -scores[c])
                next_prefixes = next_prefixes[: self.max_prefixes]
                stats.truncated = True
            prefixes = next_prefixes
            stats.levels = length
            stats.prefix_set_sizes.append(len(prefixes))

        stats.wall_time_s = time.perf_counter() - t0

        qualifying = [
            (c, nm) for c, nm in scores.items() if len(c) >= self.min_length
        ]
        qualifying.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
        top = qualifying[: self.k]
        miner_stats = MinerStats(
            iterations=stats.levels,
            candidates_evaluated=stats.prefixes_evaluated,
            final_q_size=len(scores),
            wall_time_s=stats.wall_time_s,
        )
        result = MiningResult(
            patterns=[TrajectoryPattern(c) for c, _ in top],
            nm_values=[nm for _, nm in top],
            omega=omega,
            stats=miner_stats,
        )
        return result, stats

    # -- internals -------------------------------------------------------------

    def _upper_bound(self, nm: float, length: int, s_star: float) -> float:
        """Optimistic NM of any extension, unspecified positions at ``s*``.

        By the min-max weighted-mean inequality the NM of an ``n``-length
        extension is at most ``(length * nm + (n - length) * s_star) / n``;
        the bound is maximised at ``n = max_length`` when ``s_star >= nm``
        (the common, loose case the paper complains about) and at
        ``n = length + 1`` otherwise.
        """
        if length >= self.max_length:
            return nm
        candidates = (
            (length * nm + (self.max_length - length) * s_star) / self.max_length,
            (length * nm + s_star) / (length + 1),
        )
        return max(candidates)

    def _threshold(self, scores: dict[Cells, float]) -> float:
        """k-th best qualifying NM so far (``-inf`` until k exist)."""
        qualifying = sorted(
            (nm for c, nm in scores.items() if len(c) >= self.min_length),
            reverse=True,
        )
        if len(qualifying) >= self.k:
            return qualifying[self.k - 1]
        return -math.inf
