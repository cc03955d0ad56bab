"""Top-k pattern mining under the *match* measure of [14].

The match of a pattern in a trajectory is the maximum joint probability of
the pattern over all equal-length windows (Eq. 2 without normalisation),
summed over the data set.  Unlike NM, match is monotone: appending a
position multiplies each window probability by a factor <= 1, so

    ``match(P') >= match(P)``  for every contiguous sub-pattern ``P'`` of ``P``

-- the Apriori property (section 3.3).  A level-wise miner that extends
only patterns whose match still clears the running top-k threshold is
therefore exact; the border-collapsing algorithm of [14] accelerates the
same search and finds the same answer, so this implementation is a faithful
stand-in for the paper's comparison baseline (DESIGN.md, substitutions).

Because match shrinks with pattern length, an unconstrained top-k is
dominated by singular patterns; the experiments therefore mine with a
minimum length (e.g. "top-1000 match patterns with length at least 3"),
which this miner supports directly.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

from repro.core.engine import NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import frequent_grams

Cells = tuple[int, ...]


@dataclass
class MatchMinerStats:
    """Instrumentation of a match-mining run."""

    levels: int = 0
    candidates_evaluated: int = 0
    frontier_sizes: list[int] = field(default_factory=list)
    wall_time_s: float = 0.0


@dataclass
class MatchMiningResult:
    """Ranked top-k patterns under the match measure."""

    patterns: list[TrajectoryPattern]
    match_values: list[float]
    threshold: float
    stats: MatchMinerStats

    def __len__(self) -> int:
        return len(self.patterns)

    def as_pairs(self) -> list[tuple[TrajectoryPattern, float]]:
        return list(zip(self.patterns, self.match_values))

    def mean_length(self) -> float:
        """Average pattern length (compared against NM patterns in T1)."""
        if not self.patterns:
            return 0.0
        return sum(len(p) for p in self.patterns) / len(self.patterns)


class _TopKTracker:
    """Min-heap of the k best qualifying scores; O(log k) per update."""

    def __init__(self, k: int, min_length: int) -> None:
        self.k = k
        self.min_length = min_length
        self._heap: list[float] = []

    def note(self, cells: Cells, value: float) -> None:
        if len(cells) < self.min_length:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, value)
        elif value > self._heap[0]:
            heapq.heapreplace(self._heap, value)

    @property
    def threshold(self) -> float:
        """k-th best qualifying score so far (``-inf`` until k exist)."""
        if len(self._heap) == self.k:
            return self._heap[0]
        return -math.inf


class MatchMiner:
    """Exact level-wise top-k miner for the match measure.

    Parameters
    ----------
    engine:
        Evaluation engine over the target dataset (shared with TrajPattern).
    k:
        Number of patterns to mine.
    min_length:
        Only patterns at least this long qualify for the top-k (shorter
        patterns are still grown through, as Apriori requires).
    max_length:
        Hard cap on the search depth; ``None`` searches until the frontier
        empties (guaranteed, since match decays with length while the
        threshold only rises).
    """

    def __init__(
        self,
        engine: NMEngine,
        k: int,
        min_length: int = 1,
        max_length: int | None = None,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if min_length < 1:
            raise ValueError("min_length must be at least 1")
        if max_length is not None and max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        self.engine = engine
        self.k = k
        self.min_length = min_length
        self.max_length = max_length

    def mine(self) -> MatchMiningResult:
        """Run the level-wise search and return the ranked top-k."""
        stats = MatchMinerStats()
        t0 = time.perf_counter()
        tracker = _TopKTracker(self.k, self.min_length)

        singulars = sorted(self.engine.singular_match_table().items())
        cells_alphabet = [c for c, _ in singulars]
        scores: dict[Cells, float] = {}
        for cell, value in singulars:
            scores[(cell,)] = value
            tracker.note((cell,), value)
        stats.candidates_evaluated += len(scores)
        if self.min_length > 1:
            self._warm_start(scores, tracker, stats)

        frontier = [c for c, m in scores.items() if m >= tracker.threshold]
        stats.levels = 1
        stats.frontier_sizes.append(len(frontier))

        while frontier:
            if self.max_length is not None and stats.levels >= self.max_length:
                break
            next_frontier: list[Cells] = []
            for pos in range(0, len(frontier), self.FRONTIER_BATCH):
                # The threshold may have risen past a prefix mid-level;
                # Apriori then rules out every extension of it.  Batching
                # in chunks (re-filtered between them) keeps that pruning
                # while the chunk's extension tables share one engine pass.
                live = [
                    p
                    for p in frontier[pos : pos + self.FRONTIER_BATCH]
                    if scores[p] >= tracker.threshold
                ]
                if not live:
                    continue
                tables = self.engine.extension_tables_many(
                    [TrajectoryPattern(p) for p in live]
                )
                for prefix, table in zip(live, tables):
                    for cell in cells_alphabet:
                        candidate = prefix + (cell,)
                        if candidate in scores:
                            value = scores[candidate]  # warm-started earlier
                        else:
                            value = table.match_by_cell[cell]
                            scores[candidate] = value
                            tracker.note(candidate, value)
                            stats.candidates_evaluated += 1
                        if value >= tracker.threshold:
                            next_frontier.append(candidate)
            frontier = [c for c in next_frontier if scores[c] >= tracker.threshold]
            stats.levels += 1
            stats.frontier_sizes.append(len(frontier))

        stats.wall_time_s = time.perf_counter() - t0
        qualifying = [
            (c, m) for c, m in scores.items() if len(c) >= self.min_length
        ]
        qualifying.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
        top = qualifying[: self.k]
        return MatchMiningResult(
            patterns=[TrajectoryPattern(c) for c, _ in top],
            match_values=[m for _, m in top],
            threshold=tracker.threshold,
            stats=stats,
        )

    #: Cap on warm-start candidates (most frequent discretised n-grams).
    WARM_START_CAP = 2000
    #: Frontier prefixes whose extension tables share one batched engine
    #: pass; the threshold is re-checked between chunks so the mid-level
    #: Apriori pruning is preserved.
    FRONTIER_BATCH = 64

    def _warm_start(
        self, scores: dict[Cells, float], tracker: _TopKTracker, stats: MatchMinerStats
    ) -> None:
        """Bootstrap the threshold for min-length mining.

        The TrajPattern warm start, on the same
        :func:`~repro.core.trajpattern.frequent_grams`: until ``k`` patterns
        of length >= ``min_length`` exist the threshold is ``-inf``, which
        makes the first levels a full cross product.  Evaluating the most
        frequent *observed* cell n-grams first gives a realistic threshold
        that Apriori can prune against from level 1 on; the final top-k is
        unchanged because every warm value is exact and the threshold is a
        lower bound of the true one.
        """
        grams = frequent_grams(
            self.engine.dataset, self.engine.grid, self.min_length, self.WARM_START_CAP
        )
        seeds = [gram for gram in grams if gram not in scores]
        values = self.engine.match_batch(seeds)
        for gram, value in zip(seeds, values):
            scores[gram] = float(value)
            tracker.note(gram, float(value))
            stats.candidates_evaluated += 1
