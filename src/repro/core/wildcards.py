"""Gap patterns: variable-length "don't care" runs (paper section 5).

Section 5 extends trajectory patterns with wild-card positions: a ``*``
matches any location, at most ``d`` consecutive ``*``'s are allowed, and "a
gap can be viewed as a variant number of consecutive '*'s".  Fixed
wild-cards are handled natively by the measures and the engine
(:data:`~repro.core.pattern.WILDCARD` positions contribute probability 1
and do not count toward the normalising length).  This module adds the
*variable* gaps, evaluated -- as the paper suggests -- with dynamic
programming.

A :class:`GapPattern` is a sequence of solid segments separated by gaps
with inclusive length bounds::

    GapPattern.parse("3 5 [0-2] 9 9", ...)   # two segments, gap of 0..2

The NM of a gap pattern against a trajectory is the maximum over all
admissible alignments (gap lengths) of the geometric-mean log probability
of the *specified* positions -- consistent with the fixed-wild-card
convention.  Every segment is scored over the whole dataset by one call to
the engine's batched scorer
(:meth:`~repro.core.engine.NMEngine.window_scores_batch`); the DP then
runs on the engine's kernel backend over each trajectory's slice of those
scores, in (segment boundary, snapshot) states, in
``O(n_segments * L * max_gap)`` per trajectory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
import numpy as np

from repro.core.engine import NMEngine
from repro.core.pattern import TrajectoryPattern

_GAP_TOKEN = re.compile(r"^\[(\d+)-(\d+)\]$")


@dataclass(frozen=True)
class Gap:
    """A variable run of don't-care snapshots between two solid segments."""

    min_length: int
    max_length: int

    def __post_init__(self) -> None:
        if self.min_length < 0:
            raise ValueError("gap lengths must be non-negative")
        if self.max_length < self.min_length:
            raise ValueError("gap max_length must be >= min_length")


@dataclass(frozen=True)
class GapPattern:
    """Solid segments separated by bounded variable gaps.

    ``segments`` has one more element than ``gaps``; segment ``i`` is
    followed by gap ``i``.
    """

    segments: tuple[TrajectoryPattern, ...]
    gaps: tuple[Gap, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a gap pattern needs at least one segment")
        if len(self.gaps) != len(self.segments) - 1:
            raise ValueError(
                f"{len(self.segments)} segments need {len(self.segments) - 1} "
                f"gaps, got {len(self.gaps)}"
            )
        if any(s.has_wildcards for s in self.segments):
            raise ValueError(
                "segments must be solid; express don't-cares as gaps"
            )

    @property
    def n_specified(self) -> int:
        """Number of solid positions (the NM normaliser)."""
        return sum(len(s) for s in self.segments)

    def min_span(self) -> int:
        """Shortest window the pattern can occupy."""
        return self.n_specified + sum(g.min_length for g in self.gaps)

    def max_span(self) -> int:
        """Longest window the pattern can occupy."""
        return self.n_specified + sum(g.max_length for g in self.gaps)

    @classmethod
    def parse(cls, text: str) -> "GapPattern":
        """Parse ``"3 5 [0-2] 9 9"``-style pattern strings.

        Tokens are cell ids; ``[a-b]`` introduces a gap of ``a`` to ``b``
        snapshots.  Adjacent gap tokens are rejected (merge them instead).
        """
        segments: list[list[int]] = [[]]
        gaps: list[Gap] = []
        for token in text.split():
            gap_match = _GAP_TOKEN.match(token)
            if gap_match:
                if not segments[-1]:
                    raise ValueError(
                        f"gap {token!r} must follow a solid position"
                    )
                gaps.append(Gap(int(gap_match.group(1)), int(gap_match.group(2))))
                segments.append([])
            else:
                segments[-1].append(int(token))
        if not segments[-1]:
            raise ValueError("a gap pattern cannot end with a gap")
        return cls(
            tuple(TrajectoryPattern(tuple(s)) for s in segments), tuple(gaps)
        )


def nm_gap_pattern(engine: NMEngine, pattern: GapPattern) -> float:
    """Dataset NM of a gap pattern: sum over trajectories of the best
    admissible alignment (section 5's DP evaluation).

    All segments' window scores over the *whole* dataset are computed with
    one batched engine call
    (:meth:`~repro.core.engine.NMEngine.window_scores_batch`); the DP then
    runs per trajectory on slices of those global arrays.

    Sharded engines (:class:`~repro.core.parallel.ParallelNMEngine`)
    expose ``nm_gap_pattern_total`` instead of raw window scores; the DP
    then runs inside each shard worker and the per-shard sums add exactly.
    """
    sharded_total = getattr(engine, "nm_gap_pattern_total", None)
    if sharded_total is not None:
        return float(sharded_total(pattern))
    global_scores = engine.window_scores_batch(list(pattern.segments))
    total = 0.0
    for i in range(len(engine.dataset)):
        seg_scores = _slice_segment_scores(engine, pattern, global_scores, i)
        total += _best_alignment_nm(engine, pattern, seg_scores, i)
    return float(total)


def nm_gap_pattern_trajectory(
    engine: NMEngine, pattern: GapPattern, traj_index: int
) -> float:
    """Best-alignment NM of a gap pattern within one trajectory.

    The segments are scored by the same batched engine call as in
    :func:`nm_gap_pattern`, and this trajectory's windows are sliced out;
    prefer :func:`nm_gap_pattern` for the dataset total, which scores the
    segments once for every trajectory.
    """
    global_scores = engine.window_scores_batch(list(pattern.segments))
    seg_scores = _slice_segment_scores(engine, pattern, global_scores, traj_index)
    return _best_alignment_nm(engine, pattern, seg_scores, traj_index)


def _best_alignment_nm(
    engine: NMEngine,
    pattern: GapPattern,
    seg_scores: list[np.ndarray],
    traj_index: int,
) -> float:
    """DP over segment placements given per-trajectory segment scores.

    ``best[j][t]`` is the maximum summed log-probability of placing
    segments ``0..j`` such that segment ``j`` ends at snapshot ``t``
    (inclusive).  Transitions advance by the next segment's length plus an
    admissible gap.  Trajectories shorter than the minimum span score the
    engine's floor (consistent with fixed patterns).

    The DP itself runs on the engine's kernel backend
    (:meth:`~repro.core.kernels.KernelBackend.gap_dp`); the floor guard
    and ``n_specified`` normalisation stay here.
    """
    length = int(engine._lengths[traj_index])
    floor = engine.floor_log_prob
    if length < pattern.min_span():
        return floor

    seg_lens = np.array([len(s) for s in pattern.segments], dtype=np.int64)
    gap_mins = np.array([g.min_length for g in pattern.gaps], dtype=np.int64)
    gap_maxs = np.array([g.max_length for g in pattern.gaps], dtype=np.int64)
    top = engine.kernel_backend.gap_dp(
        seg_scores, seg_lens, gap_mins, gap_maxs, length, engine._arena
    )
    if top == -np.inf:
        return floor
    return top / pattern.n_specified


def _slice_segment_scores(
    engine: NMEngine,
    pattern: GapPattern,
    global_scores: list[np.ndarray],
    traj_index: int,
) -> list[np.ndarray]:
    """One trajectory's segment windows, sliced out of the global arrays.

    Window starts fully inside the trajectory never cross a boundary, so
    the raw global sums equal the per-trajectory ones.
    """
    length = int(engine._lengths[traj_index])
    start_row = int(engine._starts[traj_index])
    out = []
    for seg, scores in zip(pattern.segments, global_scores):
        n_windows = max(length - len(seg) + 1, 0)
        out.append(scores[start_row : start_row + n_windows])
    return out
