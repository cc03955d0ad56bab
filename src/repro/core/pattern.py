"""Trajectory patterns (paper section 3.3) and wildcard patterns (section 5).

A trajectory pattern ``P = (p_1, ..., p_m)`` is an ordered list of grid
positions: "the mobile object is located at p_1, ..., p_m at m consecutive
snapshots".  Positions are grid-cell identifiers (ints); the special value
:data:`WILDCARD` marks a "don't care" position that any location matches.

Patterns are immutable and hashable so they can key the candidate set ``Q``
of the miner directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from repro.geometry.grid import Grid

#: Sentinel cell id for a "don't care" position (section 5's ``*`` symbol).
WILDCARD: int = -1


@dataclass(frozen=True, slots=True)
class TrajectoryPattern:
    """An immutable ordered list of grid positions.

    >>> p = TrajectoryPattern((3, 4, 5))
    >>> len(p), p.is_singular
    (3, False)
    >>> p.concat(TrajectoryPattern((9,))).cells
    (3, 4, 5, 9)
    """

    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        cells = tuple(int(c) for c in self.cells)
        if not cells:
            raise ValueError("a pattern must have at least one position")
        if any(c < 0 and c != WILDCARD for c in cells):
            raise ValueError(f"invalid cell ids in pattern: {cells}")
        object.__setattr__(self, "cells", cells)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def singular(cls, cell: int) -> "TrajectoryPattern":
        """The length-1 pattern at ``cell`` (section 3.3's *singular pattern*)."""
        return cls((cell,))

    @classmethod
    def from_points(cls, points: np.ndarray, grid: Grid) -> "TrajectoryPattern":
        """Pattern whose positions are the grid cells containing ``points``."""
        return cls(tuple(int(c) for c in grid.locate_many(np.asarray(points, dtype=float))))

    # -- basic protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[int]:
        return iter(self.cells)

    def __getitem__(self, index):
        picked = self.cells[index]
        if isinstance(index, slice):
            return TrajectoryPattern(picked)
        return picked

    def __repr__(self) -> str:
        body = ", ".join("*" if c == WILDCARD else str(c) for c in self.cells)
        return f"Pattern({body})"

    # -- structure ------------------------------------------------------------------

    @property
    def is_singular(self) -> bool:
        """Whether this is a length-1 pattern."""
        return len(self.cells) == 1

    @property
    def has_wildcards(self) -> bool:
        """Whether any position is a "don't care"."""
        return WILDCARD in self.cells

    def specified_positions(self) -> list[int]:
        """Indices of non-wildcard positions."""
        return [i for i, c in enumerate(self.cells) if c != WILDCARD]

    def concat(self, other: "TrajectoryPattern") -> "TrajectoryPattern":
        """Append ``other`` to this pattern (the miner's candidate generator)."""
        return TrajectoryPattern(self.cells + other.cells)

    def drop_first(self) -> "TrajectoryPattern":
        """The proper sub-pattern with the first position removed."""
        if len(self.cells) < 2:
            raise ValueError("cannot shorten a singular pattern")
        return TrajectoryPattern(self.cells[1:])

    def drop_last(self) -> "TrajectoryPattern":
        """The proper sub-pattern with the last position removed."""
        if len(self.cells) < 2:
            raise ValueError("cannot shorten a singular pattern")
        return TrajectoryPattern(self.cells[:-1])

    def pad_wildcards(self, before: int = 0, after: int = 0) -> "TrajectoryPattern":
        """Add ``*`` positions on either side (section 5's wildcard growth)."""
        if before < 0 or after < 0:
            raise ValueError("wildcard counts must be non-negative")
        return TrajectoryPattern((WILDCARD,) * before + self.cells + (WILDCARD,) * after)

    # -- relations (Definition 3) -----------------------------------------------------

    def is_super_pattern_of(self, other: "TrajectoryPattern") -> bool:
        """Definition 3: ``other`` appears as a contiguous block in ``self``."""
        n, m = len(other.cells), len(self.cells)
        if n > m:
            return False
        return any(
            self.cells[i : i + n] == other.cells for i in range(m - n + 1)
        )

    def is_proper_super_pattern_of(self, other: "TrajectoryPattern") -> bool:
        """Super-pattern with strictly greater length (Definition 3)."""
        return len(self.cells) > len(other.cells) and self.is_super_pattern_of(other)

    def is_sub_pattern_of(self, other: "TrajectoryPattern") -> bool:
        """Inverse of :meth:`is_super_pattern_of`."""
        return other.is_super_pattern_of(self)

    def splits(self) -> Iterator[tuple["TrajectoryPattern", "TrajectoryPattern"]]:
        """All "cuts" into a non-empty left and right part (min-max property)."""
        for i in range(1, len(self.cells)):
            yield TrajectoryPattern(self.cells[:i]), TrajectoryPattern(self.cells[i:])

    def contiguous_sub_patterns(self, length: int) -> Iterator["TrajectoryPattern"]:
        """All contiguous sub-patterns of the given ``length``."""
        if not 1 <= length <= len(self.cells):
            raise ValueError(f"invalid sub-pattern length {length} for {self!r}")
        for i in range(len(self.cells) - length + 1):
            yield TrajectoryPattern(self.cells[i : i + length])

    # -- geometry helpers --------------------------------------------------------------

    def centers(self, grid: Grid) -> np.ndarray:
        """Positions as grid-cell centres, shape ``(m, 2)``.

        Wildcard positions have no geometry; patterns containing them are
        rejected (callers handle wildcards through the DP evaluation path).
        """
        if self.has_wildcards:
            raise ValueError("wildcard positions have no centre coordinates")
        return grid.cell_centers(np.asarray(self.cells, dtype=np.int64))

    def snapshot_distance(self, other: "TrajectoryPattern", grid: Grid) -> np.ndarray:
        """Per-snapshot centre distances to an equal-length pattern.

        This is the quantity Definition 1 compares against ``gamma``.
        """
        if len(self) != len(other):
            raise ValueError("snapshot distances need equal-length patterns")
        diff = self.centers(grid) - other.centers(grid)
        return np.hypot(diff[:, 0], diff[:, 1])

    def is_similar_to(
        self, other: "TrajectoryPattern", grid: Grid, gamma: float
    ) -> bool:
        """Definition 1: every snapshot distance is at most ``gamma``.

        The comparison carries a tiny relative tolerance so that patterns
        exactly ``gamma`` apart (a common case when ``gamma`` is a multiple
        of the cell size) land on the "similar" side regardless of
        floating-point rounding in the centre coordinates.
        """
        if len(self) != len(other):
            return False
        tolerance = 1e-9 * max(gamma, 1.0)
        return bool(np.all(self.snapshot_distance(other, grid) <= gamma + tolerance))


def patterns_from_cells(cell_lists: Sequence[Sequence[int]]) -> list[TrajectoryPattern]:
    """Bulk constructor used by tests and the experiment harness."""
    return [TrajectoryPattern(tuple(cells)) for cells in cell_lists]


#: A batch entry: a :class:`TrajectoryPattern`, or its cell tuple.
PatternLike = Union[TrajectoryPattern, tuple[int, ...]]


def pattern_cells(pattern: PatternLike) -> tuple[int, ...]:
    """The cells of a :class:`TrajectoryPattern`; a cell tuple passes as is.

    Batched evaluation accepts either, so a caller that already holds
    valid cell tuples (the miner) builds no validated copy of each.
    """
    return pattern.cells if isinstance(pattern, TrajectoryPattern) else pattern
