"""Pattern-group discovery (paper sections 3.4 and 4.2).

Imprecise data makes many mined patterns near-duplicates of each other
(neighbouring grid cells get similar probability mass), so the paper
presents the top-k through *pattern groups*:

* two equal-length patterns are **similar** when at every snapshot index the
  distance between their positions is at most ``gamma`` (Definition 1);
* a **pattern group** is a maximal set of mutually similar patterns
  (Definition 2).

Section 4.2 gives a greedy clustering procedure: cluster the patterns at
every snapshot index into *snapshot groups* (complete-linkage at threshold
``gamma``, so members are pairwise within ``gamma``), then peel pattern
groups off by intersecting snapshot groups, starting from singletons and the
smallest groups.  We implement that procedure verbatim, including the
worked example's tie handling; it guarantees every emitted group is a set of
mutually similar patterns (the maximality of Definition 2 is greedy, as in
the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.pattern import TrajectoryPattern
from repro.geometry.grid import Grid


@dataclass(frozen=True)
class PatternGroup:
    """One group of mutually similar patterns (all of equal length)."""

    patterns: tuple[TrajectoryPattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("a pattern group cannot be empty")
        lengths = {len(p) for p in self.patterns}
        if len(lengths) != 1:
            raise ValueError("a pattern group must contain equal-length patterns")

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def length(self) -> int:
        """Length of the member patterns."""
        return len(self.patterns[0])

    def representative(self, grid: Grid) -> TrajectoryPattern:
        """Medoid member: minimises total snapshot distance to the others."""
        if len(self.patterns) == 1:
            return self.patterns[0]
        costs = []
        for p in self.patterns:
            cost = sum(
                float(p.snapshot_distance(q, grid).sum())
                for q in self.patterns
                if q is not p
            )
            costs.append(cost)
        return self.patterns[int(np.argmin(costs))]

    def is_mutually_similar(self, grid: Grid, gamma: float) -> bool:
        """Check the Definition 1 invariant over every member pair."""
        pats = self.patterns
        return all(
            pats[i].is_similar_to(pats[j], grid, gamma)
            for i in range(len(pats))
            for j in range(i + 1, len(pats))
        )


def discover_pattern_groups(
    patterns: Sequence[TrajectoryPattern], grid: Grid, gamma: float
) -> list[PatternGroup]:
    """Cluster mined patterns into pattern groups (section 4.2 procedure).

    Patterns are first partitioned by length (only equal-length patterns can
    be similar); each length class is clustered independently and the
    results are concatenated, longer patterns first, groups of each length
    in emission order.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    unique: list[TrajectoryPattern] = []
    seen: set[tuple[int, ...]] = set()
    for p in patterns:
        if p.cells not in seen:
            seen.add(p.cells)
            unique.append(p)

    by_length: dict[int, list[TrajectoryPattern]] = {}
    for p in unique:
        by_length.setdefault(len(p), []).append(p)

    groups: list[PatternGroup] = []
    for length in sorted(by_length, reverse=True):
        groups.extend(_group_equal_length(by_length[length], grid, gamma))
    return groups


# -- equal-length machinery ---------------------------------------------------


def _group_equal_length(
    patterns: list[TrajectoryPattern], grid: Grid, gamma: float
) -> list[PatternGroup]:
    n = len(patterns)
    if n == 1:
        return [PatternGroup((patterns[0],))]

    length = len(patterns[0])
    # Snapshot groups: per snapshot index, a partition of pattern indices
    # such that members are pairwise within gamma (complete linkage).
    snapshot_groups: list[list[set[int]]] = [
        _cluster_snapshot(patterns, s, grid, gamma) for s in range(length)
    ]

    active: set[int] = set(range(n))
    emitted: list[frozenset[int]] = []

    def emit(members: frozenset[int]) -> None:
        emitted.append(members)
        active.difference_update(members)
        for per_snapshot in snapshot_groups:
            for group in per_snapshot:
                group.difference_update(members)
            per_snapshot[:] = [g for g in per_snapshot if g]

    while active:
        if _emit_singletons(snapshot_groups, emit):
            continue
        smallest = _smallest_group(snapshot_groups)
        if smallest is None:
            # Every remaining pattern shares one group at every snapshot.
            emit(frozenset(active))
            continue
        candidate = frozenset(smallest)
        while True:
            refined = _refine(candidate, snapshot_groups)
            if refined is None:
                emit(candidate)
                break
            candidate = refined

    index_groups = sorted(emitted, key=lambda g: sorted(g))
    return [
        PatternGroup(tuple(patterns[i] for i in sorted(members)))
        for members in index_groups
    ]


def _cluster_snapshot(
    patterns: list[TrajectoryPattern], snapshot: int, grid: Grid, gamma: float
) -> list[set[int]]:
    """Complete-linkage clustering of the patterns' positions at one snapshot."""
    coords = np.array(
        [grid.cell_centers([p.cells[snapshot]])[0] for p in patterns]
    )
    if gamma == 0.0:
        # Exact-position grouping; complete linkage degenerates to equality.
        buckets: dict[tuple[float, float], set[int]] = {}
        for i, (x, y) in enumerate(coords):
            buckets.setdefault((float(x), float(y)), set()).add(i)
        return list(buckets.values())
    return _complete_linkage_clusters(coords, gamma)


def _complete_linkage_clusters(coords: np.ndarray, gamma: float) -> list[set[int]]:
    """Complete-linkage clusters of ``(n, 2)`` points, cut at height ``gamma``.

    The partition of scipy's ``fcluster(linkage(coords, "complete"), gamma,
    criterion="distance")``, with clusters ordered by their first point.
    Grid-centre positions tie often, and complete linkage under ties
    depends on merge order, so this is scipy's nearest-neighbour chain
    with its tie rules: a chain step keeps the previous chain element
    unless another cluster is strictly closer, and otherwise takes the
    lowest-index nearest cluster; a merged cluster takes the higher of the
    two slots; distances are ``sqrt(dx*dx + dy*dy)``.  Complete linkage is
    monotone -- a merge is never lower than the merges below it -- so the
    cut joins exactly the pairs merged at height ``<= gamma``.
    """
    n = len(coords)
    dx = coords[:, None, 0] - coords[None, :, 0]
    dy = coords[:, None, 1] - coords[None, :, 1]
    dist = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(dist, np.inf)
    active = np.ones(n, dtype=bool)
    root = list(range(n))  # union-find over points, for the cut

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(np.argmax(active)))
        while True:
            x = chain[-1]
            y = int(np.argmin(np.where(active, dist[x], np.inf)))
            if len(chain) > 1 and not dist[x, y] < dist[x, chain[-2]]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        if dist[x, y] <= gamma:
            root[find(x)] = find(y)
        # Slot y now holds the merged cluster.  An active slot s always
        # holds point s, so x and y stand for their clusters above; a merge
        # above gamma is not joined, and neither is any merge after it
        # that involves its cluster, since none is lower.
        active[x] = False
        merged = np.maximum(dist[x], dist[y])
        dist[y, :] = merged
        dist[:, y] = merged
        dist[y, y] = np.inf
    clusters: dict[int, set[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), set()).add(i)
    return list(clusters.values())


def _emit_singletons(snapshot_groups, emit) -> bool:
    """Emit one singleton snapshot group if any exists (paper's first rule)."""
    for per_snapshot in snapshot_groups:
        for group in per_snapshot:
            if len(group) == 1:
                emit(frozenset(group))
                return True
    return False


def _smallest_group(snapshot_groups) -> set[int] | None:
    """Smallest snapshot group of size >= 2 across all snapshots.

    Returns ``None`` when each snapshot has a single group left (the
    remaining patterns are then mutually similar everywhere).
    """
    best: set[int] | None = None
    best_key: tuple | None = None
    multiple_groups_somewhere = False
    for s, per_snapshot in enumerate(snapshot_groups):
        if len(per_snapshot) > 1:
            multiple_groups_somewhere = True
        for gi, group in enumerate(per_snapshot):
            key = (len(group), s, gi)
            if best_key is None or key < best_key:
                best, best_key = group, key
    if not multiple_groups_somewhere:
        return None
    return best


def _refine(candidate: frozenset[int], snapshot_groups) -> frozenset[int] | None:
    """One intersection step of the section 4.2 procedure.

    Returns ``None`` when ``candidate`` is contained in some snapshot group
    at every snapshot (it is then a valid pattern group), otherwise the
    smallest non-empty intersection of ``candidate`` with any snapshot
    group, which strictly shrinks the candidate.
    """
    contained_everywhere = True
    best: frozenset[int] | None = None
    best_key: tuple | None = None
    for s, per_snapshot in enumerate(snapshot_groups):
        contained_here = False
        for gi, group in enumerate(per_snapshot):
            inter = candidate & group
            if inter == candidate:
                contained_here = True
            if inter and len(inter) < len(candidate):
                key = (len(inter), s, gi)
                if best_key is None or key < best_key:
                    best, best_key = frozenset(inter), key
        if not contained_here:
            contained_everywhere = False
    if contained_everywhere:
        return None
    if best is None:  # pragma: no cover - partitions guarantee an intersection
        raise AssertionError("candidate not contained anywhere yet never split")
    return best
