"""Top-k bookkeeping for the miner: the pattern set ``Q`` and threshold ``omega``.

The TrajPattern algorithm maintains a growing set ``Q`` of patterns, a
dynamic NM threshold ``omega`` (the k-th largest NM seen so far), and the
induced split of ``Q`` into *high* (NM >= omega) and *low* patterns
(section 4, observation 2).  :class:`PatternBook` centralises that
bookkeeping with deterministic tie-breaking so mining results are stable
across runs and match the brute-force oracle in tests.

Singular-extension families: Lemma 1 needs every low pattern with the
1-extension property (Definition 5) in ``Q`` as an extension partner, and
almost all of them are the singular extensions ``P + s`` / ``s + P`` of a
high pattern ``P``.  Once ``P`` has been extended it is a *family root*,
and its members stand in ``Q`` implicitly: they are not stored, and each
is valued at Property 1's bound ``(|P| NM(P) + NM(s)) / (|P| + 1)``, read
on demand from the singular table kept sorted by NM descending (a member
reachable from two live roots takes the smaller of its two bounds).  The
miner evaluates only the members whose bound reaches ``omega``; they and
every other exactly scored pattern are *explicit* entries.  Implicit
members were provably below ``omega`` when their root was extended, and
``omega`` never decreases, so they never enter ``omega`` or the top-k.  A
root stays live while it is high (for the rest of the run when extension
pruning is off); its implicit members leave ``Q`` with it.  This is what
keeps the paper's ``O(kG)`` low-pattern population from costing ``O(kG)``
dataset scans, or ``O(kG)`` stored entries, per iteration.

The minimum-length variant of section 5 changes only how ``omega`` is
computed: it is the k-th largest NM *among patterns of length >= d*, while
the high/low split of the whole book still uses plain NM comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

Cells = tuple[int, ...]


def sort_key(cells: Cells, nm: float) -> tuple:
    """Deterministic "better first" ordering: NM desc, shorter first, cells asc."""
    return (-nm, len(cells), cells)


def concat_bound(i: int, nm_a: float, j: int, nm_b: float) -> float:
    """Property 1's weighted-mean bound on an ``i``-pattern joined to a ``j``-pattern."""
    return (i * nm_a + j * nm_b) / (i + j)


class PatternBook:
    """The pattern store behind the miner's ``Q`` / ``H`` / ``L`` sets.

    Patterns are raw cell tuples here; the miner wraps them into
    :class:`~repro.core.pattern.TrajectoryPattern` only at the API surface.
    ``max_length`` caps the family members like every other candidate.
    """

    def __init__(
        self, k: int, min_length: int = 1, max_length: int | None = None
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if min_length < 1:
            raise ValueError("min_length must be at least 1")
        self.k = k
        self.min_length = min_length
        self.max_length = max_length
        self._exact: dict[Cells, float] = {}  # explicit: active, exactly evaluated
        self._evaluated: dict[Cells, float] = {}  # every exact score ever computed
        self._roots: dict[Cells, float] = {}  # live family roots -> NM
        self._alphabet: dict[int, float] = {}  # singular cell -> NM
        self._alphabet_cells: list[int] = []  # NM desc, cell asc
        self._alphabet_values: list[float] = []
        self._omega = -math.inf

    # -- insertion / lookup --------------------------------------------------

    def seed_alphabet(self, table: Iterable[tuple[int, float]]) -> None:
        """Insert every singular pattern exactly; they extend the family roots."""
        for cell, nm in table:
            self.insert_exact((cell,), nm)
            self._alphabet[cell] = nm
        ranked = sorted(self._alphabet.items(), key=lambda item: (-item[1], item[0]))
        self._alphabet_cells = [cell for cell, _ in ranked]
        self._alphabet_values = [nm for _, nm in ranked]

    def __contains__(self, cells: Cells) -> bool:
        return cells in self._exact or self._family_bound(cells, self._roots) is not None

    def __len__(self) -> int:
        return len(self._exact) + self.n_implicit

    @property
    def n_exact(self) -> int:
        return len(self._exact)

    @property
    def n_singulars(self) -> int:
        """Size of the singular alphabet ``A``."""
        return len(self._alphabet)

    @property
    def n_implicit(self) -> int:
        """Members of live families that are not explicit entries.

        Counted, not enumerated: ``2|A|`` per live root shorter than
        ``max_length``, minus the members two roots share (a member
        ``c`` with both ``c[:-1]`` and ``c[1:]`` live, counted once per
        ordered root pair), minus the explicit members.
        """
        roots = [
            r for r in self._roots if self.max_length is None or len(r) < self.max_length
        ]
        alphabet = self._alphabet
        heads: dict[Cells, int] = {}
        for r in roots:
            if r[-1] in alphabet:
                heads[r[:-1]] = heads.get(r[:-1], 0) + 1
        shared = sum(heads.get(r[1:], 0) for r in roots if r[0] in alphabet)
        lengths = {len(r) + 1 for r in roots}
        explicit = sum(
            1
            for c in self._exact
            if len(c) in lengths and self._family_bound(c, self._roots) is not None
        )
        return 2 * len(alphabet) * len(roots) - shared - explicit

    def value(self, cells: Cells) -> float:
        """Exact NM of an explicit pattern, or the bound of an implicit member."""
        v = self._exact.get(cells)
        if v is not None:
            return v
        bound = self._family_bound(cells, self._roots)
        if bound is None:
            raise KeyError(cells)
        return bound

    def is_evaluated(self, cells: Cells) -> bool:
        """Whether the pattern has ever been scored exactly (active or pruned)."""
        return cells in self._evaluated

    def insert_exact(self, cells: Cells, nm: float) -> None:
        """Add an exactly evaluated pattern (an implicit member becomes explicit)."""
        self._exact[cells] = nm
        self._evaluated[cells] = nm

    def reactivate(self, cells: Cells) -> None:
        """Bring a previously pruned exact pattern back into ``Q`` (cache hit)."""
        self._exact[cells] = self._evaluated[cells]

    def remove(self, cells: Cells) -> None:
        """Drop an explicit pattern from ``Q`` (its exact score stays cached)."""
        del self._exact[cells]

    # -- singular-extension families -----------------------------------------

    def is_root(self, cells: Cells) -> bool:
        """Whether ``cells`` is a live family root (it has been extended)."""
        return cells in self._roots

    def extend(self, root: Cells) -> int:
        """Make the explicit pattern ``root`` a live family root.

        Its members join ``Q`` implicitly.  Members scored earlier and
        pruned since come back as explicit entries, as any regenerated
        cached pattern does; returns how many.
        """
        self._roots[root] = self._exact[root]
        if len(self._evaluated) == len(self._exact) or not self._has_members(root):
            return 0
        reactivated = 0
        for s in self._alphabet:
            for cells in (root + (s,), (s,) + root):
                if cells in self._evaluated and cells not in self._exact:
                    self.reactivate(cells)
                    reactivated += 1
        return reactivated

    def retire_roots(self, high: dict[Cells, float]) -> None:
        """Drop the roots that left the high set; their implicit members go too."""
        self._roots = {r: nm for r, nm in self._roots.items() if r in high}

    def members_at_least(self, root: Cells, threshold: float) -> Iterator[Cells]:
        """Members of ``root``'s family whose bound through ``root`` reaches ``threshold``.

        They are ``root + s`` and ``s + root`` for a prefix of the singular
        table: the bound is monotone in ``NM(s)``.
        """
        if not self._has_members(root):
            return
        n = self._prefix(len(root), self._exact[root], threshold)
        for s in self._alphabet_cells[:n]:
            yield root + (s,)
            yield (s,) + root

    def partners(self) -> Partners:
        """The extension partners in ``Q`` now, for one round of candidate generation."""
        return Partners(self)

    def _has_members(self, root: Cells) -> bool:
        return self.max_length is None or len(root) < self.max_length

    def _prefix(self, length: int, root_nm: float, threshold: float) -> int:
        """How many singulars lift a ``length``-root's member bound to ``threshold``."""
        return bisect_left(
            self._alphabet_values,
            True,
            key=lambda s_nm: concat_bound(length, root_nm, 1, s_nm) < threshold,
        )

    def _family_bound(self, cells: Cells, roots: dict[Cells, float]) -> float | None:
        """Bound of ``cells`` as a member of the given roots (``None``: no member)."""
        n = len(cells) - 1
        if n < 1 or (self.max_length is not None and n >= self.max_length):
            return None
        bound = None
        root_nm, s_nm = roots.get(cells[:-1]), self._alphabet.get(cells[-1])
        if root_nm is not None and s_nm is not None:
            bound = concat_bound(n, root_nm, 1, s_nm)
        root_nm, s_nm = roots.get(cells[1:]), self._alphabet.get(cells[0])
        if root_nm is not None and s_nm is not None:
            other = concat_bound(n, root_nm, 1, s_nm)
            bound = other if bound is None else min(bound, other)
        return bound

    # -- threshold and split ----------------------------------------------------

    @property
    def omega(self) -> float:
        """Current NM threshold (non-decreasing over the run)."""
        return self._omega

    def update_omega(self) -> float:
        """Recompute ``omega`` as the k-th largest exact NM among qualifying patterns.

        With fewer than ``k`` qualifying patterns the threshold stays at
        ``-inf`` (everything counts as high), matching section 5's treatment
        of the minimum-length variant before enough long patterns exist.
        """
        qualifying = sorted(
            (nm for cells, nm in self._exact.items() if len(cells) >= self.min_length),
            reverse=True,
        )
        if len(qualifying) >= self.k:
            self._omega = max(self._omega, qualifying[self.k - 1])
        return self._omega

    def high_patterns(self) -> dict[Cells, float]:
        """Patterns with exact NM >= omega, i.e. the seed set ``H``."""
        if math.isinf(self._omega):
            return dict(self._exact)
        return {c: v for c, v in self._exact.items() if v >= self._omega}

    def low_patterns(self) -> dict[Cells, float]:
        """The explicit patterns of ``Q`` below ``omega``."""
        if math.isinf(self._omega):
            return {}
        return {c: v for c, v in self._exact.items() if v < self._omega}

    def membership(self) -> tuple[frozenset[Cells], frozenset[Cells]]:
        """Snapshot of ``Q``: its explicit patterns and its live family roots.

        The roots stand for their implicit members.  The miner filters the
        explicit patterns down to the relevant extension partners (Lemma 1)
        and compares successive snapshots to detect convergence.
        """
        return frozenset(self._exact), frozenset(self._roots)

    # -- results -----------------------------------------------------------------

    def top_k(self) -> list[tuple[Cells, float]]:
        """The final answer: k best qualifying patterns, deterministically ordered."""
        qualifying = [
            (c, v) for c, v in self._exact.items() if len(c) >= self.min_length
        ]
        qualifying.sort(key=lambda item: sort_key(item[0], item[1]))
        return qualifying[: self.k]


class Partners:
    """The extension partners of one round of candidate generation.

    Frozen when the round starts: explicit patterns grouped by length and
    sorted by value descending, plus the family roots live at that moment.
    Roots the round extends become partners from the next round.
    """

    def __init__(self, book: PatternBook) -> None:
        self._book = book
        groups: dict[int, list[tuple[float, Cells]]] = {}
        for cells, v in book._exact.items():
            groups.setdefault(len(cells), []).append((v, cells))
        self._explicit: dict[int, tuple[list[float], list[Cells]]] = {}
        for length, items in groups.items():
            items.sort(key=lambda it: (-it[0], it[1]))
            # Ascending negated values, for bisect.
            self._explicit[length] = ([-v for v, _ in items], [c for _, c in items])
        self._exact = frozenset(book._exact)
        self._roots = dict(book._roots)
        self._roots_by_length: dict[int, list[tuple[Cells, float]]] = {}
        for root, nm in self._roots.items():
            if book._has_members(root):
                self._roots_by_length.setdefault(len(root), []).append((root, nm))

    def lengths(self) -> list[int]:
        """Partner lengths present, ascending."""
        return sorted(
            set(self._explicit) | {n + 1 for n in self._roots_by_length}
        )

    def at_least(self, length: int, tau: float) -> Iterator[tuple[Cells, float]]:
        """``(partner, value)`` for every ``length``-partner whose value is >= ``tau``.

        Explicit partners come first, by value descending; then each live
        root's implicit members over the prefix of the singular table that
        reaches ``tau``.  A member of two live roots is yielded once, from
        ``c[:-1]``'s family, valued at the smaller of its two bounds.
        """
        book = self._book
        neg_values, cells_list = self._explicit.get(length, ((), ()))
        for idx in range(bisect_right(neg_values, -tau)):
            yield cells_list[idx], -neg_values[idx]
        n = length - 1
        exact, alphabet, roots = self._exact, book._alphabet, self._roots
        for root, root_nm in self._roots_by_length.get(n, ()):
            prefix = book._alphabet_cells[: book._prefix(n, root_nm, tau)]
            for s in prefix:
                cells = root + (s,)
                if cells in exact:
                    continue
                value = book._family_bound(cells, roots)
                if value >= tau:
                    yield cells, value
            for s in prefix:
                cells = (s,) + root
                if cells in exact or (
                    cells[:-1] in roots and cells[-1] in alphabet
                ):
                    continue
                yield cells, concat_bound(n, root_nm, 1, book._alphabet[s])
