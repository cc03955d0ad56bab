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

Incremental bookkeeping: :meth:`PatternBook.settle` updates everything
the main loop reads after an iteration from the *fresh* entries --
explicit patterns inserted or reactivated since the last settle -- and
builds no container the size of the book.  ``omega`` is the least of a
heap of the ``k`` best qualifying values (pruning removes only lows and
reactivation restores only pruned lows, so neither touches it); the high
set is the previous one plus the fresh entries, filtered at the new
``omega``; Definition 5 is re-checked only for the fresh lows, the highs
that fell below ``omega`` and their explicit singular extensions; the
explicit patterns stay in per-length lists sorted by value, which
candidate generation reads directly; and the explicit family members
behind :attr:`PatternBook.n_implicit` are counted per length.

The minimum-length variant of section 5 changes only how ``omega`` is
computed: it is the k-th largest NM *among patterns of length >= d*, while
the high/low split of the whole book still uses plain NM comparison.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from typing import Iterable, Iterator, NamedTuple

from repro.core.pruning import prune_low_patterns, satisfies_one_extension

Cells = tuple[int, ...]


def sort_key(cells: Cells, nm: float) -> tuple:
    """Deterministic "better first" ordering: NM desc, shorter first, cells asc."""
    return (-nm, len(cells), cells)


def concat_bound(i: int, nm_a: float, j: int, nm_b: float) -> float:
    """Property 1's weighted-mean bound on an ``i``-pattern joined to a ``j``-pattern."""
    return (i * nm_a + j * nm_b) / (i + j)


class Settled(NamedTuple):
    """What one :meth:`PatternBook.settle` changed.

    ``pruned`` counts the explicit patterns pruned plus the implicit
    members that left ``Q`` with their retired roots; ``converged`` is
    the main loop's fixed-point test (see :meth:`PatternBook.settle`).
    """

    pruned: int
    converged: bool


class PatternBook:
    """The pattern store behind the miner's ``Q`` / ``H`` / ``L`` sets.

    Patterns are raw cell tuples here; the miner wraps them into
    :class:`~repro.core.pattern.TrajectoryPattern` only at the API surface.
    ``max_length`` caps the family members like every other candidate.
    A pattern is inserted once; a pruned one comes back through
    :meth:`reactivate`.
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
        self._best: list[float] = []  # min-heap of the k best qualifying values
        self._high: dict[Cells, float] = {}  # as of the last settle
        # Explicit entries inserted or reactivated since the last settle;
        # every other explicit entry is in ``_listed``, by length, sorted
        # by value descending then cells.
        self._fresh: dict[Cells, None] = {}
        self._listed: dict[int, list[Cells]] = {}
        # Explicit family members per length; lengths in ``_recount`` are
        # stale (a root one shorter was extended or retired).
        self._members: dict[int, int] = {}
        self._recount: set[int] = set()
        self._n_extended = 0  # roots extended since the last settle
        self._settled_omega = -math.inf
        # Whether every explicit low met Definition 5 at the last settle.
        self._lows_checked = True

    # -- insertion / lookup --------------------------------------------------

    def seed_alphabet(self, table: Iterable[tuple[int, float]]) -> None:
        """Insert every singular pattern exactly; they extend the family roots."""
        for cell, nm in table:
            self._alphabet[cell] = nm
            self.insert_exact((cell,), nm)
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
        roots = [r for r in self._roots if self._has_members(r)]
        alphabet = self._alphabet
        heads: dict[Cells, int] = {}
        for r in roots:
            if r[-1] in alphabet:
                heads[r[:-1]] = heads.get(r[:-1], 0) + 1
        shared = sum(heads.get(r[1:], 0) for r in roots if r[0] in alphabet)
        return 2 * len(alphabet) * len(roots) - shared - self._explicit_members()

    def _explicit_members(self) -> int:
        """Explicit entries in a live family, after recounting the stale lengths."""
        if self._recount:
            for length in self._recount:
                self._members[length] = sum(
                    map(self._is_member, self._listed.get(length, ()))
                )
            for cells in self._fresh:
                if len(cells) in self._recount and self._is_member(cells):
                    self._members[len(cells)] += 1
            self._recount.clear()
        return sum(self._members.values())

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
        """Add an exactly evaluated pattern (an implicit member becomes explicit).

        A pattern scored before is left as it is: a repeated seed adds
        nothing.
        """
        if cells in self._evaluated:
            return
        self._evaluated[cells] = nm
        if len(cells) >= self.min_length:
            if len(self._best) < self.k:
                heapq.heappush(self._best, nm)
            elif nm > self._best[0]:
                heapq.heapreplace(self._best, nm)
        self._add(cells, nm)

    def reactivate(self, cells: Cells) -> None:
        """Bring a previously pruned exact pattern back into ``Q`` (cache hit)."""
        self._add(cells, self._evaluated[cells])

    def remove(self, cells: Cells) -> None:
        """Drop an explicit pattern from ``Q`` (its exact score stays cached)."""
        self._count_member(cells, -1)
        if cells in self._fresh:
            del self._fresh[cells]
        else:
            listed = self._listed[len(cells)]
            del listed[bisect_left(listed, self._list_key(cells), key=self._list_key)]
            if not listed:
                del self._listed[len(cells)]
        del self._exact[cells]

    def _add(self, cells: Cells, nm: float) -> None:
        self._exact[cells] = nm
        self._fresh[cells] = None
        self._count_member(cells, 1)

    def _count_member(self, cells: Cells, delta: int) -> None:
        length = len(cells)
        if length not in self._recount and self._is_member(cells):
            self._members[length] = self._members.get(length, 0) + delta

    def _is_member(self, cells: Cells) -> bool:
        """Whether ``cells`` is in a live root's family (``_family_bound`` is set)."""
        n = len(cells) - 1
        if n < 1 or (self.max_length is not None and n >= self.max_length):
            return False
        roots, alphabet = self._roots, self._alphabet
        return (cells[-1] in alphabet and cells[:-1] in roots) or (
            cells[0] in alphabet and cells[1:] in roots
        )

    def _list_key(self, cells: Cells) -> tuple[float, Cells]:
        return (-self._exact[cells], cells)

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
        self._recount.add(len(root) + 1)
        self._n_extended += 1
        if len(self._evaluated) == len(self._exact) or not self._has_members(root):
            return 0
        reactivated = 0
        for s in self._alphabet:
            for cells in (root + (s,), (s,) + root):
                if cells in self._evaluated and cells not in self._exact:
                    self.reactivate(cells)
                    reactivated += 1
        return reactivated

    def retire_roots(self, roots: Iterable[Cells]) -> None:
        """Drop the given live roots; their implicit members leave ``Q`` too."""
        for root in roots:
            del self._roots[root]
            self._recount.add(len(root) + 1)

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
        """The extension partners in ``Q`` as of the last settle, for one round."""
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

    # -- threshold, split and the per-iteration update ---------------------------

    @property
    def omega(self) -> float:
        """Current NM threshold (non-decreasing over the run)."""
        return self._omega

    @property
    def high(self) -> dict[Cells, float]:
        """The high set ``H`` (exact NM >= omega) as of the last :meth:`settle`."""
        return self._high

    def update_omega(self) -> float:
        """Raise ``omega`` to the k-th largest exact NM among qualifying patterns.

        With fewer than ``k`` qualifying patterns the threshold stays at
        ``-inf`` (everything counts as high), matching section 5's treatment
        of the minimum-length variant before enough long patterns exist.
        """
        if len(self._best) == self.k:
            self._omega = max(self._omega, self._best[0])
        return self._omega

    def settle(self, prune: bool) -> Settled:
        """Fold the entries added since the last settle into ``omega`` and ``H``.

        With ``prune`` (section 4.1's 1-extension pruning) the explicit
        lows that fail Definition 5 against the new high set leave ``Q``,
        and so do the family roots that left the high set, with their
        implicit members.  Lows with the property are kept, so every
        explicit low is a relevant extension partner afterwards.

        ``converged`` is the main loop's fixed point: the high set, the
        live roots and the *relevant* explicit partners -- high patterns
        and lows with the 1-extension property, the only partners Lemma 1
        admits -- are all as they were at the previous settle.  Every
        fresh entry was outside ``Q`` then, and while the high set stays
        put no other entry changes relevance and pruning removes only
        fresh ones, so the partners stand still exactly when no fresh
        entry survives as a relevant one.
        """
        omega = self.update_omega()
        high = self._high
        departed = [cells for cells, v in high.items() if v < omega]
        for cells in departed:
            del high[cells]
        entered = 0
        for cells in self._fresh:
            v = self._exact[cells]
            if v >= omega:
                high[cells] = v
                entered += 1
        pruned = 0
        if prune:
            implicit_before = self.n_implicit
            failing = prune_low_patterns(self._unchecked_lows(departed), high)
            for cells in failing:
                self.remove(cells)
            self.retire_roots([r for r in departed if r in self._roots])
            pruned = len(failing) + implicit_before - self.n_implicit
        converged = not (departed or entered or self._n_extended) and not any(
            satisfies_one_extension(cells, high) for cells in self._fresh
        )
        self._merge_fresh()
        self._n_extended = 0
        self._settled_omega = omega
        self._lows_checked = prune or math.isinf(omega)
        return Settled(pruned, converged)

    def _unchecked_lows(self, departed: list[Cells]) -> Iterator[Cells]:
        """The explicit lows whose Definition 5 status may have changed.

        The fresh lows, the departed highs, and the explicit ``h + (s,)`` /
        ``(s,) + h`` of each departed ``h``, found in the partner list one
        longer than ``h`` (so ``s`` may lie outside the alphabet).  They
        need no search when ``omega`` was ``-inf`` at the last settle:
        every older entry was high then.  After a settle that did not
        prune, every low is unchecked: the first pruning pass of a run
        checks all the seeds.
        """
        omega, exact = self._omega, self._exact
        if not self._lows_checked:
            yield from (cells for cells, v in exact.items() if v < omega)
            return
        yield from (cells for cells in self._fresh if exact[cells] < omega)
        yield from departed
        if not departed or math.isinf(self._settled_omega):
            return
        gone = set(departed)
        for length in {len(h) + 1 for h in departed}:
            for cells in self._listed.get(length, ()):
                if (
                    (cells[:-1] in gone or cells[1:] in gone)
                    and cells not in gone
                    and exact[cells] < omega
                ):
                    yield cells

    def _merge_fresh(self) -> None:
        """Move the fresh entries into the sorted per-length lists."""
        by_length: dict[int, list[Cells]] = {}
        for cells in self._fresh:
            by_length.setdefault(len(cells), []).append(cells)
        self._fresh.clear()
        for length, new in by_length.items():
            listed = self._listed.setdefault(length, [])
            if len(new) * 16 < len(listed):
                for cells in new:
                    insort(listed, cells, key=self._list_key)
            else:
                listed += new
                listed.sort(key=self._list_key)

    # -- results -----------------------------------------------------------------

    def top_k(self) -> list[tuple[Cells, float]]:
        """The final answer: k best qualifying patterns, deterministically ordered."""
        return heapq.nsmallest(
            self.k,
            ((c, v) for c, v in self._exact.items() if len(c) >= self.min_length),
            key=lambda item: sort_key(*item),
        )


class Partners:
    """The extension partners of one round of candidate generation.

    The book's state when the round starts: its explicit patterns by
    length, read from the book's sorted lists, plus the family roots live
    at that moment.  Patterns the round reactivates are fresh in the book,
    and roots it extends become partners from the next round.  Valid
    until the book next settles.
    """

    def __init__(self, book: PatternBook) -> None:
        self._book = book
        self._roots = dict(book._roots)
        self._roots_by_length: dict[int, list[tuple[Cells, float]]] = {}
        for root, nm in self._roots.items():
            if book._has_members(root):
                self._roots_by_length.setdefault(len(root), []).append((root, nm))

    def lengths(self) -> list[int]:
        """Partner lengths present, ascending."""
        return sorted(
            set(self._book._listed) | {n + 1 for n in self._roots_by_length}
        )

    def at_least(self, length: int, tau: float) -> Iterator[tuple[Cells, float]]:
        """``(partner, value)`` for every ``length``-partner whose value is >= ``tau``.

        Explicit partners come first, by value descending; then each live
        root's implicit members over the prefix of the singular table that
        reaches ``tau``.  A member of two live roots is yielded once, from
        ``c[:-1]``'s family, valued at the smaller of its two bounds.
        """
        book = self._book
        exact, fresh = book._exact, book._fresh
        listed = book._listed.get(length, ())
        for idx in range(bisect_right(listed, -tau, key=lambda c: -exact[c])):
            cells = listed[idx]
            yield cells, exact[cells]
        n = length - 1
        alphabet, roots = book._alphabet, self._roots
        for root, root_nm in self._roots_by_length.get(n, ()):
            prefix = book._alphabet_cells[: book._prefix(n, root_nm, tau)]
            for s in prefix:
                cells = root + (s,)
                if cells in exact and cells not in fresh:
                    continue
                value = book._family_bound(cells, roots)
                if value >= tau:
                    yield cells, value
            for s in prefix:
                cells = (s,) + root
                if (cells in exact and cells not in fresh) or (
                    cells[:-1] in roots and cells[-1] in alphabet
                ):
                    continue
                yield cells, concat_bound(n, root_nm, 1, book._alphabet[s])
