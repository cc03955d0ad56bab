"""The 1-extension pruning of section 4.1.

Without pruning the candidate set ``Q`` grows by a ``2k`` factor per
iteration.  Lemma 1 shows that every high pattern can be produced by
extending a high pattern with either a high pattern or a *low pattern
satisfying the 1-extension property* -- so every other low pattern can be
discarded from ``Q`` without losing completeness.

Definition 5: a ``j``-pattern (``j > 1``) satisfies the 1-extension property
iff the ``(j-1)``-pattern obtained by deleting its first or last position is
a high pattern; every 1-pattern satisfies it unconditionally.
"""

from __future__ import annotations

from typing import Iterable

Cells = tuple[int, ...]


def satisfies_one_extension(cells: Cells, high: set[Cells] | dict[Cells, float]) -> bool:
    """Definition 5 against the given set of high patterns."""
    if len(cells) == 1:
        return True
    return cells[1:] in high or cells[:-1] in high


def prune_low_patterns(
    low: Iterable[Cells], high: set[Cells] | dict[Cells, float]
) -> list[Cells]:
    """The low patterns that fail Definition 5 against ``high``.

    The caller removes them from ``Q``; their scores stay cached in the
    :class:`~repro.core.topk.PatternBook` so a later regeneration is free.
    ``low`` may be any iterable of lows, such as the few whose status an
    iteration changed; the kept ones are not collected.
    """
    return [cells for cells in low if not satisfies_one_extension(cells, high)]
