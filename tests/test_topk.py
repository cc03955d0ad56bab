"""Unit tests for the PatternBook (Q / omega / high-low bookkeeping)."""

import math

import pytest

from repro.core.topk import PatternBook, concat_bound, sort_key


def family_book(k=2, max_length=None):
    """Singulars 0..2 with NM -1, -2, -3, and (0,) extended as a family root."""
    book = PatternBook(k=k, max_length=max_length)
    book.seed_alphabet([(0, -1.0), (1, -2.0), (2, -3.0)])
    book.update_omega()
    book.extend((0,))
    return book


class TestSortKey:
    def test_orders_by_nm_then_length_then_cells(self):
        items = [((2,), -5.0), ((1,), -3.0), ((1, 2), -3.0), ((0,), -3.0)]
        ordered = sorted(items, key=lambda it: sort_key(*it))
        assert ordered == [((0,), -3.0), ((1,), -3.0), ((1, 2), -3.0), ((2,), -5.0)]


class TestInsertion:
    def test_exact_and_bounded_membership(self):
        book = family_book()
        # (0,)'s members: (0, s) and (s, 0) for s in 0..2, (0, 0) once.
        members = {(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)}
        assert all(cells in book for cells in members)
        assert (1, 2) not in book and (0, 1, 2) not in book
        assert book.n_exact == 3
        assert book.n_implicit == len(members)
        assert len(book) == 3 + len(members)

    def test_value_prefers_exact(self):
        book = family_book()
        assert book.value((1,)) == -2.0
        assert book.value((0, 2)) == concat_bound(1, -1.0, 1, -3.0) == -2.0
        with pytest.raises(KeyError):
            book.value((1, 2))

    def test_exact_supersedes_bounded(self):
        book = family_book()
        book.insert_exact((0, 1), -10.0)
        assert book.n_implicit == 4
        assert book.value((0, 1)) == -10.0

    def test_bounded_never_downgrades_exact(self):
        book = PatternBook(k=2)
        book.seed_alphabet([(0, -1.0), (1, -2.0)])
        book.insert_exact((0, 1), -9.0)
        book.extend((0,))
        assert book.value((0, 1)) == -9.0
        assert book.n_implicit == 2  # (0, 0) and (1, 0)

    def test_remove_keeps_exact_cache(self):
        book = PatternBook(k=1)
        book.insert_exact((1, 2), -3.0)
        book.remove((1, 2))
        assert (1, 2) not in book
        assert book.is_evaluated((1, 2))
        book.reactivate((1, 2))
        assert book.value((1, 2)) == -3.0

    def test_remove_bounded(self):
        book = family_book()
        book.retire_roots([(0,)])
        assert (0, 1) not in book
        assert not book.is_evaluated((0, 1))
        assert book.n_implicit == 0

    def test_extend_reactivates_cached_members(self):
        book = PatternBook(k=2)
        book.seed_alphabet([(0, -1.0), (1, -2.0)])
        book.insert_exact((1, 0), -7.0)
        book.remove((1, 0))
        assert book.extend((0,)) == 1
        assert book.value((1, 0)) == -7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternBook(k=0)
        with pytest.raises(ValueError):
            PatternBook(k=1, min_length=0)


class TestFamilies:
    def test_two_roots_share_members(self):
        book = family_book()
        book.extend((1,))
        # (0, 1) and (1, 0) belong to both families; (0, 0) and (1, 1) to one.
        assert book.n_implicit == 2 * 2 * 3 - 2 - 2
        # A shared member takes the smaller of its two bounds.
        assert book.value((1, 0)) == min(
            concat_bound(1, -1.0, 1, -2.0), concat_bound(1, -2.0, 1, -1.0)
        )

    def test_members_at_least_is_a_prefix_of_the_singular_table(self):
        book = family_book()
        book.extend((1,))
        # (1,)'s bound with s: (-2 + NM(s)) / 2 -> -1.5, -2.0, -2.5.
        assert list(book.members_at_least((1,), -2.0)) == [
            (1, 0), (0, 1), (1, 1), (1, 1),
        ]  # fmt: skip
        assert list(book.members_at_least((1,), -1.0)) == []
        assert len(list(book.members_at_least((1,), -math.inf))) == 6

    def test_max_length_caps_members(self):
        book = family_book(max_length=2)
        book.insert_exact((0, 1), -1.5)
        book.extend((0, 1))
        assert (0, 1, 0) not in book
        assert list(book.members_at_least((0, 1), -math.inf)) == []
        assert book.n_implicit == 4  # (0,)'s five members, one explicit

    def test_retired_root_keeps_members_of_live_roots(self):
        book = family_book()
        book.extend((1,))
        book.retire_roots([(0,)])
        assert (1, 0) in book and (0, 1) in book
        assert (0, 2) not in book
        assert book.value((1, 0)) == concat_bound(1, -2.0, 1, -1.0)


class TestOmega:
    def test_omega_is_kth_best(self):
        book = PatternBook(k=2)
        for i, nm in enumerate([-1.0, -3.0, -2.0]):
            book.insert_exact((i,), nm)
        assert book.update_omega() == -2.0

    def test_omega_inf_until_k_patterns(self):
        book = PatternBook(k=3)
        book.insert_exact((0,), -1.0)
        assert math.isinf(book.update_omega())

    def test_omega_never_decreases(self):
        book = PatternBook(k=1)
        book.insert_exact((0,), -1.0)
        assert book.update_omega() == -1.0
        book.insert_exact((1,), -5.0)
        assert book.update_omega() == -1.0

    def test_omega_ignores_bounded(self):
        # (0, 0)'s bound -1.0 would be the 4th best value; omega ignores it.
        book = family_book(k=4)
        assert book.value((0, 0)) == -1.0
        assert math.isinf(book.update_omega())

    def test_min_length_variant(self):
        book = PatternBook(k=1, min_length=2)
        book.insert_exact((0,), -0.1)  # short: does not qualify
        assert math.isinf(book.update_omega())
        book.insert_exact((0, 1), -2.0)
        assert book.update_omega() == -2.0


class TestHighLow:
    def make_book(self):
        book = family_book()
        book.insert_exact((1, 2), -9.0)
        book.settle(prune=False)
        return book

    def test_split(self):
        book = self.make_book()
        assert set(book.high) == {(0,), (1,)}
        # The explicit lows; implicit members are low but counted, not listed.
        assert {c for c in [(2,), (1, 2)] if book.value(c) < book.omega} == {
            (2,), (1, 2)
        }
        assert book.n_exact == len(book.high) + 2

    def test_everything_high_while_omega_inf(self):
        book = PatternBook(k=5)
        book.insert_exact((0,), -1.0)
        book.insert_exact((0, 1), -9.0)
        book.settle(prune=True)
        assert math.isinf(book.omega)
        assert set(book.high) == {(0,), (0, 1)}
        assert book.n_exact == 2

    def test_partners_by_length_sorted(self):
        book = self.make_book()
        partners = book.partners()
        assert partners.lengths() == [1, 2]
        singulars = list(partners.at_least(1, -math.inf))
        assert [v for _, v in singulars] == [-1.0, -2.0, -3.0]
        pairs = dict(partners.at_least(2, -math.inf))
        # The explicit (1, 2) and (0,)'s five implicit members.
        assert pairs.pop((1, 2)) == -9.0
        assert pairs == {
            (0, s): concat_bound(1, -1.0, 1, v) for s, v in ((0, -1.0), (1, -2.0), (2, -3.0))
        } | {(s, 0): concat_bound(1, -1.0, 1, v) for s, v in ((1, -2.0), (2, -3.0))}
        assert [c for c, _ in partners.at_least(2, -1.5)] == [(0, 0), (0, 1), (1, 0)]

    def test_partners_ignore_roots_extended_after_the_snapshot(self):
        book = self.make_book()
        partners = book.partners()
        book.extend((1,))
        assert (1, 1) not in dict(partners.at_least(2, -math.inf))
        assert (1, 1) in dict(book.partners().at_least(2, -math.inf))


class TestTopK:
    def test_top_k_deterministic(self):
        book = PatternBook(k=2)
        book.insert_exact((5,), -1.0)
        book.insert_exact((1,), -1.0)
        book.insert_exact((9,), -2.0)
        top = book.top_k()
        assert [c for c, _ in top] == [(1,), (5,)]

    def test_top_k_respects_min_length(self):
        book = PatternBook(k=2, min_length=2)
        book.insert_exact((0,), -0.1)
        book.insert_exact((1, 2), -5.0)
        top = book.top_k()
        assert [c for c, _ in top] == [(1, 2)]


class TestSettle:
    """The per-iteration update: omega, the high set, pruning, convergence."""

    def make_book(self):
        book = PatternBook(k=1)
        book.seed_alphabet([(0, -1.0), (1, -2.0), (2, -3.0)])
        book.settle(prune=False)
        return book

    def test_high_set_follows_inserts(self):
        book = self.make_book()
        assert book.omega == -1.0 and set(book.high) == {(0,)}
        book.insert_exact((2, 2), -0.5)
        book.settle(prune=False)
        assert book.omega == -0.5 and set(book.high) == {(2, 2)}

    def test_departed_high_takes_its_dependents(self):
        book = self.make_book()
        book.insert_exact((0, 1), -5.0)  # a low kept by Definition 5 via (0,)
        assert book.settle(prune=True) == (0, False)
        book.insert_exact((2, 2), -0.5)  # (0,) leaves the high set
        pruned, converged = book.settle(prune=True)
        assert (pruned, converged) == (1, False)
        assert (0, 1) not in book and book.is_evaluated((0, 1))
        assert book.n_exact == 4

    def test_dependents_outside_the_alphabet(self):
        # A warm-start seed can end in a cell with no singular entry.
        book = self.make_book()
        book.insert_exact((0, 7), -5.0)
        book.settle(prune=True)
        assert (0, 7) in book
        book.insert_exact((2, 2), -0.5)
        assert book.settle(prune=True).pruned == 1
        assert (0, 7) not in book

    def test_first_pruning_pass_checks_the_seeds(self):
        book = PatternBook(k=1)
        book.seed_alphabet([(0, -1.0), (1, -2.0)])
        book.insert_exact((1, 1), -4.0)  # a seed no high end sub-pattern keeps
        book.settle(prune=False)
        assert (1, 1) in book
        assert book.settle(prune=True).pruned == 1
        assert (1, 1) not in book

    def test_converges_once_nothing_relevant_changes(self):
        book = self.make_book()
        assert book.settle(prune=True).converged
        book.extend((0,))
        assert not book.settle(prune=True).converged  # a new root
        book.insert_exact((1, 2), -9.0)  # fails Definition 5: pruned again
        assert book.settle(prune=True) == (1, True)
        book.reactivate((1, 2))
        assert book.settle(prune=False) == (0, True)  # irrelevant, kept

    def test_partner_lists_stay_sorted(self):
        book = self.make_book()
        for cells, nm in [((0, 1), -4.0), ((1, 0), -1.5), ((0, 0), -4.0)]:
            book.insert_exact(cells, nm)
        book.settle(prune=False)
        assert [c for c, _ in book.partners().at_least(2, -math.inf)] == [
            (1, 0), (0, 0), (0, 1)
        ]
        book.remove((0, 0))
        assert [v for _, v in book.partners().at_least(2, -4.0)] == [-1.5, -4.0]

    def test_omega_ignores_pruning(self):
        book = PatternBook(k=2, min_length=2)
        book.seed_alphabet([(0, -1.0)])
        book.insert_exact((0, 0), -2.0)
        book.insert_exact((1, 1), -3.0)
        book.settle(prune=True)
        assert book.omega == -3.0
        book.remove((1, 1))
        assert book.update_omega() == -3.0

    def test_repeated_seed_counts_once(self):
        book = PatternBook(k=2)
        book.seed_alphabet([(0, -1.0), (1, -5.0)])
        book.insert_exact((0, 0), -2.0)
        book.insert_exact((0, 0), -2.0)  # a warm-state seed listed twice
        book.settle(prune=False)
        assert book.omega == -2.0 and book.n_exact == 3
