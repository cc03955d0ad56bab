"""Unit tests for the 1-extension pruning (section 4.1, Definition 5)."""

from repro.core.pruning import prune_low_patterns, satisfies_one_extension


class TestDefinition5:
    def test_singular_always_satisfies(self):
        assert satisfies_one_extension((7,), high=set())

    def test_prefix_high(self):
        assert satisfies_one_extension((1, 2, 3), high={(1, 2)})

    def test_suffix_high(self):
        assert satisfies_one_extension((1, 2, 3), high={(2, 3)})

    def test_neither_high(self):
        assert not satisfies_one_extension((1, 2, 3), high={(1, 3), (2,)})

    def test_interior_subpattern_does_not_count(self):
        # (2,) is a sub-pattern but not obtained by deleting first/last once.
        assert not satisfies_one_extension((1, 2, 3), high={(2,)})

    def test_accepts_dict_high(self):
        assert satisfies_one_extension((1, 2), high={(1,): -1.0})


class TestPrune:
    def test_partition(self):
        high = {(1, 2), (5,)}
        low = [(9,), (1, 2, 3), (4, 5, 6), (5, 7)]
        assert prune_low_patterns(low, high) == [(4, 5, 6)]

    def test_empty_low(self):
        assert prune_low_patterns([], {(1,)}) == []

    def test_everything_pruned_without_high(self):
        pruned = prune_low_patterns(iter([(1, 2), (3, 4)]), set())
        assert set(pruned) == {(1, 2), (3, 4)}
