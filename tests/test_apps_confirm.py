"""Equivalence of the vectorised confirmation index vs the scalar loops.

:class:`~repro.apps.confirm.ConfirmationIndex` replaced per-(pattern, q)
Python loops in the prediction library and the forecaster.  These tests
pin the refactor: the scalar reference below re-implements the historical
loop verbatim, and the vectorised path must reproduce it exactly up to the
final geometric-mean root (array-pow vs scalar-pow differ in the last ULP;
everything upstream -- ``prob_within`` inputs, sequential product order,
tie-breaking -- is identical).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.confirm import ConfirmationIndex
from repro.core import kernels
from repro.core.pattern import TrajectoryPattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.uncertainty.gaussian import ProbModel, prob_within


@pytest.fixture()
def grid():
    return Grid(BoundingBox(-1.0, -1.0, 1.0, 1.0), nx=8, ny=8)


@pytest.fixture()
def patterns(grid):
    rng = np.random.default_rng(42)
    out = []
    for length in (3, 3, 4, 5, 6, 4):
        cells = tuple(int(c) for c in rng.integers(0, grid.n_cells, size=length))
        out.append(TrajectoryPattern(cells))
    # One pattern with a constant prefix, for the nonconstant gate.
    out.append(TrajectoryPattern((5, 5, 9)))
    return out


def _scalar_confidences(patterns, grid, min_prefix, history, sigma, delta_eff, model):
    """The historical loop: one prob_within call per (pattern, q) pair."""
    h = len(history)
    conf, valid, meta = [], [], []
    for i, pattern in enumerate(patterns):
        centers = pattern.centers(grid)
        for q in range(min_prefix, len(pattern)):
            meta.append((i, q))
            if q > h:
                conf.append(0.0)
                valid.append(False)
                continue
            probs = prob_within(
                history[h - q : h],
                np.asarray(sigma, dtype=float),
                centers[:q],
                delta_eff,
                model=model,
            )
            conf.append(float(np.prod(probs)) ** (1.0 / q))
            valid.append(True)
    return np.asarray(conf), np.asarray(valid), meta


@pytest.mark.parametrize("model", [ProbModel.BOX, ProbModel.DISK])
@pytest.mark.parametrize("h", [2, 3, 5, 8])
def test_confidences_match_scalar_reference(grid, patterns, model, h):
    rng = np.random.default_rng(h)
    history = rng.uniform(-1.0, 1.0, size=(h, 2))
    sigma, delta_eff, min_prefix = 0.15, 0.4, 2

    index = ConfirmationIndex(patterns, grid, min_prefix)
    conf, valid = index.confidences(history, sigma, delta_eff, model)
    ref_conf, ref_valid, meta = _scalar_confidences(
        patterns, grid, min_prefix, history, sigma, delta_eff, model
    )

    assert [(int(i), int(q)) for i, q in zip(index.pattern_idx, index.q)] == meta
    np.testing.assert_array_equal(valid, ref_valid)
    # Same inputs and product order; the final root may differ by 1 ULP
    # (numpy array-pow vs scalar-pow code paths).
    np.testing.assert_allclose(conf[valid], ref_conf[ref_valid], rtol=5e-16, atol=0.0)


def test_best_candidate_matches_scalar_argmax(grid, patterns):
    """Longest confirmed context wins, ties by confidence, first wins."""
    rng = np.random.default_rng(7)
    min_prefix = 2
    index = ConfirmationIndex(patterns, grid, min_prefix)
    hits = 0
    for trial in range(50):
        history = rng.uniform(-1.0, 1.0, size=(rng.integers(2, 7), 2))
        sigma = float(rng.uniform(0.05, 0.3))
        delta_eff = float(rng.uniform(0.2, 0.8))
        threshold = float(rng.uniform(0.1, 0.6))

        conf, valid, meta = _scalar_confidences(
            patterns, grid, min_prefix, history, sigma, delta_eff, ProbModel.BOX
        )
        best_ref = None
        best_key = None
        for j, ((_, q), c, v) in enumerate(zip(meta, conf, valid)):
            if not v or c < threshold:
                continue
            key = (q, c)
            if best_key is None or key > best_key:  # strict: first wins ties
                best_key, best_ref = key, j

        got = index.best_candidate(
            history, sigma, delta_eff, ProbModel.BOX, threshold
        )
        assert got == best_ref
        hits += got is not None
    assert hits, "trial parameters never confirmed anything -- test is vacuous"


def test_nonconstant_gate_excludes_constant_prefixes(grid):
    # Pattern (5, 5, 9): its only prefix is the constant (5, 5).
    index = ConfirmationIndex([TrajectoryPattern((5, 5, 9))], grid, min_prefix=2)
    center = TrajectoryPattern((5, 5, 9)).centers(grid)[0]
    history = np.vstack([center, center])  # perfectly confirming history
    assert (
        index.best_candidate(history, 0.05, 0.5, ProbModel.BOX, 0.5)
        is not None
    )
    assert (
        index.best_candidate(
            history, 0.05, 0.5, ProbModel.BOX, 0.5, require_nonconstant=True
        )
        is None
    )


def test_vote_matches_scalar_accumulation(grid, patterns):
    rng = np.random.default_rng(3)
    min_prefix = 2
    index = ConfirmationIndex(patterns, grid, min_prefix)
    nonempty = 0
    for trial in range(30):
        history = rng.uniform(-1.0, 1.0, size=(rng.integers(2, 7), 2))
        sigma = float(rng.uniform(0.05, 0.3))
        delta_eff = float(rng.uniform(0.3, 0.9))
        threshold = float(rng.uniform(0.1, 0.5))

        conf, valid, meta = _scalar_confidences(
            patterns, grid, min_prefix, history, sigma, delta_eff, ProbModel.BOX
        )
        ref: dict[int, float] = {}
        for ((i, q), c, v) in zip(meta, conf, valid):
            if not v or c < threshold:
                continue
            cell = patterns[i].cells[q]
            ref[cell] = ref.get(cell, 0.0) + float(c * q)

        votes = index.vote(history, sigma, delta_eff, ProbModel.BOX, threshold)
        assert votes.keys() == ref.keys()
        for cell in ref:
            assert votes[cell] == pytest.approx(ref[cell], rel=1e-15)
        nonempty += bool(votes)
    assert nonempty, "no trial produced votes -- test is vacuous"


def test_compiled_backend_agrees_with_the_reference(grid, patterns):
    """The serving path's C box-Prob kernel (libm erf) vs the scipy default."""
    reason = kernels.compiled_unavailable_reason()
    if reason is not None:
        pytest.skip(f"compiled backend unavailable: {reason}")
    compiled = kernels.resolve_backend("compiled")
    reference = ConfirmationIndex(patterns, grid, min_prefix=2)
    native = ConfirmationIndex(patterns, grid, min_prefix=2, kernels=compiled)
    rng = np.random.default_rng(11)
    confirmed = voted = 0
    for trial in range(200):
        history = rng.uniform(-1.0, 1.0, size=(rng.integers(2, 9), 2))
        sigma = float(rng.uniform(0.05, 0.3))
        delta_eff = float(rng.uniform(0.2, 0.9))
        threshold = float(rng.uniform(0.1, 0.6))
        args = (history, sigma, delta_eff, ProbModel.BOX)
        conf, valid = native.confidences(*args)
        ref_conf, ref_valid = reference.confidences(*args)
        np.testing.assert_array_equal(valid, ref_valid)
        np.testing.assert_allclose(conf[valid], ref_conf[valid], rtol=1e-13, atol=0.0)
        best = native.best_candidate(*args, threshold)
        assert best == reference.best_candidate(*args, threshold)
        votes = native.vote(*args, threshold)
        ref_votes = reference.vote(*args, threshold)
        assert votes.keys() == ref_votes.keys()
        for cell, weight in ref_votes.items():
            assert votes[cell] == pytest.approx(weight, rel=1e-13, abs=0.0)
        confirmed += best is not None
        voted += bool(votes)
    assert confirmed and voted, "no trial confirmed anything -- test is vacuous"


def test_empty_library_yields_no_candidates(grid):
    index = ConfirmationIndex([], grid, min_prefix=2)
    history = np.zeros((4, 2))
    conf, valid = index.confidences(history, 0.1, 0.3, ProbModel.BOX)
    assert len(index) == 0 and conf.size == 0
    assert index.best_candidate(history, 0.1, 0.3, ProbModel.BOX, 0.5) is None
    assert index.vote(history, 0.1, 0.3, ProbModel.BOX, 0.5) == {}
