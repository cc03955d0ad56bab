"""The TrajPattern algorithm (paper section 4).

Mines the ``k`` trajectory patterns with the largest normalised match from a
set of imprecise trajectories.  The Apriori property does not hold for NM,
so the miner is built on the weaker **min-max** property (Property 1):

    ``NM(P1 + P2) <= (|P1| NM(P1) + |P2| NM(P2)) / (|P1| + |P2|)
                  <= max(NM(P1), NM(P2))``

Outline (section 4, observations 1-3):

1. Seed ``Q`` with all singular patterns over the active grid alphabet and
   set the threshold ``omega`` to the k-th largest NM.
2. Repeatedly extend every *high* pattern (NM >= omega) with every pattern
   in ``Q`` on both sides, score the new candidates, update ``omega`` and
   the high/low split, and prune low patterns that do not satisfy the
   1-extension property (section 4.1).
3. Stop when neither the high set nor the set of *relevant* extension
   partners (high patterns plus lows satisfying the 1-extension property,
   the only partners Lemma 1 allows in an answer) changes.  High-set
   stability alone is not enough: a low added in the final iteration is a
   new extension partner, and by the min-max property a top-k pattern may
   decompose as high + low.  Report the top-k and cluster them into
   pattern groups (section 4.2).

Lazy bound-based scoring (``use_bound_pruning``, on by default): a candidate
whose min-max weighted-mean upper bound falls below ``omega`` is *provably*
low, so its exact NM is never needed.  The lows Lemma 1 must keep as
extension partners are, for a high pattern ``P``, the singular extensions
``P + s`` / ``s + P``: extending ``P`` makes it a family root in the
:class:`~repro.core.topk.PatternBook`, whose members stay in ``Q``
implicitly at their bound, and only the members whose bound reaches
``omega`` are evaluated.  Every other provably-low candidate is discarded.
Every pattern that can influence ``omega`` or the answer is evaluated
exactly, so the mined top-k is unchanged; the test suite checks both modes
against a brute-force oracle.  Partner scanning uses the same bound: for a
high pattern ``P`` only partners whose value can lift the concatenation
bound to ``omega`` are considered, found by binary search over per-length
sorted partner lists and, for implicit members, over the singular table.
Discarded combinations are regenerated automatically if an end
sub-pattern later turns high.

Both pruning mechanisms are independently switchable for the ablation
benchmarks: ``use_extension_pruning`` (section 4.1) and
``use_bound_pruning`` (above; disabling it reproduces the paper's literal
evaluate-everything loop).

Candidate scoring is batched: every iteration's exact-evaluation list is
scored in one :meth:`~repro.core.engine.NMEngine.nm_batch` call (shared
column slices across the whole frontier) instead of one engine pass per
candidate.  :class:`MinerStats` records the batch sizes and the evaluation
wall time (``eval_batches``, ``max_batch_size``, ``eval_time_s``) and
:class:`IterationTrace` carries the per-iteration ``batch_size`` /
``eval_time_s`` so the speedup is observable in the benches.

Observability: :class:`MinerStats` keeps its evaluation bookkeeping on a
private always-enabled :class:`~repro.obs.metrics.MetricsRegistry`
(``stats.metrics``) -- ``eval_batches`` / ``max_batch_size`` /
``eval_time_s`` are thin read-only views over it -- and the run is folded
into the process-global registry when mining finishes.  Each main-loop
round runs inside a ``miner.iteration`` span, candidate scoring inside
``miner.evaluate``, and convergence / pruning decisions are logged on the
``repro.miner`` logger.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import NMEngine
from repro.core.groups import PatternGroup, discover_pattern_groups
from repro.core.pattern import TrajectoryPattern
from repro.core.pruning import satisfies_one_extension
from repro.core.topk import Cells, PatternBook, concat_bound, sort_key
from repro.obs import logs, manifest, metrics, tracing
from repro.obs.metrics import MetricsRegistry

_log = logs.get_logger("miner")


@dataclass
class IterationTrace:
    """Snapshot of the miner's state after one main-loop iteration.

    ``batch_size`` is the number of candidates the iteration scored through
    the engine's batched path in one call, and ``eval_time_s`` the wall time
    that evaluation took -- together they make the batching speedup visible
    per iteration.  ``rss_bytes`` is this process's resident set when the
    iteration ended (0 where ``/proc`` is missing); like ``eval_time_s`` it
    varies between runs, so trace comparisons ignore it.
    """

    iteration: int
    omega: float
    n_high: int
    n_exact: int
    n_bounded: int
    candidates_evaluated: int
    patterns_pruned: int
    batch_size: int = 0
    eval_time_s: float = 0.0
    rss_bytes: int = field(default=0, compare=False)


@dataclass
class MinerStats:
    """Instrumentation collected during a mining run (used by the benches).

    Evaluation bookkeeping lives on ``metrics``, a private always-enabled
    :class:`~repro.obs.metrics.MetricsRegistry` owned by the run (the
    process-global registry stays disabled by default, and a miner must
    keep exact numbers regardless).  The historical dataclass API is a
    thin view over it: ``eval_batches`` counts calls into the engine's
    batched evaluation, ``max_batch_size`` is the largest candidate batch
    scored in one call, and ``eval_time_s`` the total wall time spent
    inside candidate evaluation (a subset of ``wall_time_s``).

    Implicit family members (see :mod:`repro.core.topk`) are counted, not
    enumerated.  ``candidates_generated`` counts the distinct candidates an
    iteration looked at one by one; ``candidates_bounded`` the singular
    extensions a root's extension left implicit because their bound was
    below ``omega`` (two per singular past the evaluated prefix, so a member
    reachable from two roots can count twice).  ``final_q_size`` and each
    trace row's ``n_bounded`` include the implicit members, and
    ``patterns_pruned`` the implicit members that left with their root.
    ``stop_reason`` is ``"converged"`` or ``"max_iterations"``.
    """

    iterations: int = 0
    candidates_generated: int = 0
    candidates_evaluated: int = 0
    candidates_bounded: int = 0
    candidates_bound_pruned: int = 0
    candidates_cached: int = 0
    patterns_pruned: int = 0
    final_q_size: int = 0
    wall_time_s: float = 0.0
    stop_reason: str | None = None
    trace: list[IterationTrace] = field(default_factory=list)
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=True),
        repr=False,
        compare=False,
    )

    @property
    def eval_batches(self) -> int:
        """Calls into the engine's batched evaluation path."""
        return self.metrics.counter("miner.eval_batches").value

    @property
    def max_batch_size(self) -> int:
        """Largest candidate batch scored in one engine call."""
        histogram = self.metrics.histogram("miner.batch_size")
        return int(histogram.max) if histogram.count else 0

    @property
    def eval_time_s(self) -> float:
        """Total wall time inside candidate evaluation, in seconds."""
        return self.metrics.histogram("miner.eval_ns", unit="ns").total_seconds


@dataclass(frozen=True)
class WarmStartState:
    """Converged frontier of a previous run, reusable as mining seeds.

    ``seeds`` are the cell sequences (length >= 2; singulars are re-seeded
    from the alphabet anyway) that were live in the previous run's book --
    the high set plus the surviving lows.  Seeding is answer-preserving by
    construction: every seed is *evaluated exactly* before the main loop, so
    ``omega`` starts as a valid lower bound on the true k-th best NM and
    bound pruning stays provably safe.  On a lightly-changed dataset the
    previous winners land near their old scores, the threshold starts high,
    and convergence takes a fraction of the cold iterations.
    """

    seeds: tuple[Cells, ...]

    def __len__(self) -> int:
        return len(self.seeds)


@dataclass
class MiningResult:
    """Outcome of a mining run: ranked patterns, optional groups, stats."""

    patterns: list[TrajectoryPattern]
    nm_values: list[float]
    omega: float
    stats: MinerStats
    groups: list[PatternGroup] | None = None
    warm_state: WarmStartState | None = None

    def __len__(self) -> int:
        return len(self.patterns)

    def as_pairs(self) -> list[tuple[TrajectoryPattern, float]]:
        """(pattern, NM) pairs, best first."""
        return list(zip(self.patterns, self.nm_values))

    def mean_length(self) -> float:
        """Average pattern length (the statistic reported in section 6.1)."""
        if not self.patterns:
            return 0.0
        return sum(len(p) for p in self.patterns) / len(self.patterns)


def verify_top_k(
    engine, patterns: list[TrajectoryPattern], k: int
) -> list[tuple[TrajectoryPattern, float]]:
    """Re-score ``patterns`` on ``engine`` and return the best ``k``, best first.

    ``repro score`` runs this on an inline-pool engine, so a mined pattern
    set is confirmed out-of-core against a dataset too large for one
    resident index.
    """
    if k < 1:
        raise ValueError("k must be positive")
    values = engine.nm_batch(patterns)
    order = sorted(
        range(len(patterns)),
        key=lambda i: sort_key(patterns[i].cells, float(values[i])),
    )
    return [(patterns[i], float(values[i])) for i in order[:k]]


#: Rows per chunk of :func:`frequent_grams`' count (whole trajectories;
#: a longer trajectory is a chunk of its own).
_GRAM_CHUNK_ROWS = 2048


def frequent_grams(dataset, grid, length: int, limit: int) -> list[Cells]:
    """The ``limit`` most frequent observed cell ``length``-grams, most frequent first.

    Each trajectory's most-likely cell sequence -- the cells of its means
    -- contributes its contiguous ``length``-grams; ties go to the smaller
    gram.  Both miners seed their minimum-length runs from these.  The
    count runs on arrays, over chunks of whole trajectories: each chunk's
    distinct grams are merged into one sorted table of (gram, count), so
    memory follows the number of distinct grams, not of rows, and a
    store-backed dataset is decoded one chunk at a time.
    """
    lengths = dataset.lengths()
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    row_columns = getattr(dataset, "row_columns", None)
    # A gram's cells, big-endian, read as one opaque key: keys sort as the
    # cell tuples do.
    key_dtype = np.dtype((np.void, 4 * length))
    keys = np.empty(0, key_dtype)
    counts = np.empty(0, np.int64)
    t_lo, n_traj = 0, len(lengths)
    while t_lo < n_traj:
        t_hi = int(np.searchsorted(bounds, bounds[t_lo] + _GRAM_CHUNK_ROWS, "right"))
        t_hi = min(max(t_hi - 1, t_lo + 1), n_traj)
        lo, hi = int(bounds[t_lo]), int(bounds[t_hi])
        if row_columns is not None:
            means = row_columns(lo, hi)[0]
        else:
            means = np.concatenate([dataset[t].means for t in range(t_lo, t_hi)])
        cells = grid.locate_many(means)
        # A gram starts at row i when its trajectory holds rows i..i+length-1.
        ends = np.repeat(bounds[t_lo + 1 : t_hi + 1] - lo, lengths[t_lo:t_hi])
        starts = np.nonzero(np.arange(hi - lo) + length <= ends)[0]
        t_lo = t_hi
        if not len(starts):
            continue
        grams = np.empty((len(starts), length), ">u4")
        for j in range(length):
            grams[:, j] = cells[starts + j]
        chunk, chunk_counts = np.unique(
            grams.view(key_dtype).ravel(), return_counts=True
        )
        at = np.searchsorted(keys, chunk)
        known = at < len(keys)
        known[known] = keys[at[known]] == chunk[known]
        counts[at[known]] += chunk_counts[known]
        keys = np.insert(keys, at[~known], chunk[~known])
        counts = np.insert(counts, at[~known], chunk_counts[~known])
    top = keys[np.argsort(-counts, kind="stable")[:limit]]
    return [tuple(gram) for gram in top.view(">u4").reshape(-1, length).tolist()]


class TrajPatternMiner:
    """Top-k NM pattern miner (the paper's TrajPattern algorithm).

    Parameters
    ----------
    engine:
        The NM evaluation engine over the target dataset.
    k:
        Number of patterns to mine.
    min_length:
        Section 5 variant: report only patterns of at least this length
        (``omega`` is then the k-th best NM among such patterns).
    max_length:
        Optional hard cap on candidate length; ``None`` reproduces the
        paper exactly (length bounded only by convergence).
    use_extension_pruning:
        The 1-extension pruning of section 4.1 (ablation A1).
    use_bound_pruning:
        Lazy bound-based candidate scoring (ablation A2; see module docs).
    max_iterations:
        Safety valve; the algorithm converges well before this in practice.
    warm_state:
        Optional :class:`WarmStartState` from a previous run (its
        ``MiningResult.warm_state``).  Seeds are evaluated exactly before
        the main loop, so the mined top-k is identical to a cold run over
        the same dataset -- only the iteration count shrinks.
    """

    def __init__(
        self,
        engine: NMEngine,
        k: int,
        min_length: int = 1,
        max_length: int | None = None,
        use_extension_pruning: bool = True,
        use_bound_pruning: bool = True,
        max_iterations: int = 64,
        warm_state: WarmStartState | None = None,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if min_length < 1:
            raise ValueError("min_length must be at least 1")
        if max_length is not None and max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        self.engine = engine
        self.k = k
        self.min_length = min_length
        self.max_length = max_length
        self.use_extension_pruning = use_extension_pruning
        self.use_bound_pruning = use_bound_pruning
        self.max_iterations = max_iterations
        self.warm_state = warm_state

    # -- public API ------------------------------------------------------------

    def mine(
        self, discover_groups: bool = False, gamma: float | None = None
    ) -> MiningResult:
        """Run the algorithm and return the ranked top-k patterns.

        Parameters
        ----------
        discover_groups:
            Also cluster the mined patterns into pattern groups
            (section 4.2).
        gamma:
            Maximum similar-pattern distance for grouping; defaults to
            ``3 * max sigma`` per the section 5 discussion.
        """
        with tracing.span(
            "miner.mine", k=self.k, min_length=self.min_length
        ) as root, metrics.timer("miner.mine_ns"):
            result = self._mine(discover_groups, gamma)
            root.set_attr("iterations", result.stats.iterations)
            root.set_attr("omega", result.omega)
        # Fold the run's private bookkeeping into the process-global
        # registry (no-op while that stays disabled, the default).
        metrics.get_registry().merge(result.stats.metrics)
        return result

    def _mine(self, discover_groups: bool, gamma: float | None) -> MiningResult:
        stats = MinerStats()
        t0 = time.perf_counter()
        book = PatternBook(self.k, self.min_length, self.max_length)

        # Seeding: all singular patterns over the active alphabet.  Inactive
        # cells all tie at the floor NM and can never displace an active
        # cell from the top-k, so they are not materialised (DESIGN.md 4.3).
        book.seed_alphabet(sorted(self.engine.singular_nm_table().items()))
        stats.candidates_evaluated += book.n_singulars
        if book.n_singulars == 0:
            raise ValueError(
                "no active grid cells: the grid does not overlap the dataset"
            )

        if self.min_length > 1:
            self._warm_start(book, stats)
        if self.warm_state is not None:
            self._seed_warm_state(book, stats)
        book.settle(prune=False)

        # Convergence needs more than a stable high set: a low added to Q in
        # the last iteration is a brand-new extension partner (the min-max
        # property only forces *one* part of a decomposition to be high), so
        # stopping on high-set stability alone can miss top-k patterns of
        # the form high + fresh-low.  By Lemma 1 the partners that can ever
        # matter are high patterns and lows satisfying the 1-extension
        # property -- so the loop is at a fixed point exactly when the high
        # set and that *relevant* partner set both stop changing: the
        # explicit relevant partners, and the live family roots that stand
        # for the implicit ones.  ``PatternBook.settle`` tests this from
        # what the iteration changed.  (Full Q stability would also be
        # correct but ruins termination in the no-pruning ablation modes,
        # where junk lows accumulate forever.)
        stats.stop_reason = "max_iterations"
        for _ in range(self.max_iterations):
            stats.iterations += 1
            evaluated_before = stats.candidates_evaluated
            pruned_before = stats.patterns_pruned
            eval_time_before = stats.eval_time_s
            with tracing.span(
                "miner.iteration", iteration=stats.iterations
            ) as it_span:
                converged = self._iterate(book, stats)
                it_span.set_attr("omega", book.omega)
                it_span.set_attr("n_high", len(book.high))
            trace = IterationTrace(
                iteration=stats.iterations,
                omega=book.omega,
                n_high=len(book.high),
                n_exact=book.n_exact,
                n_bounded=book.n_implicit,
                candidates_evaluated=stats.candidates_evaluated - evaluated_before,
                patterns_pruned=stats.patterns_pruned - pruned_before,
                batch_size=stats.candidates_evaluated - evaluated_before,
                eval_time_s=stats.eval_time_s - eval_time_before,
                rss_bytes=manifest.current_rss_bytes() or 0,
            )
            stats.trace.append(trace)
            _log.debug(
                "miner iteration",
                extra={
                    "iteration": trace.iteration,
                    "omega": trace.omega,
                    "n_high": trace.n_high,
                    "candidates_evaluated": trace.candidates_evaluated,
                    "patterns_pruned": trace.patterns_pruned,
                },
            )
            if converged:
                stats.stop_reason = "converged"
                break

        stats.final_q_size = len(book)
        stats.wall_time_s = time.perf_counter() - t0
        _log.info(
            "mining finished",
            extra={
                "stop_reason": stats.stop_reason,
                "iterations": stats.iterations,
                "omega": book.omega,
                "candidates_evaluated": stats.candidates_evaluated,
                "candidates_bound_pruned": stats.candidates_bound_pruned,
                "patterns_pruned": stats.patterns_pruned,
                "final_q_size": stats.final_q_size,
            },
        )

        top = book.top_k()
        patterns = [TrajectoryPattern(cells) for cells, _ in top]
        nm_values = [nm for _, nm in top]
        groups = None
        if discover_groups:
            if gamma is None:
                gamma = 3.0 * self.engine.dataset.max_sigma()
            groups = discover_pattern_groups(patterns, self.engine.grid, gamma)
        # Export the converged frontier so a follow-up run over a
        # lightly-changed dataset can seed from it instead of rediscovering
        # the threshold.  Only the patterns that *set* the threshold are
        # worth carrying: the high set and the answer itself -- evaluating
        # them exactly starts the next run's omega at (about) this run's
        # k-th best.  Anything broader backfires: the implicit family
        # members run to tens of thousands of never-promoted candidates on
        # large alphabets, and re-evaluating those costs more than a cold run.
        frontier = set(book.high) | {c for c, _ in top}
        warm_seeds = tuple(
            sorted(cells for cells in frontier if len(cells) >= 2)
        )
        return MiningResult(
            patterns=patterns,
            nm_values=nm_values,
            omega=book.omega,
            stats=stats,
            groups=groups,
            warm_state=WarmStartState(seeds=warm_seeds),
        )

    # -- warm start for the min-length variant ----------------------------------------

    #: Cap on warm-start candidates (most frequent discretised n-grams).
    WARM_START_CAP = 2000

    def _warm_start(self, book: PatternBook, stats: MinerStats) -> None:
        """Bootstrap ``omega`` for the section 5 minimum-length variant.

        Until ``k`` patterns of length >= ``min_length`` exist, ``omega`` is
        ``-inf`` and every candidate must be evaluated -- a full cross
        product of the alphabet per iteration.  Seeding ``Q`` with the
        :func:`frequent_grams` of the observed cell sequences (each
        trajectory's most-likely cells) establishes a realistic threshold
        immediately.  This is purely a lower-bound warm start: every seed
        is evaluated exactly, so the final answer is unchanged; only the
        amount of provably-useless evaluation shrinks.
        """
        grams = frequent_grams(
            self.engine.dataset, self.engine.grid, self.min_length, self.WARM_START_CAP
        )
        seeds = [gram for gram in grams if not book.is_evaluated(gram)]
        self._evaluate_batch(book, seeds, stats)

    def _seed_warm_state(self, book: PatternBook, stats: MinerStats) -> None:
        """Evaluate the previous run's frontier exactly as mining seeds.

        Like :meth:`_warm_start`, this only ever *raises* the starting
        ``omega`` with exact scores -- it introduces no bounds and skips
        nothing, so the mined top-k is identical to a cold run (the
        ``incremental`` oracle path pins warm == cold exactly).
        """
        seeds = [
            tuple(int(c) for c in cells)
            for cells in self.warm_state.seeds
            if len(cells) >= 2
            and (self.max_length is None or len(cells) <= self.max_length)
        ]
        seeds = [cells for cells in seeds if not book.is_evaluated(cells)]
        self._evaluate_batch(book, seeds, stats)

    # -- one iteration of the main loop ---------------------------------------------

    def _iterate(self, book: PatternBook, stats: MinerStats) -> bool:
        """Generate, score and settle one round; returns whether it converged."""
        to_evaluate = self._generate_candidates(book, stats)
        self._evaluate_batch(book, to_evaluate, stats)
        settled = book.settle(prune=self.use_extension_pruning)
        stats.patterns_pruned += settled.pruned
        return settled.converged

    def _evaluate_batch(
        self, book: PatternBook, to_evaluate: list[Cells], stats: MinerStats
    ) -> None:
        """Score a candidate list through the engine's batched path."""
        if not to_evaluate:
            return
        with tracing.span("miner.evaluate", n_candidates=len(to_evaluate)):
            with stats.metrics.timer("miner.eval_ns"):
                # The book's cell tuples are already valid patterns.
                nm_values = self.engine.nm_batch(to_evaluate)
        stats.metrics.counter("miner.eval_batches").inc()
        stats.metrics.histogram("miner.batch_size").observe(len(to_evaluate))
        for cells, nm in zip(to_evaluate, nm_values):
            book.insert_exact(cells, float(nm))
            stats.candidates_evaluated += 1

    # -- candidate generation -------------------------------------------------------

    def _generate_candidates(
        self, book: PatternBook, stats: MinerStats
    ) -> list[Cells]:
        """Both-sided extensions of high patterns by patterns in ``Q``.

        Returns the candidates to evaluate exactly.
        """
        omega, high = book.omega, book.high
        exhaustive = not self.use_bound_pruning or math.isinf(omega)
        seen: set[Cells] = set()
        to_evaluate: list[Cells] = []

        def fresh(cells: Cells) -> bool:
            """First sight of a candidate that ``Q`` does not hold yet."""
            if cells in seen:
                return False
            seen.add(cells)
            stats.candidates_generated += 1
            if self.max_length is not None and len(cells) > self.max_length:
                return False
            if cells in book:
                return False
            if book.is_evaluated(cells):
                # Previously pruned exact pattern; restore the cached score
                # so the 1-extension re-check sees it again.
                book.reactivate(cells)
                stats.candidates_cached += 1
                return False
            return True

        high_sorted = sorted(high.items(), key=lambda item: sort_key(*item))
        # Snapshotted before any root of this round is extended: new
        # families become extension partners from the next round.
        partners = book.partners()

        for p_cells, p_nm in high_sorted:
            i = len(p_cells)
            # (a) Extensions by every singular pattern (both sides): the
            # potential 1-extension patterns of Lemma 1.  Extending makes P
            # a family root, whose members are in Q from then on; only those
            # whose bound reaches omega are evaluated, the rest stay
            # implicit.  The singular alphabet never changes, so each high
            # pattern needs this only once.
            if not book.is_root(p_cells):
                threshold = -math.inf if exhaustive else omega
                n_evaluable = 0
                for cells in book.members_at_least(p_cells, threshold):
                    n_evaluable += 1
                    if fresh(cells):
                        to_evaluate.append(cells)
                if self.max_length is None or i < self.max_length:
                    stats.candidates_bounded += 2 * book.n_singulars - n_evaluable
                stats.candidates_cached += book.extend(p_cells)

            # (b) Extensions by longer partners.  Only partners whose value
            # keeps the concatenation bound at or above omega can produce a
            # high pattern; anything lower is provably low and, having both
            # parts of length >= 2 reachable some other way, redundant.
            for j in partners.lengths():
                if j == 1:
                    continue
                if exhaustive:
                    tau = -math.inf
                else:
                    tau = ((i + j) * omega - i * p_nm) / j
                for q_cells, q_value in partners.at_least(j, tau):
                    bound = concat_bound(i, p_nm, j, q_value)
                    for cells in (p_cells + q_cells, q_cells + p_cells):
                        if not fresh(cells):
                            continue
                        if exhaustive or bound >= omega:
                            to_evaluate.append(cells)
                        elif not satisfies_one_extension(cells, high):
                            # A 1-extension candidate here is a member of a
                            # family extended this round: it stays implicit.
                            stats.candidates_bound_pruned += 1

        return to_evaluate
