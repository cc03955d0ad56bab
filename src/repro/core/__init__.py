"""The paper's primary contribution: the trajectory-pattern model and miner.

* :class:`~repro.core.pattern.TrajectoryPattern` -- an ordered list of grid
  positions, optionally with wildcard ("don't care") positions (section 5).
* :mod:`~repro.core.measures` -- the match / normalised-match measures of
  section 3.3 (scalar reference implementation) and the min-max property.
* :class:`~repro.core.engine.NMEngine` -- the vectorised dataset-wide
  evaluator built on a sparse per-cell log-probability index.
* :class:`~repro.core.trajpattern.TrajPatternMiner` -- the TrajPattern
  algorithm of section 4 (top-k NM mining with 1-extension pruning), plus
  the minimum-length variant of section 5.
* :mod:`~repro.core.groups` -- pattern-group discovery (sections 3.4, 4.2).
"""

from repro.core.engine import (
    EngineConfig,
    ExtensionTables,
    NMEngine,
    StaleIndexError,
    build_engine,
)
from repro.core.groups import PatternGroup, discover_pattern_groups
from repro.core.incremental import IncrementalIndexer
from repro.core.index_cache import load_index, save_index, span_cache_key
from repro.core.measures import (
    match_pattern_trajectory,
    match_pattern_window,
    minmax_upper_bound,
    nm_pattern_dataset,
    nm_pattern_trajectory,
    nm_pattern_window,
)
from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.core.trajpattern import MiningResult, TrajPatternMiner, WarmStartState
from repro.core.parameters import SuggestedParameters, suggest_parameters
from repro.core.results_io import load_mining_result, save_mining_result
from repro.core.parallel import ParallelNMEngine, shard_dataset
from repro.core.wildcards import Gap, GapPattern, nm_gap_pattern

__all__ = [
    "TrajectoryPattern",
    "WILDCARD",
    "NMEngine",
    "ParallelNMEngine",
    "shard_dataset",
    "build_engine",
    "EngineConfig",
    "ExtensionTables",
    "load_index",
    "save_index",
    "span_cache_key",
    "TrajPatternMiner",
    "MiningResult",
    "WarmStartState",
    "IncrementalIndexer",
    "StaleIndexError",
    "PatternGroup",
    "discover_pattern_groups",
    "Gap",
    "GapPattern",
    "nm_gap_pattern",
    "SuggestedParameters",
    "suggest_parameters",
    "save_mining_result",
    "load_mining_result",
    "match_pattern_window",
    "match_pattern_trajectory",
    "nm_pattern_window",
    "nm_pattern_trajectory",
    "nm_pattern_dataset",
    "minmax_upper_bound",
]
