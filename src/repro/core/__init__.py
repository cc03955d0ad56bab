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

import importlib

#: Exported name -> defining module, resolved on first access (PEP 562):
#: importing one ``repro.core`` submodule must not load the others (the
#: miner, the span coordinator, scipy's clustering, ...).
_EXPORTS = {
    "EngineConfig": "repro.core.engine",
    "ExtensionTables": "repro.core.engine",
    "NMEngine": "repro.core.engine",
    "build_engine": "repro.core.engine",
    "PatternGroup": "repro.core.groups",
    "discover_pattern_groups": "repro.core.groups",
    "IncrementalIndexer": "repro.core.incremental",
    "load_index": "repro.core.index_cache",
    "save_index": "repro.core.index_cache",
    "span_cache_key": "repro.core.index_cache",
    "match_pattern_trajectory": "repro.core.measures",
    "match_pattern_window": "repro.core.measures",
    "minmax_upper_bound": "repro.core.measures",
    "nm_pattern_dataset": "repro.core.measures",
    "nm_pattern_trajectory": "repro.core.measures",
    "nm_pattern_window": "repro.core.measures",
    "WILDCARD": "repro.core.pattern",
    "TrajectoryPattern": "repro.core.pattern",
    "MiningResult": "repro.core.trajpattern",
    "TrajPatternMiner": "repro.core.trajpattern",
    "WarmStartState": "repro.core.trajpattern",
    "SuggestedParameters": "repro.core.parameters",
    "suggest_parameters": "repro.core.parameters",
    "load_mining_result": "repro.core.results_io",
    "save_mining_result": "repro.core.results_io",
    "ParallelNMEngine": "repro.core.parallel",
    "shard_dataset": "repro.core.parallel",
    "Gap": "repro.core.wildcards",
    "GapPattern": "repro.core.wildcards",
    "nm_gap_pattern": "repro.core.wildcards",
}

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


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
