"""repro: a full reproduction of TrajPattern (Yang & Hu, EDBT 2006).

Mining sequential patterns from imprecise trajectories of mobile objects.

Public API highlights
---------------------
* :class:`repro.trajectory.UncertainTrajectory`, :class:`repro.trajectory.TrajectoryDataset`
* :class:`repro.geometry.Grid`
* :class:`repro.core.NMEngine`, :class:`repro.core.TrajPatternMiner`
* :func:`repro.core.discover_pattern_groups`
* baselines in :mod:`repro.baselines`, mobility simulation in
  :mod:`repro.mobility`, data generators in :mod:`repro.datagen`,
  applications in :mod:`repro.apps` and the paper's experiments in
  :mod:`repro.experiments`.
"""

import importlib

#: Exported name -> defining module.  Resolved on first attribute access
#: (PEP 562), so ``import repro`` -- and every ``repro.*`` submodule
#: import, which runs this file first -- loads none of the engine stack.
_EXPORTS = {
    "EngineConfig": "repro.core.engine",
    "NMEngine": "repro.core.engine",
    "build_engine": "repro.core.engine",
    "ParallelNMEngine": "repro.core.parallel",
    "PatternGroup": "repro.core.groups",
    "discover_pattern_groups": "repro.core.groups",
    "WILDCARD": "repro.core.pattern",
    "TrajectoryPattern": "repro.core.pattern",
    "SuggestedParameters": "repro.core.parameters",
    "suggest_parameters": "repro.core.parameters",
    "load_mining_result": "repro.core.results_io",
    "save_mining_result": "repro.core.results_io",
    "Gap": "repro.core.wildcards",
    "GapPattern": "repro.core.wildcards",
    "MiningResult": "repro.core.trajpattern",
    "TrajPatternMiner": "repro.core.trajpattern",
    "BoundingBox": "repro.geometry.bbox",
    "Grid": "repro.geometry.grid",
    "Point": "repro.geometry.point",
    "TrajectoryDataset": "repro.trajectory.dataset",
    "UncertainTrajectory": "repro.trajectory.trajectory",
    "to_velocity_dataset": "repro.trajectory.velocity",
    "to_velocity_trajectory": "repro.trajectory.velocity",
    "ProbModel": "repro.uncertainty.gaussian",
}

__version__ = "1.0.0"

__all__ = [
    "UncertainTrajectory",
    "TrajectoryDataset",
    "to_velocity_trajectory",
    "to_velocity_dataset",
    "Point",
    "BoundingBox",
    "Grid",
    "ProbModel",
    "EngineConfig",
    "NMEngine",
    "ParallelNMEngine",
    "build_engine",
    "TrajectoryPattern",
    "WILDCARD",
    "Gap",
    "GapPattern",
    "SuggestedParameters",
    "suggest_parameters",
    "save_mining_result",
    "load_mining_result",
    "TrajPatternMiner",
    "MiningResult",
    "PatternGroup",
    "discover_pattern_groups",
    "__version__",
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
