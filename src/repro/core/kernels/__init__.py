"""Pluggable numeric kernel backends behind the NM engine's hot loops.

The engine's measured hot loops -- the deviation gather/sort/segment-reduce
behind ``nm_batch``/``match_batch``, the stacked window-score scatter, the
per-segment maxima sweep, the chunked ``prob_within`` evaluation, the
index build's scatter of entries into per-cell runs and their compaction
(into a CSR index by cell with ``int32`` rows), its segmentation, and the
wildcard gap DP -- are isolated behind the narrow :class:`KernelBackend`
protocol.  Every kernel runs in float64.
Everything else in the engine is orchestration and stays numpy.

Backends
--------
``numpy``
    The reference implementation (:mod:`repro.core.kernels.numpy_ref`);
    ground truth for the differential oracle.
``compiled``
    Tight native loops (:mod:`repro.core.kernels.compiled`): a small C
    library built once with the system compiler and driven through
    ``ctypes``.  When no compiler works the registry degrades to
    ``numpy`` and logs a structured warning.
``auto``
    ``compiled`` when available, else ``numpy`` -- silently (debug log).

Selection is config-driven end to end: ``EngineConfig(backend=...)``,
CLI ``--backend``, the ``serve.json`` snapshot field, and the obs
manifest records what actually ran.  The environment variable
``REPRO_KERNELS`` is the operational escape hatch: ``cnative`` requires
the C library, ``none`` disables compiled kernels entirely (useful to
assert the fallback path).
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

import numpy as np

from repro.obs import logs
from repro.core.kernels.arena import ScratchArena
from repro.core.kernels.numpy_ref import NumpyKernels
from repro.uncertainty.gaussian import ProbModel

__all__ = [
    "BACKEND_CHOICES",
    "KernelBackend",
    "NumpyKernels",
    "ScratchArena",
    "available_backends",
    "backend_summary",
    "compiled_unavailable_reason",
    "prob_kernel_tag",
    "resolve_backend",
]

_log = logs.get_logger("kernels")

#: Values accepted by ``EngineConfig.backend`` / ``--backend``.
BACKEND_CHOICES = ("numpy", "compiled", "auto")


@runtime_checkable
class KernelBackend(Protocol):
    """The narrow surface a backend must implement.

    Array arguments follow the engine's CSR index layout: ``cell_bounds``
    (``int64``) delimits each active cell's entries, ``start`` / ``count``
    are the same bounds spread densely over every grid cell, ``rows``
    (``int32``) / ``vals`` the entry arrays sorted by (cell, row),
    ``floor`` the log-space floor and ``win_traj`` the owning trajectory
    of each global row.  ``arena`` is the calling engine's
    :class:`ScratchArena`; implementations draw any per-call scratch from
    it so steady-state calls allocate nothing.
    """

    name: str        #: resolved implementation ("numpy", "cnative")
    compiled: bool   #: True for native implementations
    prob_tag: str    #: identity of the Prob kernel ("ref" = scipy erf)

    def batch_devmax(self, cells_matrix, start, count, rows, vals, floor,
                     valid, n_windows, win_traj, arena, out) -> None:
        """Max summed window deviation per (pattern, trajectory) into ``out``."""

    def stacked_scores(self, cells_matrix, n_spec, start, count, rows, vals,
                       floor, n_windows, out) -> None:
        """Unmasked window log-sums of equal-length patterns into ``out``."""

    def segment_maxima(self, vals, seg_starts) -> np.ndarray:
        """Max entry per (cell, trajectory) segment."""

    def prob_within(self, mean, sigma, center, delta,
                    model: ProbModel = ProbModel.BOX, out=None) -> np.ndarray:
        """``Prob(l, sigma, p, delta)`` over (n, 2) pair arrays (float64)."""

    def gap_dp(self, seg_scores, seg_lens, gap_mins, gap_maxs,
               length: int, arena) -> float:
        """Best summed log-prob over admissible gap alignments, or ``-inf``."""

    def scatter_entries(self, cells, rows, vals, bounds, cursor,
                        out_rows, out_vals) -> None:
        """Write one chunk of ``int32`` cells / ``int32`` rows / ``float64``
        values into their cells' runs, in chunk order within a cell.

        Cell ``c`` owns slots ``bounds[c]:bounds[c + 1]`` of ``out_rows`` /
        ``out_vals`` and its next entry goes to slot ``cursor[c]``, which
        then advances.  A cell outside ``[0, len(cursor))`` or a run with
        no free slot raises ``ValueError``; nothing is written out of
        bounds.
        """

    def compact_entries(self, bounds, cursor, rows, vals) -> int:
        """Move each cell's filled run ``bounds[c]:cursor[c]`` left, in
        place, so the runs lie back to back in cell order; returns the
        entry count (``ValueError`` for a cursor outside its run)."""

    def index_segments(self, cell_bounds, rows, row_traj) -> tuple[np.ndarray, ...]:
        """``(seg_starts, seg_traj, cell_seg_starts)`` of a CSR index."""


# -- resolution ---------------------------------------------------------------

#: Cached (library | None, unavailable-reason | None) per REPRO_KERNELS value.
_library_state: dict[str, tuple[object | None, str | None]] = {}
#: Cached backend instances keyed by resolved name.
_instances: dict[str, KernelBackend] = {}


def _forced() -> str:
    return os.environ.get("REPRO_KERNELS", "").strip().lower()


def _load_library_state(forced: str) -> tuple[object | None, str | None]:
    if forced == "none":
        return None, "disabled via REPRO_KERNELS=none"
    if forced not in ("", "cnative"):
        return None, (
            f"unknown REPRO_KERNELS value {forced!r} "
            "(expected one of ('none', 'cnative'))"
        )
    from repro.core.kernels import compiled

    try:
        lib = compiled.load_library()
    except Exception as exc:  # toolchain probing: any failure is a reason
        return None, f"cnative: {exc}"
    _log.debug("compiled kernel library ready")
    return lib, None


def _library() -> tuple[object | None, str | None]:
    forced = _forced()
    state = _library_state.get(forced)
    if state is None:
        state = _load_library_state(forced)
        _library_state[forced] = state
    return state


def compiled_unavailable_reason() -> str | None:
    """Why the compiled backend cannot run here, or ``None`` if it can."""
    lib, reason = _library()
    return None if lib is not None else (reason or "unavailable")


def available_backends() -> list[str]:
    """Backend names that resolve to themselves on this machine."""
    out = ["numpy"]
    if _library()[0] is not None:
        out.append("compiled")
    return out


def resolve_backend(backend: str) -> KernelBackend:
    """The backend instance a config's ``backend`` runs on.

    ``"compiled"`` degrades to numpy with a structured warning when the C
    library is unavailable; ``"auto"`` degrades silently.  Instances are
    cached per implementation, so resolution is cheap enough to call per
    engine construction (including inside forked workers, where it
    naturally re-resolves against the worker's own process).
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {backend!r} (expected one of {BACKEND_CHOICES})"
        )
    if backend == "numpy":
        return _instance("numpy")
    lib, reason = _library()
    if lib is None:
        if backend == "compiled":
            _log.warning(
                "compiled kernel backend unavailable; falling back to numpy",
                extra={"requested": backend, "reason": reason},
            )
        else:
            _log.debug("auto backend resolved to numpy", extra={"reason": reason})
        return _instance("numpy")
    return _instance("cnative", lib)


def _instance(name: str, lib=None) -> KernelBackend:
    inst = _instances.get(name)
    if inst is None:
        if name == "numpy":
            inst = NumpyKernels()
        else:
            from repro.core.kernels.compiled import CompiledKernels

            inst = CompiledKernels(lib)
        _instances[name] = inst
    return inst


def prob_kernel_tag(config) -> str:
    """Identity of the Prob kernel that would build ``config``'s index.

    ``"ref"`` is the scipy path the index cache has always stored (so
    default configurations keep their existing cache keys); compiled box
    kernels use libm ``erf`` (within ~2 ULPs of scipy, not bit-identical)
    and are tagged with the compiled backend's name so reference- and
    compiled-built index files never alias.  The disk geometry always evaluates through
    scipy regardless of backend.
    """
    if config.prob_model is not ProbModel.BOX:
        return "ref"
    return resolve_backend(config.backend).prob_tag


def backend_summary(config) -> dict:
    """What a config resolves to on this machine (for manifests/metrics)."""
    resolved = resolve_backend(config.backend)
    summary = {
        "requested": config.backend,
        "resolved": resolved.name,
        "compiled": bool(resolved.compiled),
    }
    reason = compiled_unavailable_reason()
    if reason is not None and config.backend in ("compiled", "auto"):
        summary["fallback_reason"] = reason
    return summary
