"""Pluggable numeric kernel backends behind the NM engine's hot loops.

The engine's measured hot loops -- the deviation gather/sort/segment-reduce
behind ``nm_batch``/``match_batch``, the stacked window-score scatter, the
per-segment maxima sweep, the chunked ``prob_within`` evaluation, the
entry sort of index construction (into a CSR index by cell with ``int32``
rows) and its segmentation, and the wildcard gap DP -- are isolated
behind the narrow :class:`KernelBackend` protocol.
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

Selection is config-driven end to end: ``EngineConfig(backend=...,
dtype=...)``, CLI ``--backend/--dtype``, the ``serve.json`` snapshot
fields, and the obs manifest record what actually ran.  The environment
variable ``REPRO_KERNELS`` is the operational escape hatch: ``cnative``
requires the C provider, ``none`` disables compiled kernels entirely
(useful to assert the fallback path).

Precision modes
---------------
``dtype="float32"`` stores the flat index values (and runs the evaluation
kernels) in float32; the index is always *built* in float64 and cached in
float64, so the cache is dtype-independent and a float32 engine warm-starts
from a float64-built file.  API outputs remain float64.  See
``docs/KERNELS.md`` for the ULP policy.
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
    "DTYPE_CHOICES",
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
#: Values accepted by ``EngineConfig.dtype`` / ``--dtype``.
DTYPE_CHOICES = ("float64", "float32")


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
    provider: str    #: toolchain behind it (same as name today)
    dtype: np.dtype  #: value dtype the evaluation kernels run in
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

    def sort_entries(self, cells_acc, rows_acc, vals_acc, n_cells: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-chunk ``int32`` cell / ``int32`` row / ``float64`` value lists
        (ascending rows) as a CSR index ``(cell_ids, cell_bounds, rows,
        vals)`` in (cell, row) order; empties the lists."""

    def index_segments(self, cell_bounds, rows, row_traj) -> tuple[np.ndarray, ...]:
        """``(seg_starts, seg_traj, cell_seg_starts)`` of a CSR index."""


# -- provider resolution ------------------------------------------------------

#: Cached (provider | None, unavailable-reason | None) per REPRO_KERNELS value.
_provider_state: dict[str, tuple[object | None, str | None]] = {}
#: Cached backend instances keyed by (resolved name, dtype).
_instances: dict[tuple[str, str], KernelBackend] = {}


def _forced() -> str:
    return os.environ.get("REPRO_KERNELS", "").strip().lower()


def _load_provider_state(forced: str) -> tuple[object | None, str | None]:
    if forced == "none":
        return None, "disabled via REPRO_KERNELS=none"
    from repro.core.kernels import compiled

    if forced and forced not in compiled.PROVIDER_CHOICES:
        return None, (
            f"unknown REPRO_KERNELS value {forced!r} "
            f"(expected one of {('none',) + compiled.PROVIDER_CHOICES})"
        )
    candidates = (forced,) if forced else compiled.PROVIDER_CHOICES
    reasons = []
    for name in candidates:
        try:
            provider = compiled.load_provider(name)
        except Exception as exc:  # toolchain probing: any failure is a reason
            reasons.append(f"{name}: {exc}")
        else:
            _log.debug(
                "compiled kernel provider ready", extra={"provider": name}
            )
            return provider, None
    return None, "; ".join(reasons)


def _provider() -> tuple[object | None, str | None]:
    forced = _forced()
    state = _provider_state.get(forced)
    if state is None:
        state = _load_provider_state(forced)
        _provider_state[forced] = state
    return state


def compiled_unavailable_reason() -> str | None:
    """Why the compiled backend cannot run here, or ``None`` if it can."""
    provider, reason = _provider()
    return None if provider is not None else (reason or "unavailable")


def available_backends() -> list[str]:
    """Backend names that resolve to themselves on this machine."""
    out = ["numpy"]
    if _provider()[0] is not None:
        out.append("compiled")
    return out


def resolve_backend(backend: str, dtype: str = "float64") -> KernelBackend:
    """The backend instance a config ``(backend, dtype)`` pair runs on.

    ``"compiled"`` degrades to numpy with a structured warning when no
    native provider is available; ``"auto"`` degrades silently.  Instances
    are cached per (implementation, dtype), so resolution is cheap enough
    to call per engine construction (including inside forked workers,
    where it naturally re-resolves against the worker's own process).
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {backend!r} (expected one of {BACKEND_CHOICES})"
        )
    if dtype not in DTYPE_CHOICES:
        raise ValueError(
            f"unknown kernel dtype {dtype!r} (expected one of {DTYPE_CHOICES})"
        )
    if backend == "numpy":
        return _instance("numpy", dtype)
    provider, reason = _provider()
    if provider is None:
        if backend == "compiled":
            _log.warning(
                "compiled kernel backend unavailable; falling back to numpy",
                extra={"requested": backend, "dtype": dtype, "reason": reason},
            )
        else:
            _log.debug(
                "auto backend resolved to numpy",
                extra={"dtype": dtype, "reason": reason},
            )
        return _instance("numpy", dtype)
    return _instance(provider.name, dtype, provider)


def _instance(name: str, dtype: str, provider=None) -> KernelBackend:
    key = (name, dtype)
    inst = _instances.get(key)
    if inst is None:
        if name == "numpy":
            inst = NumpyKernels(dtype)
        else:
            from repro.core.kernels.compiled import CompiledKernels

            inst = CompiledKernels(provider, dtype)
        _instances[key] = inst
    return inst


def prob_kernel_tag(config) -> str:
    """Identity of the Prob kernel that would build ``config``'s index.

    ``"ref"`` is the scipy path the index cache has always stored (so
    default configurations keep their existing cache keys); compiled box
    kernels use libm ``erf`` (within ~2 ULPs of scipy, not bit-identical)
    and are tagged by provider name so reference- and compiled-built
    index files never alias.  The disk geometry always evaluates through
    scipy regardless of backend.
    """
    if config.prob_model is not ProbModel.BOX:
        return "ref"
    return resolve_backend(config.backend, config.dtype).prob_tag


def backend_summary(config) -> dict:
    """What a config resolves to on this machine (for manifests/metrics)."""
    resolved = resolve_backend(config.backend, config.dtype)
    summary = {
        "requested": config.backend,
        "resolved": resolved.name,
        "dtype": str(resolved.dtype),
        "compiled": bool(resolved.compiled),
    }
    reason = compiled_unavailable_reason()
    if reason is not None and config.backend in ("compiled", "auto"):
        summary["fallback_reason"] = reason
    return summary
