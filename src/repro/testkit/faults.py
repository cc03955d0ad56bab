"""Fault-injection registry: deterministic crashes at named code points.

The scaling layers (span workers, the on-disk index cache, the serving
stack) have failure paths that ordinary tests never reach: a worker
SIGKILLed mid-batch, a cache file torn mid-write, a client vanishing with
requests in flight.  This module makes
those paths *reachable on purpose*: production code calls
:func:`fire` at a handful of named **injection points** (a no-op costing
one attribute read when nothing is armed), and the fault-injection tests
:func:`arm` a point with an action before driving the code under test.

Usage::

    from repro.testkit import faults

    with faults.injected("parallel.worker.op", action="exit",
                         match={"shard": 0, "op": "nm_batch"}):
        with pytest.raises(WorkerCrashError):
            engine.nm_batch(patterns)

Actions
-------
``raise``
    Raise :class:`FaultInjected` (or a caller-supplied exception
    instance) out of the injection point -- an error the code under test
    is expected to handle or propagate cleanly.
``exit``
    ``os._exit(exit_code)`` -- a hard crash: no ``finally`` blocks, no
    ``atexit``, exactly what an OOM-kill or segfault looks like to the
    rest of the system.
``sigkill``
    ``SIGKILL`` the calling process -- indistinguishable from ``exit``
    for the victim, but exercises the signal path.
``callback``
    Call ``callback(point, ctx)``; the callback may mutate state, kill
    *another* process, truncate a file named in ``ctx``, or raise.

Targeting
---------
``count`` bounds how many times a fault fires (default once);
``match`` restricts firing to calls whose keyword context matches every
given key (e.g. only shard 0, only the ``nm_batch`` op).  Faults armed
before a ``fork`` are inherited by the child -- each process decrements
its own copy of ``count``, which is exactly what worker-crash tests
want.

The registry is process-global and thread-safe; :func:`disarm`
(or the :func:`injected` context manager) restores the no-op state.
Production code must only ever call :func:`fire` -- everything else is
test-side API.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "FaultInjected",
    "arm",
    "disarm",
    "active",
    "fire",
    "fired",
    "injected",
]


class FaultInjected(RuntimeError):
    """The error raised by an armed injection point with ``action='raise'``."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


@dataclass
class _Fault:
    point: str
    action: str = "raise"
    count: int | None = 1  # None = fire every time
    match: dict[str, Any] | None = None
    exc: BaseException | None = None
    callback: Callable[[str, dict[str, Any]], None] | None = None
    exit_code: int = 17
    fired: int = field(default=0)


_ACTIONS = ("raise", "exit", "sigkill", "callback")

_lock = threading.Lock()
_faults: dict[str, _Fault] = {}
#: Fast-path flag: ``fire`` returns immediately when nothing is armed, so
#: the injection points cost one module-attribute read in production.
_armed = False


def arm(
    point: str,
    action: str = "raise",
    *,
    count: int | None = 1,
    match: dict[str, Any] | None = None,
    exc: BaseException | None = None,
    callback: Callable[[str, dict[str, Any]], None] | None = None,
    exit_code: int = 17,
) -> None:
    """Arm ``point`` with ``action``; replaces any fault already armed there."""
    global _armed
    if action not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r} (one of {_ACTIONS})")
    if action == "callback" and callback is None:
        raise ValueError("action='callback' requires a callback")
    if count is not None and count < 1:
        raise ValueError("count must be at least 1 (or None for unlimited)")
    with _lock:
        _faults[point] = _Fault(
            point,
            action,
            count=count,
            match=dict(match) if match else None,
            exc=exc,
            callback=callback,
            exit_code=exit_code,
        )
        _armed = True


def disarm(point: str | None = None) -> None:
    """Disarm ``point``, or every armed fault when ``point`` is ``None``."""
    global _armed
    with _lock:
        if point is None:
            _faults.clear()
        else:
            _faults.pop(point, None)
        _armed = bool(_faults)


def active() -> list[str]:
    """Names of the currently armed injection points, sorted."""
    with _lock:
        return sorted(_faults)


def fired(point: str) -> int:
    """How many times the fault armed at ``point`` has fired (0 if unarmed)."""
    with _lock:
        fault = _faults.get(point)
        return fault.fired if fault is not None else 0


def fire(point: str, **ctx: Any) -> None:
    """The injection point: no-op unless a matching fault is armed here.

    Called from production code with keyword context (shard ordinal, op
    name, file paths, ...) that ``match`` filters against and callbacks
    receive.  Never raises unless a fault is armed and selected.
    """
    if not _armed:
        return
    with _lock:
        fault = _faults.get(point)
        if fault is None:
            return
        if fault.match is not None and any(
            key not in ctx or ctx[key] != expected
            for key, expected in fault.match.items()
        ):
            return
        if fault.count is not None and fault.fired >= fault.count:
            return
        fault.fired += 1
        action, exc, callback, exit_code = (
            fault.action,
            fault.exc,
            fault.callback,
            fault.exit_code,
        )
    # Act outside the lock: callbacks may arm/disarm, and the hard-crash
    # actions never return at all.
    if action == "exit":
        os._exit(exit_code)
    if action == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "callback":
        callback(point, ctx)  # type: ignore[misc]  # arm() enforced non-None
        return
    raise exc if exc is not None else FaultInjected(point)


@contextmanager
def injected(point: str, action: str = "raise", **kwargs: Any) -> Iterator[None]:
    """Arm ``point`` for the duration of a ``with`` block, then disarm it."""
    arm(point, action, **kwargs)
    try:
        yield
    finally:
        disarm(point)
