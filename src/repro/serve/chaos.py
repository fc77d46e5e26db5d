"""Fault injection for the serving stack (the chaos harness).

Production code cannot be trusted to tolerate faults it has never
seen, so this module plants *dormant* injection points at the seams
where real failures land — artifact I/O, request dispatch, the binary
wire — and the chaos tests (``tests/serve/test_chaos.py``) arm them
against a live fleet. Disarmed, every seam is one module-flag check
(``if not _active: return``): the production paths are untouched.

Arming happens two ways:

* the ``REPRO_CHAOS`` environment variable at process start — fleet
  workers fork from the parent, so setting it before
  :meth:`~repro.serve.fleet.ServingFleet.start` arms every worker;
* ``POST /admin/chaos`` (loopback-only, like the rest of the admin
  surface) with ``{"spec": "..."}`` — re-arms *that process* at
  runtime, ``{"spec": ""}`` disarms.

A spec is a comma-separated list of ``point=action:prob[:arg]``
entries::

    artifact.load=fail:1.0          every artifact load raises OSError
    artifact.load=slow:1.0:0.2      ... sleeps 200 ms first
    query=kill:0.01                 1% of queries SIGKILL the worker
    binary.request=reset:0.05       5% of binary frames reset the conn

Points: ``artifact.load`` (registry materialization — every register/
reload/first-use load of a serialized index — and a fleet coordinator's
read of the operator's file), ``query`` (service batch
admission, both fronts), ``binary.request`` (binary front dispatch,
once per frame), and ``shard.forward`` (the sharded router's scatter
path, fired once per remote owner — ``kill`` here is the kill-one-shard
drill: the forwarding worker dies mid-scatter and the fleet must
respawn it while its peers' backlogs hold). Actions: ``slow`` (sleep
``arg`` seconds, default 0.05), ``fail`` (raise ``OSError``), ``kill``
(``SIGKILL`` this process), ``reset`` (raise ``ConnectionResetError``;
the binary front closes the connection). Every firing increments the
``faults.chaos_injections`` counter of the metrics registry the seam
passes in, so ``/stats`` and ``/metrics`` show chaos landing.

The file-corruption faults (bit-flip, truncation) are offline helpers
— :func:`corrupt_artifact` — because flipping bits in a *served* file
is not a fault the harness should be able to do by accident; tests
corrupt a copy and feed it through the admin surface.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import InvalidRequestError

#: Environment variable workers read at import (fork inherits it).
ENV_VAR = "REPRO_CHAOS"

#: Known injection points (a spec naming anything else is rejected).
POINTS = ("artifact.load", "query", "binary.request", "shard.forward")

#: Known actions.
ACTIONS = ("slow", "fail", "kill", "reset")


@dataclass(frozen=True)
class Fault:
    """One armed fault: where, what, how often, with what argument."""

    point: str
    action: str
    prob: float
    arg: float


def parse_spec(spec: str) -> List[Fault]:
    """Parse a chaos spec string; raises
    :class:`~repro.errors.InvalidRequestError` on malformed entries so
    the admin surface answers 400 instead of arming garbage."""
    faults: List[Fault] = []
    for raw in (spec or "").split(","):
        entry = raw.strip()
        if not entry:
            continue
        try:
            point, rest = entry.split("=", 1)
            parts = rest.split(":")
            action = parts[0]
            prob = float(parts[1]) if len(parts) > 1 else 1.0
            arg = float(parts[2]) if len(parts) > 2 else 0.05
        except (ValueError, IndexError):
            raise InvalidRequestError(
                f"malformed chaos entry {entry!r} "
                f"(want point=action:prob[:arg])") from None
        if point not in POINTS:
            raise InvalidRequestError(
                f"unknown chaos point {point!r} (known: {POINTS})")
        if action not in ACTIONS:
            raise InvalidRequestError(
                f"unknown chaos action {action!r} (known: {ACTIONS})")
        if not 0.0 <= prob <= 1.0:
            raise InvalidRequestError(
                f"chaos probability must be in [0, 1], got {prob}")
        faults.append(Fault(point, action, prob, arg))
    return faults


#: The process-wide armed faults, keyed by point. Plain dict reads are
#: GIL-atomic, so the hot-path check needs no lock.
_faults: Dict[str, List[Fault]] = {}
_active: bool = False
_spec: str = ""


def configure(spec: str) -> List[Fault]:
    """(Re-)arm this process from a spec string; ``""`` disarms."""
    global _faults, _active, _spec
    faults = parse_spec(spec)
    table: Dict[str, List[Fault]] = {}
    for fault in faults:
        table.setdefault(fault.point, []).append(fault)
    _spec = spec or ""
    _faults = table
    _active = bool(table)
    return faults


def spec() -> str:
    """The currently armed spec ("" when disarmed)."""
    return _spec


def is_active() -> bool:
    return _active


def fault(point: str, metrics=None) -> None:
    """The injection seam: no-op unless this process armed ``point``.

    When a fault fires it is counted under ``faults.chaos_injections``
    (if the caller passed a metrics registry), then acted out: sleeps,
    raises, or kills — the caller's normal error handling takes over,
    which is exactly the path being tested.
    """
    if not _active:
        return
    for armed in _faults.get(point, ()):
        if armed.prob < 1.0 and random.random() >= armed.prob:
            continue
        if metrics is not None:
            try:
                metrics.counter("faults.chaos_injections").inc()
            except Exception:
                pass
        # The builtin raises below are the *product*: the harness
        # impersonates the OS/network failing, so the exception types
        # must be exactly what real I/O would raise — not taxonomy
        # classes the production handlers would treat as typed errors.
        if armed.action == "slow":
            time.sleep(armed.arg)
        elif armed.action == "fail":
            raise OSError(f"chaos: injected I/O failure at {point}")  # repro-lint: ignore[RL005]
        elif armed.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif armed.action == "reset":
            raise ConnectionResetError(  # repro-lint: ignore[RL005]
                f"chaos: injected connection reset at {point}")


# Arm from the environment at import: fleet workers fork after the
# test (or operator) exported the spec, so every process self-arms.
if os.environ.get(ENV_VAR):
    try:
        configure(os.environ[ENV_VAR])
    except InvalidRequestError:  # pragma: no cover - operator typo
        _active = False


# ----------------------------------------------------------------------
# Offline corruption helpers (used by tests, never armed at runtime)
# ----------------------------------------------------------------------
def corrupt_artifact(path, mode: str = "bitflip",
                     offset: Optional[int] = None) -> None:
    """Deliberately damage an artifact file in place.

    ``mode="bitflip"`` flips one bit (by default in the middle of the
    file, deep inside the stored node pool); ``mode="truncate"`` cuts
    the file in half, which no header survives. Tests copy a good
    artifact first — this helper never touches anything registered.
    """
    size = os.path.getsize(path)
    if mode == "bitflip":
        at = size // 2 if offset is None else offset
        with open(path, "r+b") as fp:
            fp.seek(at)
            byte = fp.read(1)
            fp.seek(at)
            fp.write(bytes([byte[0] ^ 0x40]))
    elif mode == "truncate":
        with open(path, "r+b") as fp:
            fp.truncate(size // 2 if offset is None else offset)
    else:
        raise InvalidRequestError(f"unknown corruption mode {mode!r}")
