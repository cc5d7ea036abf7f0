"""Deterministic fault injection for the sharded mining runtime.

A :class:`FaultPlan` describes *where* and *when* workers misbehave, as a
small semicolon-separated spec parsed from the ``REPRO_FAULTS``
environment variable (or the CLI's ``--faults``)::

    kill:shard=1,level=3; hang:shard=0,op=slevel; corrupt-reply:shard=2,nth=4

Each clause is ``<kind>[:key=value,...]`` with kinds

``kill``
    The worker dies mid-message: ``SIGKILL`` to its own process under the
    process backend (a real silent death — the parent sees EOF, never a
    reply), a :class:`SimulatedWorkerDeath` raised inline under the
    serial backend.
``hang``
    The worker stops replying: a long sleep under the process backend
    (the parent's ``REPRO_WORKER_TIMEOUT`` deadline is what detects it),
    treated like ``kill`` inline (a real sleep would hang the calling
    thread, which *is* the parent).
``corrupt-reply``
    The reply is replaced with junk; the parent's reply-shape validation
    flags it as :class:`~repro.runtime.pool.WorkerCorruption`.

and filter keys

``shard=N``
    Only fire on shard ``N`` (default: any shard).
``op=NAME``
    Only fire on messages whose op is ``NAME``, one of :data:`WORKER_OPS`
    (``labels``, ``add``, ``release``, ``slevel``, ``sevict``, ``stats``;
    default: any op).  Any other name is rejected at parse time, so a
    misspelt op cannot silently arm a clause that never fires.
``level=N``
    Only fire on the worker's ``N``-th ``slevel`` message, counted from
    arming.  The miner primes level 1 first, so on a freshly armed worker
    this is the mining level for shards that receive every level.
``nth=N``
    Only fire on the ``N``-th message matching the clause's other
    filters (1-based; default: the first match).
``times=N``
    Fire budget (default 1).
``sticky``
    Re-arm the clause after the worker is respawned by recovery (default
    clauses are consumed by the first recovery).  Sticky clauses are what
    make retry exhaustion — and the degrade-to-inline fallback —
    testable; they are never re-armed on a degraded worker.

Plans are **deterministic by construction**: firing depends only on
per-clause message counters, never on wall-clock or randomness, so a
fault lands on the exact same message in every run of the same workload.
When no plan is active the injector is simply absent (``None``) — the
same zero-overhead null pattern as :mod:`repro.obs`; workers pay one
``is None`` check per message and nothing else.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

#: Environment variable carrying the fault-plan spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Fault kinds understood by the parser.
FAULT_KINDS = ("kill", "hang", "corrupt-reply")

#: Shard-worker message ops a clause can filter on: every op a
#: :class:`~repro.runtime.shards.ShardWorker` handles except the control
#: ops (``trace``, ``faults``), which never reach the injector.
WORKER_OPS = ("labels", "add", "release", "slevel", "sevict", "stats")

#: Message ops that advance the injector's level counter (the worker-side
#: mirror of "one mining level = one level-type message per shard").
_LEVEL_OPS = frozenset({"slevel"})

#: What a corrupted reply is replaced with: a value no shard op ever
#: legitimately returns, so the parent's shape validation always flags it.
CORRUPTED_REPLY = "\x00repro:corrupted-reply\x00"

#: How long a process-backend ``hang`` sleeps.  Far beyond any sane
#: ``REPRO_WORKER_TIMEOUT``; the parent's deadline fires first and the
#: sleeping process is terminated by the respawn.
_HANG_SECONDS = 3600.0


class SimulatedWorkerDeath(BaseException):
    """An injected worker death under the inline (serial) backend.

    Deliberately a ``BaseException``: handler code and the serial
    backend's generic ``except Exception`` error-wrapping must never
    swallow it into an ordinary :class:`~repro.runtime.pool.WorkerError`
    — the whole point is to exercise the *death* path, not the
    handler-error path.
    """


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on", ""):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"fault clause key {key}={raw!r} is not a boolean")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as error:
        raise ValueError(f"fault clause key {key}={raw!r} is not an integer") from error


@dataclass(frozen=True)
class FaultClause:
    """One parsed fault directive of a :class:`FaultPlan`."""

    kind: str
    shard: int | None = None
    op: str | None = None
    level: int | None = None
    nth: int | None = None
    times: int = 1
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.op is not None and self.op not in WORKER_OPS:
            raise ValueError(
                f"unknown fault clause op {self.op!r}; expected one of {WORKER_OPS}"
            )
        for name in ("shard", "level", "nth", "times"):
            value = getattr(self, name)
            if value is not None and value < (1 if name in ("level", "nth", "times") else 0):
                raise ValueError(f"fault clause {name}={value} out of range")

    def to_spec(self) -> str:
        parts: list[str] = []
        for name in ("shard", "op", "level", "nth"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        if self.sticky:
            parts.append("sticky")
        return self.kind if not parts else f"{self.kind}:{','.join(parts)}"

    @classmethod
    def parse(cls, text: str) -> "FaultClause":
        head, _, tail = text.partition(":")
        kind = head.strip()
        fields: dict[str, object] = {}
        for part in tail.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, raw = part.partition("=")
            key = key.strip()
            if key == "sticky":
                fields["sticky"] = _parse_bool(key, raw) if eq else True
            elif key == "op":
                fields["op"] = raw.strip()
            elif key in ("shard", "level", "nth", "times"):
                fields[key] = _parse_int(key, raw)
            else:
                raise ValueError(f"unknown fault clause key {key!r} in {text!r}")
        return cls(kind=kind, **fields)


class FaultPlan:
    """An immutable, deterministic set of :class:`FaultClause` directives."""

    def __init__(self, clauses: tuple[FaultClause, ...] = ()) -> None:
        self.clauses = tuple(clauses)

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.clauses == other.clauses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.to_spec()!r})"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        clauses = tuple(
            FaultClause.parse(chunk)
            for chunk in spec.split(";")
            if chunk.strip()
        )
        return cls(clauses)

    def to_spec(self) -> str:
        return "; ".join(clause.to_spec() for clause in self.clauses)

    def sticky_only(self) -> "FaultPlan":
        """The sub-plan that survives a worker respawn."""
        return FaultPlan(tuple(clause for clause in self.clauses if clause.sticky))

    def for_shard(self, shard: int) -> "FaultPlan":
        """The sub-plan that can ever fire on *shard*."""
        return FaultPlan(
            tuple(
                clause
                for clause in self.clauses
                if clause.shard is None or clause.shard == shard
            )
        )


#: The inactive plan: falsy, no clauses, shared.
NULL_PLAN = FaultPlan()


def resolve_faults(faults: "FaultPlan | str | None" = None) -> "FaultPlan | None":
    """Normalise a faults knob to an active plan or ``None``.

    ``None`` falls back to ``REPRO_FAULTS``; a string is parsed; an
    inactive (empty) plan collapses to ``None`` so callers keep the
    zero-overhead ``is None`` fast path.
    """
    if faults is None:
        faults = os.environ.get(FAULTS_ENV, "").strip()
        if not faults:
            return None
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    if not isinstance(faults, FaultPlan):
        raise ValueError(f"faults must be a FaultPlan, spec string, or None, got {faults!r}")
    return faults if faults else None


class FaultInjector:
    """The worker-side hooks compiled from a :class:`FaultPlan`.

    One injector per worker, built when the parent arms the plan (see the
    ``("faults", ...)`` shard message).  :meth:`on_message` runs before a
    message is handled and may kill or hang the worker;
    :meth:`on_reply` runs after the reply (observability wrapping
    included) is built and may corrupt it.  Control messages (``faults``,
    ``trace``) are never intercepted — the caller simply does not route
    them through the hooks.
    """

    def __init__(self, plan: FaultPlan, shard: int, inline: bool) -> None:
        self.shard = shard
        self.inline = inline
        self._clauses = plan.for_shard(shard).clauses
        self._matches = [0] * len(self._clauses)
        self._fired = [0] * len(self._clauses)
        self._level = 0

    @property
    def armed(self) -> bool:
        return bool(self._clauses)

    def _applies(self, index: int, clause: FaultClause, op: str) -> bool:
        if clause.op is not None and clause.op != op:
            return False
        if clause.level is not None and clause.level != self._level:
            return False
        self._matches[index] += 1
        if clause.nth is not None and self._matches[index] != clause.nth:
            return False
        if self._fired[index] >= clause.times:
            return False
        self._fired[index] += 1
        return True

    def on_message(self, op: str) -> None:
        """Fire any matching ``kill`` / ``hang`` clause before *op* runs."""
        if op in _LEVEL_OPS:
            self._level += 1
        for index, clause in enumerate(self._clauses):
            if clause.kind == "corrupt-reply":
                continue
            if not self._applies(index, clause, op):
                continue
            if clause.kind == "kill":
                if self.inline:
                    raise SimulatedWorkerDeath(
                        f"injected kill on shard {self.shard} (op {op!r})"
                    )
                os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here
            # hang: inline a sleep would block the parent thread itself,
            # so the injected death stands in for the hang; in a process
            # worker a real sleep lets the parent's deadline detection do
            # its job.
            if self.inline:
                raise SimulatedWorkerDeath(
                    f"injected hang on shard {self.shard} (op {op!r})"
                )
            time.sleep(_HANG_SECONDS)  # pragma: no cover - parent kills us first

    def on_reply(self, op: str, reply):
        """Replace the reply of a matching ``corrupt-reply`` clause."""
        for index, clause in enumerate(self._clauses):
            if clause.kind != "corrupt-reply":
                continue
            if self._applies(index, clause, op):
                return CORRUPTED_REPLY
        return reply


def compile_injector(
    spec: str | None, shard: int, inline: bool
) -> FaultInjector | None:
    """The injector for *shard*, or ``None`` when nothing can ever fire.

    Returning ``None`` (not an idle injector) is what preserves the
    zero-overhead fast path: the worker's per-message check stays a plain
    ``is None``.
    """
    if not spec:
        return None
    injector = FaultInjector(FaultPlan.parse(spec), shard, inline)
    return injector if injector.armed else None


__all__ = [
    "CORRUPTED_REPLY",
    "FAULTS_ENV",
    "FAULT_KINDS",
    "FaultClause",
    "FaultInjector",
    "FaultPlan",
    "NULL_PLAN",
    "SimulatedWorkerDeath",
    "WORKER_OPS",
    "compile_injector",
    "resolve_faults",
]
