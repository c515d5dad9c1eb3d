"""Distributed coordinator/worker execution over the stdlib-HTTP protocol.

This package spreads sweeps across processes and hosts: a **coordinator**
(the ``distributed`` sweep backend) shards
:class:`~repro.backends.SweepPoint`\\ s across **workers** — plain
``repro serve`` instances started with ``repro worker``, which extends the
service with three endpoints:

``POST /register``
    Open (or re-open) a sweep session on the worker.  A new sweep id
    clears any state left behind by a previous coordinator.
``POST /pull``
    Hand the worker a shard of JSON-encoded points; the worker enqueues
    them and executes in arrival order on a background thread.  Points the
    worker has already seen (same content digest) are dropped — the digest
    is the idempotency key, so retries and straggler re-dispatch are safe.
``POST /result``
    Collect completed results (and acknowledge previously collected ones,
    which lets the worker free them).  Lost responses are harmless: an
    un-acknowledged result is simply served again.

The coordinator polls ``/result``, requeues the outstanding points of a
worker that stops answering, and — per the coded-shuffle idea — replicates
the slowest in-flight points onto idle workers (``replicate`` copies,
first result wins).  Because every point is deterministic in its seed and
results travel as the same canonical JSON the
:class:`~repro.backends.ResultCache` uses, a distributed sweep is
byte-identical to a serial one no matter how work was shuffled, retried,
or replicated.  See ``docs/DISTRIBUTED.md``.
"""

from .coordinator import Coordinator, CoordinatorStats
from .protocol import (
    DistributedError,
    RemoteExecutionError,
    WorkerProtocolError,
    WorkerUnavailableError,
    callable_path,
    decode_point,
    decode_records,
    encode_point,
    encode_records,
    payload_words,
    resolve_callable,
)
from .worker import WorkerState

__all__ = [
    "Coordinator",
    "CoordinatorStats",
    "DistributedError",
    "RemoteExecutionError",
    "WorkerProtocolError",
    "WorkerUnavailableError",
    "WorkerState",
    "callable_path",
    "decode_point",
    "decode_records",
    "encode_point",
    "encode_records",
    "payload_words",
    "resolve_callable",
]
