"""`repro.serve`: the zero-dependency asyncio resolution service.

The paper's operators become a long-running, multi-tenant HTTP service:
ingest events ride per-tenant micro-batch queues so one durable commit
is amortized across a batch
(:meth:`~repro.engine.matcher.IncrementalMatcher.ingest_batch`), with
bounded-queue backpressure (429 + ``Retry-After``), hot spec reload by
fingerprint, and graceful drain on shutdown.  Everything served over
HTTP is bit-identical to the offline ``Workspace`` path — pinned by the
service differential suite (``tests/serve/``).
"""

from .app import ResolutionServer
from .batching import MicroBatchQueue, QueueFull
from .runner import ServerThread, serve_forever
from .tenants import Tenant, TenantClosed

__all__ = [
    "MicroBatchQueue",
    "QueueFull",
    "ResolutionServer",
    "ServerThread",
    "Tenant",
    "TenantClosed",
    "serve_forever",
]
