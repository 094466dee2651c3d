"""Simulation-as-a-service: the asyncio experiment server.

``repro.serve`` turns the parallel experiment engine
(:mod:`repro.analysis.parallel`) and the checksummed result cache
(:mod:`repro.analysis.runner`) into a long-running service:

* :mod:`repro.serve.protocol` — the NDJSON wire protocol: experiment-matrix
  requests, typed error codes, and the normalization that maps a request
  onto exactly the cache keys ``runner.py`` would use;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the asyncio
  front door (``repro serve``) and the matching async client; the
  server runs its jobs on the engine's :class:`~repro.analysis.scheduler.
  Scheduler` — worker slots fed by one priority queue, cross-client
  single-flight, cancellation, per-job timeouts, crash retry and
  quarantine — the same one CLI batches use;
* the cache's bounds for service life — byte/entry-bounded LRU
  eviction — live with the cache tiers in
  :mod:`repro.analysis.result_cache`, so the engine imports nothing from
  this package.

See ``docs/SERVICE.md`` for the protocol and failure semantics.
"""

from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.protocol import PROTOCOL_VERSION, ServeError
from repro.serve.server import ExperimentServer

__all__ = [
    "PROTOCOL_VERSION",
    "ExperimentServer",
    "ServeClient",
    "ServeError",
    "ServeRequestError",
]
