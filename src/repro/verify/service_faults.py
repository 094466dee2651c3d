"""Service-level fault injection: failures the experiment server must contain.

The PR 2 registry (:mod:`repro.verify.faults`) proves the *simulator*
catches model bugs; this registry proves the *service* layer
(:mod:`repro.serve`) contains operational failures.  Each
:class:`ServiceFault` patches one seam — the worker job entry
(:func:`repro.analysis.runner.job_entry`, which a process slot receives
by name, so its doubles are module-level functions) or the cache read
path — then the harness runs a real server with two concurrent client
requests:

* the **victim** request exercises the fault and must fail *cleanly*
  with the expected typed protocol error code;
* the **healthy** request shares the server (and its one queue) and
  must still complete — failure scoping is the property under test.

Faults with a ``followup_code`` get a third request after the failure to
prove the server's post-failure behaviour (e.g. a crashed key is
quarantined, not retried into another crash).

Exposed through ``repro verify --list-faults`` / ``--inject`` alongside
the model faults, and through ``tests/test_serve_faults.py``.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.analysis import result_cache
from repro.analysis import runner as _runner
from repro.core.configs import SimConfig

__all__ = [
    "SERVICE_FAULTS",
    "ServiceFault",
    "ServiceFaultResult",
    "run_all_service_faults",
    "run_service_fault",
]

#: The workload whose jobs the injected fault targets.
VICTIM_WORKLOAD = "int_01"
#: A second workload that must keep working while the victim fails.
HEALTHY_WORKLOAD = "fp_01"
#: Trace length for both (short: the property is scoping, not fidelity).
N_INSTRUCTIONS = 2_000


def _victim_key() -> str:
    return result_cache.cache_key(VICTIM_WORKLOAD, N_INSTRUCTIONS, SimConfig())


@contextmanager
def _patched_attr(module: object, attribute: str, replacement: object) -> Iterator[None]:
    """Swap a module attribute for the duration of the block."""
    original = getattr(module, attribute)
    setattr(module, attribute, replacement)
    try:
        yield
    finally:
        setattr(module, attribute, original)


@dataclass(frozen=True)
class ServiceFault:
    """One injectable service failure and its expected typed error."""

    name: str
    description: str
    #: Protocol error code the victim request must fail with.
    expected_code: str
    #: Returns the context manager installing the failure.
    inject: Callable[[], object]
    #: Scheduler slot mode the fault needs (process isolation for
    #: worker-death faults; thread mode is faster where containment is
    #: not what the fault exercises).
    mode: str = "thread"
    #: Per-request timeout the harness attaches to the victim request.
    request_timeout: float | None = None
    #: Expected error code of a *repeat* victim request (None: skip).
    followup_code: str | None = None


SERVICE_FAULTS: dict[str, ServiceFault] = {}


def _register(fault: ServiceFault) -> ServiceFault:
    if fault.name in SERVICE_FAULTS:
        raise ValueError(f"duplicate service fault {fault.name!r}")
    SERVICE_FAULTS[fault.name] = fault
    return fault


# ----------------------------------------------------------------------
# The faults.
# ----------------------------------------------------------------------


def _killed_entry(workload: str, config: SimConfig, n_instructions: int, *args):
    if workload == VICTIM_WORKLOAD:
        os._exit(17)  # hard death: no exception, no cleanup
    return _runner.run_job(workload, config, n_instructions, *args)


def _inject_worker_killed():
    """The worker process dies (as if OOM-killed) mid-victim-job."""
    return _patched_attr(_runner, "job_entry", _killed_entry)


_register(
    ServiceFault(
        name="worker-killed",
        description="worker process dies mid-job (SIGKILL/OOM semantics): "
        "the victim request fails with worker-crash after retries and the "
        "key is quarantined; other requests keep completing",
        expected_code="worker-crash",
        inject=_inject_worker_killed,
        mode="process",
        followup_code="quarantined",
    )
)


def _inject_cache_corrupt_read():
    """The cache tier itself fails (I/O error, not a bad entry) on the
    victim key while other keys keep reading fine."""
    real_load = result_cache._load_disk
    victim = _victim_key()

    def load(key: str, directory=None):
        if key == victim:
            raise OSError("injected cache-tier read failure")
        return real_load(key, directory)

    return _patched_attr(result_cache, "_load_disk", load)


_register(
    ServiceFault(
        name="cache-corrupt-read",
        description="cache tier raises on the victim key's read (corrupt "
        "entry under load / failing disk): the request fails with "
        "cache-corrupt; other keys keep being served",
        expected_code="cache-corrupt",
        inject=_inject_cache_corrupt_read,
        mode="thread",
    )
)


def _slow_entry(workload: str, config: SimConfig, n_instructions: int, *args):
    if workload == VICTIM_WORKLOAD:
        time.sleep(60.0)  # far past the request timeout; killed early
    return _runner.run_job(workload, config, n_instructions, *args)


def _inject_slow_worker():
    """The victim's worker wedges (infinite loop semantics): the job must
    time out, the worker be killed, and the slot keep scheduling."""
    return _patched_attr(_runner, "job_entry", _slow_entry)


_register(
    ServiceFault(
        name="slow-worker",
        description="worker wedges on the victim job: the per-job timeout "
        "fires, the worker is killed, the request fails with timeout and "
        "the slot stays schedulable",
        expected_code="timeout",
        inject=_inject_slow_worker,
        mode="process",
        request_timeout=1.0,
    )
)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


@dataclass
class ServiceFaultResult:
    """What happened when one service fault ran against a live server."""

    fault: str
    caught: bool
    code: str | None
    healthy_ok: bool
    detail: str

    def render(self) -> str:
        if self.caught:
            return f"CAUGHT  {self.fault}: [{self.code}] — {self.detail}"
        return f"MISSED  {self.fault}: {self.detail}"


@contextmanager
def _isolated_cache() -> Iterator[None]:
    """Run against a private, empty cache; restore everything after."""
    saved_memory = dict(result_cache._memory_cache)
    result_cache._memory_cache.clear()
    original = os.environ.get("REPRO_SIM_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-servefault-") as tmp:
        os.environ["REPRO_SIM_CACHE_DIR"] = tmp
        try:
            yield
        finally:
            if original is None:
                os.environ.pop("REPRO_SIM_CACHE_DIR", None)
            else:
                os.environ["REPRO_SIM_CACHE_DIR"] = original
            result_cache._memory_cache.clear()
            result_cache._memory_cache.update(saved_memory)


async def _drive_fault(fault: ServiceFault) -> ServiceFaultResult:
    from repro.serve.client import ServeClient, ServeRequestError
    from repro.serve.server import ExperimentServer

    server = ExperimentServer(
        mode=fault.mode, shards=2, log=lambda *_args: None
    )
    await server.start()
    try:
        async with ServeClient(port=server.port) as client:
            victim = asyncio.create_task(
                client.run(
                    [VICTIM_WORKLOAD],
                    n_instructions=N_INSTRUCTIONS,
                    timeout=fault.request_timeout,
                )
            )
            healthy = asyncio.create_task(
                client.run([HEALTHY_WORKLOAD], n_instructions=N_INSTRUCTIONS)
            )
            code: str | None = None
            detail = ""
            try:
                victim_reply = await victim
                if victim_reply.errors:
                    code = str(victim_reply.errors[0].get("code"))
                    detail = str(victim_reply.errors[0].get("message", ""))
                else:
                    detail = "victim request completed without an error"
            except ServeRequestError as error:
                code = error.code
                detail = str(error)

            healthy_ok = False
            try:
                healthy_reply = await healthy
                healthy_ok = healthy_reply.ok and len(healthy_reply.results) == 1
                if not healthy_ok:
                    detail += " | healthy request failed"
            except ServeRequestError as error:
                detail += f" | healthy request failed: {error}"

            if (
                code == fault.expected_code
                and healthy_ok
                and fault.followup_code is not None
            ):
                try:
                    repeat = await client.run(
                        [VICTIM_WORKLOAD], n_instructions=N_INSTRUCTIONS
                    )
                    repeat_code = (
                        str(repeat.errors[0].get("code"))
                        if repeat.errors
                        else None
                    )
                except ServeRequestError as error:
                    repeat_code = error.code
                if repeat_code != fault.followup_code:
                    return ServiceFaultResult(
                        fault=fault.name,
                        caught=False,
                        code=code,
                        healthy_ok=healthy_ok,
                        detail=f"repeat request got {repeat_code!r}, "
                        f"expected {fault.followup_code!r}",
                    )
                detail += f" | repeat correctly {fault.followup_code}"

            caught = code == fault.expected_code and healthy_ok
            if code != fault.expected_code:
                detail = (
                    f"expected error code {fault.expected_code!r}, got "
                    f"{code!r}: {detail}"
                )
            return ServiceFaultResult(
                fault=fault.name,
                caught=caught,
                code=code,
                healthy_ok=healthy_ok,
                detail=detail,
            )
    finally:
        await server.close()


def run_service_fault(name: str) -> ServiceFaultResult:
    """Inject one service fault against a live server; report the catch."""
    fault = SERVICE_FAULTS[name]
    with _isolated_cache(), fault.inject():
        return asyncio.run(_drive_fault(fault))


def run_all_service_faults() -> list[ServiceFaultResult]:
    """Run every registered service fault (``repro verify --inject all``)."""
    return [run_service_fault(name) for name in SERVICE_FAULTS]
