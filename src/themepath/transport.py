"""HTTP plumbing shared by the embedding and chat providers.

``Remote`` holds the settings every remote call is made under (endpoint,
token variable, timeout, retries, calls in flight) and checks them once;
both provider configs inherit it, so the settings mean the same under
``embedding.`` and ``llm.``.  ``post_json(remote, payload)`` sends one
request with retries; ``map_ordered`` runs independent calls (embedding
batches, cluster summaries) concurrently on worker threads that live for
the process.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

from .errors import ProtocolError, TransportError

if TYPE_CHECKING:
    import requests

T = TypeVar("T")
R = TypeVar("R")

# Patchable in tests so retry paths run instantly.
_sleep = time.sleep

_RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}

# Seconds before the first retry; each later retry waits twice as long.
_BACKOFF_BASE = 0.5


@dataclass
class Remote:
    """Where and how one provider's calls are sent."""

    endpoint: str = ""
    auth_token_env: str = ""  # name of the variable holding the bearer token
    timeout: float = 30.0
    max_retries: int = 3
    parallelism: int = 4  # calls in flight at once

    def __post_init__(self):
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if not math.isfinite(self.timeout):
            raise ValueError(f"timeout must be finite, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


# One session per thread: requests.Session is not documented as thread-safe,
# and each thread's session keeps its connections open for its next calls.
_sessions = threading.local()


def _session() -> requests.Session:
    import requests

    session = getattr(_sessions, "session", None)
    if session is None:
        session = _sessions.session = requests.Session()
    return session


# Worker threads live for the process, one pool per worker count, so each
# worker's session keeps its connection open from one map_ordered call to
# the next.  A worker that calls map_ordered runs the inner map inline: a
# pool whose every worker waits on that same pool would never finish.
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


_M_ARENA_MAX = -8  # mallopt parameter, from glibc's malloc.h


def _share_malloc_arena() -> None:
    """Have glibc serve every thread from one malloc arena.

    By default glibc gives each new thread an arena of its own, and memory a
    worker frees stays in that arena, out of reach of the other threads:
    four embedding workers kept about 2 MB each after their batches.  Python
    threads allocate while holding the GIL, so one arena adds no contention.
    Outside glibc this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # a C library without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            if not _pools:
                _share_malloc_arena()
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"themepath-x{workers}",
                initializer=_mark_worker,
            )
        return pool


def map_ordered(fn: Callable[[T], R], items: Iterable[T], parallelism: int) -> list[R]:
    """``[fn(x) for x in items]``, with up to ``parallelism`` calls in flight.

    Results keep input order.  With parallelism <= 1, a single item, or a
    call from inside a worker, it is exactly that list comprehension.  When
    calls fail, items not yet started are cancelled, the running ones are
    waited for, and the error of the first failed item in input order is
    raised, so no call outlives map_ordered.
    """
    items = list(items)
    if parallelism <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(item) for item in items]
    pool = _pool(parallelism)
    futures = [pool.submit(fn, item) for item in items]
    wait(futures, return_when=FIRST_EXCEPTION)
    for future in futures:
        future.cancel()  # only those not yet started
    wait(futures)
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]


def post_json(remote: Remote, payload: dict) -> dict:
    """POST a JSON payload to ``remote.endpoint``; return the decoded JSON response.

    Connection failures and retryable HTTP statuses are retried with
    exponential backoff (remote.max_retries additional attempts).  A
    request that can never be sent (no scheme, an unknown scheme, a
    malformed host, a payload holding NaN or infinity) raises
    TransportError on the first attempt.  Anything that comes back 2xx but
    is not JSON raises ProtocolError.  Requests go through the calling
    thread's session, so consecutive calls to one host reuse a kept-alive
    connection.  When the environment variable named by
    remote.auth_token_env holds a token, it is sent as
    ``Authorization: Bearer <token>``; unset or empty, no header is sent.
    """
    # Imported on first use: loading requests is a large share of the CLI's
    # start-up, and runs with offline providers never send a request.
    import requests
    from requests.exceptions import InvalidJSONError, InvalidSchema, InvalidURL, MissingSchema

    url = remote.endpoint
    token = os.environ.get(remote.auth_token_env) if remote.auth_token_env else None
    headers = {"Authorization": f"Bearer {token}"} if token else None
    last_error: Exception | None = None
    for attempt in range(remote.max_retries + 1):
        if attempt > 0:
            _sleep(_BACKOFF_BASE * (2 ** (attempt - 1)))
        try:
            resp = _session().post(url, json=payload, headers=headers, timeout=remote.timeout)
        except (MissingSchema, InvalidSchema, InvalidURL, InvalidJSONError) as exc:
            # A malformed URL or a payload that is not JSON (NaN, say) fails
            # the same way on every attempt.
            raise TransportError(f"cannot send to {url!r}: {exc}") from exc
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code in _RETRYABLE_STATUS:
            last_error = TransportError(f"HTTP {resp.status_code} from {url}")
            continue
        if not 200 <= resp.status_code < 300:
            raise ProtocolError(f"HTTP {resp.status_code} from {url}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise ProtocolError(f"non-JSON response from {url}") from exc
    raise TransportError(f"{url} unreachable after {remote.max_retries + 1} attempts: {last_error}")
