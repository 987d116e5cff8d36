"""HTTP plumbing shared by the embedding and chat providers.

``Remote`` holds the settings every remote call is made under (endpoint,
token variable, timeout, retries, calls in flight) and checks them once;
both provider configs inherit it, so the settings mean the same under
``embedding.`` and ``llm.``.  ``post(remote, payload)`` sends one request
with retries and returns the reply's raw bytes; ``post_json`` also parses
them.  ``map_ordered`` runs independent calls (embedding batches, cluster
summaries) concurrently on worker threads that live for the process, and
can hand each result, in input order, to a step on the calling thread as
soon as it lands: embedding workers only send and receive, and the
calling thread decodes, normalizes and caches each reply, one at a time.

Requests go out on the standard library's ``http.client`` (``_http``,
imported on the first call).  Each thread keeps one kept-alive connection
per scheme, host and port, and closes them when it ends.  The proxy
variables ``http_proxy``, ``https_proxy``, ``all_proxy`` and ``no_proxy``
(either case) are honoured; TLS is verified against the system's trust
store, or ``SSL_CERT_FILE``/``SSL_CERT_DIR`` when set.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from .errors import ProtocolError, TransportError

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")

# Patchable in tests so retry paths run instantly.
_sleep = time.sleep

_RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}
# Statuses whose Retry-After header sets the wait before the next attempt.
_RETRY_AFTER_STATUS = {429, 503}

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


# Worker threads live for the process, one pool per worker count, so each
# worker's connections stay open from one map_ordered call to the next.  A
# worker that calls map_ordered runs the inner map inline: a pool whose
# every worker waits on that same pool would never finish.
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


def map_ordered(
    fn: Callable[[T], R], items: Iterable[T], parallelism: int, then: Callable[[T, R], S] | None = None
) -> list[R] | list[S]:
    """``[fn(x) for x in items]``, with up to ``parallelism`` calls in flight.

    With ``then``, it is ``[then(x, fn(x)) for x in items]``: each ``then``
    runs on the calling thread, in input order, as soon as its item's call
    and every earlier one have ended, and the call's result is dropped once
    its ``then`` has returned.

    Results keep input order.  With parallelism <= 1, a single item, or a
    call from inside a worker, it is exactly that list comprehension.  When
    a call or a ``then`` fails, items not yet started are cancelled, the
    running ones are waited for, ``then`` still runs for every call that
    succeeded, and the error of the first failed item in input order is
    raised, so no call outlives map_ordered and a failed item costs only
    itself.
    """
    items = list(items)
    if then is None:
        then = _result
    if parallelism <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [then(item, fn(item)) for item in items]
    pool = _pool(parallelism)
    # Slots are emptied as they are handled, so no result outlives its then.
    futures: list[Future | None] = [pool.submit(fn, item) for item in items]

    def cancel_rest(future: Future | None = None) -> None:
        if future is None or (not future.cancelled() and future.exception() is not None):
            for pending in list(futures):
                if pending is not None:
                    pending.cancel()  # only those not yet started

    for future in futures:
        future.add_done_callback(cancel_rest)  # a worker's failure stops the rest at once
    out = []
    error: Exception | None = None  # the first failure in input order
    for index, item in enumerate(items):
        future, futures[index] = futures[index], None
        try:
            result = future.result()
        except Exception as exc:
            if not future.cancelled():
                error = error or exc
            continue
        try:
            out.append(then(item, result))
        except Exception as exc:
            error = error or exc
            cancel_rest()
        del result  # not held while the next item is waited for
    if error is not None:
        raise error
    return out


def _result(item, result):
    return result


def post(remote: Remote, payload: dict) -> bytes:
    """POST a JSON payload to ``remote.endpoint``; return the 2xx reply's body as it came.

    Connection failures, timeouts and retryable HTTP statuses are retried
    with exponential backoff (remote.max_retries additional attempts);
    ``remote.timeout`` bounds every socket operation.  After a 429 or 503
    whose ``Retry-After`` asks for a longer wait than the backoff, the next
    attempt waits that long, up to ``remote.timeout``.  A request that can
    never be sent (no scheme, an unknown scheme, a malformed host or port, a
    payload holding NaN or infinity) raises TransportError on the first
    attempt.  Any other status outside 2xx, 3xx included (no redirect is
    followed), raises ProtocolError quoting the start of the reply.

    The request goes out on the calling thread's kept-alive connection to
    the endpoint's scheme, host and port, opened on first use and opened
    again if the server has closed it; through a proxy when the ``*_proxy``
    variables name one and ``no_proxy`` does not exempt the host.  Replies
    are asked for uncompressed.  When the environment variable named by
    remote.auth_token_env holds a token, it is sent as
    ``Authorization: Bearer <token>``; unset or empty, no header is sent.
    """
    # Imported on first use: runs with offline providers never send a request.
    import http.client

    from . import __version__, _http

    url = remote.endpoint
    try:
        link, target, headers = _http.route(url)
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise TransportError(f"cannot send to {url!r}: {exc}") from exc
    headers.update({"Content-Type": "application/json", "User-Agent": f"themepath/{__version__}"})
    token = os.environ.get(remote.auth_token_env) if remote.auth_token_env else None
    if token:
        headers["Authorization"] = f"Bearer {token}"
    last_error: Exception | None = None
    asked = 0.0  # the wait the last reply's Retry-After asked for, capped at the timeout
    for attempt in range(remote.max_retries + 1):
        if attempt > 0:
            _sleep(max(_BACKOFF_BASE * (2 ** (attempt - 1)), asked))
            asked = 0.0
        try:
            status, data, retry_after = _http.exchange(link, remote.timeout, target, body, headers)
        except (http.client.InvalidURL, ValueError) as exc:
            # http.client refuses to put the target or a header value (a
            # token holding a line break, say) on the wire, every time.
            raise TransportError(f"cannot send to {url!r}: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            continue
        if status in _RETRYABLE_STATUS:
            last_error = TransportError(f"HTTP {status} from {url}")
            if status in _RETRY_AFTER_STATUS:
                asked = min(_retry_after_seconds(retry_after), remote.timeout)
            continue
        if not 200 <= status < 300:
            text = data.decode("utf-8", errors="replace")
            raise ProtocolError(f"HTTP {status} from {url}: {text[:200]}")
        return data
    raise TransportError(f"{url} unreachable after {remote.max_retries + 1} attempts: {last_error}")


def _retry_after_seconds(value: str | None) -> float:
    """The wait a ``Retry-After`` header asks for, in seconds from now.

    It is either delta-seconds or an HTTP-date.  No header, a malformed
    value or a date already past ask for no wait (0.0), so the backoff
    alone applies.
    """
    if value is None:
        return 0.0
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    import email.utils  # loaded by http.client already

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0.0
    if when.tzinfo is None:  # "-0000": UTC, with no claim about the local zone
        when = when.replace(tzinfo=datetime.timezone.utc)
    return max(0.0, when.timestamp() - time.time())


def post_json(remote: Remote, payload: dict) -> dict:
    """``post`` the payload and decode the JSON reply; a 2xx reply that is not JSON is a ProtocolError."""
    return parse_json(remote, post(remote, payload))


def parse_json(remote: Remote, data: bytes):
    """Decode the body of a 2xx reply from ``remote``; ProtocolError if it is not JSON."""
    try:
        return json.loads(data)
    except ValueError as exc:
        raise ProtocolError(f"non-JSON response from {remote.endpoint}") from exc
