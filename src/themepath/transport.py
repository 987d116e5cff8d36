"""HTTP plumbing shared by the embedding and chat providers."""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING

from .errors import ProtocolError, TransportError

if TYPE_CHECKING:
    import requests

# Patchable in tests so retry paths run instantly.
_sleep = time.sleep

_RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}

# One session per thread: requests.Session is not documented as thread-safe,
# and each thread's session keeps its connections open for its next calls.
_sessions = threading.local()


def _session() -> requests.Session:
    import requests

    session = getattr(_sessions, "session", None)
    if session is None:
        session = _sessions.session = requests.Session()
    return session


def post_json(
    url: str,
    payload: dict,
    auth_token_env: str = "",
    timeout: float = 30.0,
    max_retries: int = 3,
    backoff_base: float = 0.5,
) -> dict:
    """POST a JSON payload and return the decoded JSON response.

    Connection failures and retryable HTTP statuses are retried with
    exponential backoff (max_retries additional attempts).  A URL that can
    never be sent (no scheme, an unknown scheme, a malformed host) raises
    TransportError on the first attempt.  Anything that comes back 2xx but
    is not JSON raises ProtocolError.  Requests go through the calling
    thread's session, so consecutive calls to one host reuse a kept-alive
    connection.  When the environment variable named by auth_token_env
    holds a token, it is sent as ``Authorization: Bearer <token>``; unset
    or empty, no header is sent.
    """
    # Imported on first use: loading requests is a large share of the CLI's
    # start-up, and runs with offline providers never send a request.
    import requests
    from requests.exceptions import InvalidSchema, InvalidURL, MissingSchema

    token = os.environ.get(auth_token_env) if auth_token_env else None
    headers = {"Authorization": f"Bearer {token}"} if token else None
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        if attempt > 0:
            _sleep(backoff_base * (2 ** (attempt - 1)))
        try:
            resp = _session().post(url, json=payload, headers=headers, timeout=timeout)
        except (MissingSchema, InvalidSchema, InvalidURL) as exc:
            # A malformed URL fails the same way on every attempt.
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
    raise TransportError(f"{url} unreachable after {max_retries + 1} attempts: {last_error}")
