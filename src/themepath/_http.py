"""Kept-alive HTTP connections for ``transport.post_json``, on ``http.client``.

``route(url)`` works out where a request to ``url`` goes: to the server,
or through the proxy that ``http_proxy``, ``https_proxy`` or ``all_proxy``
names unless ``no_proxy`` exempts the host.  ``exchange`` POSTs one body
on the calling thread's connection over that route.  Each thread keeps one
connection per link (scheme, host and port, or proxy and tunnel), and a
thread's connections are closed when it ends.  TLS is verified against the
system's trust store, or ``SSL_CERT_FILE``/``SSL_CERT_DIR`` when set.

``transport`` imports this module on its first remote call, so runs with
offline providers never load ``http.client``.
"""

from __future__ import annotations

import base64
import functools
import http.client
import select
import ssl
import threading
import urllib.request
import weakref
from typing import NamedTuple
from urllib.parse import unquote, urlsplit


class Link(NamedTuple):
    """The far end of one kept-alive connection: the server, or the proxy in front of it."""

    https: bool
    host: str
    port: int
    tunnel: tuple[str, int] | None = None  # HTTPS through a proxy: the server to CONNECT to
    proxy_auth: str | None = None  # the tunnel's Proxy-Authorization, if the proxy URL has credentials

    def open(self, timeout: float) -> http.client.HTTPConnection:
        if not self.https:
            return http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        conn = http.client.HTTPSConnection(self.host, self.port, timeout=timeout, context=_tls_context())
        if self.tunnel is not None:
            headers = {"Proxy-Authorization": self.proxy_auth} if self.proxy_auth else None
            conn.set_tunnel(*self.tunnel, headers=headers)
        return conn


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """One verifying context for the process: loading the trust store is the costly part."""
    return ssl.create_default_context()


def route(url: str) -> tuple[Link, str, dict[str, str]]:
    """The link a request to ``url`` goes over, its request target, and its proxy headers.

    Raises ValueError for a URL that cannot be sent: no scheme or one other
    than http/https, no host, a bad port, credentials in the URL, or a
    proxy setting that is not an ``http://`` URL.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"the scheme must be http or https, got {parts.scheme!r}")
    if not parts.hostname:
        raise ValueError("no host")
    if parts.username is not None:
        raise ValueError("credentials in the URL are not sent; name the token's variable in auth_token_env")
    https = parts.scheme == "https"
    port = parts.port  # raises ValueError unless it is a number in 0-65535
    if port is None:
        port = 443 if https else 80
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")

    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return Link(https, parts.hostname, port), target, {}
    proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if proxy_parts.scheme != "http" or not proxy_parts.hostname:
        raise ValueError(f"the proxy for {parts.scheme} must be an http:// URL")
    auth = None
    if proxy_parts.username is not None:
        pair = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
        auth = "Basic " + base64.b64encode(pair.encode("utf-8")).decode("ascii")
    if https:
        # The proxy opens a tunnel (CONNECT), and TLS runs through it to the server.
        link = Link(True, proxy_parts.hostname, proxy_parts.port or 80, (parts.hostname, port), auth)
        return link, target, {}
    # Plain HTTP goes to the proxy itself, asking for the absolute URL.
    link = Link(False, proxy_parts.hostname, proxy_parts.port or 80)
    return link, f"http://{parts.netloc}{target}", {"Proxy-Authorization": auth} if auth else {}


def _close_each(conns: dict[Link, http.client.HTTPConnection]) -> None:
    for conn in conns.values():
        conn.close()


class _Connections:
    """One thread's kept-alive connections, by link.

    It lives in a threading.local, so it is dropped when its thread ends; the
    finalizer then closes the connections, as it does for those still open
    when the interpreter exits.
    """

    def __init__(self):
        self.by_link: dict[Link, http.client.HTTPConnection] = {}
        weakref.finalize(self, _close_each, self.by_link)


_local = threading.local()


def _is_dropped(conn: http.client.HTTPConnection) -> bool:
    """True when the server has closed an idle kept-alive connection.

    Between requests nothing is due from the server, so a socket that
    reads as ready holds an end-of-file (or stray bytes): either way, it
    cannot carry the next request.
    """
    if hasattr(select, "poll"):  # select() refuses descriptors past FD_SETSIZE
        poller = select.poll()
        poller.register(conn.sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([conn.sock], [], [], 0)[0])


def _connection(link: Link, timeout: float) -> http.client.HTTPConnection:
    """The calling thread's connection over ``link``, set to ``timeout``."""
    conns = getattr(_local, "connections", None)
    if conns is None:
        conns = _local.connections = _Connections()
    conn = conns.by_link.get(link)
    if conn is None:
        conn = conns.by_link[link] = link.open(timeout)
    elif conn.sock is not None and _is_dropped(conn):
        conn.close()  # the next request opens a new socket
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    return conn


def exchange(
    link: Link, timeout: float, target: str, body: bytes, headers: dict
) -> tuple[int, bytes, str | None]:
    """POST ``body`` on the calling thread's connection over ``link``.

    Returns (status, reply body, the reply's ``Retry-After`` header or None).
    ``timeout`` bounds each socket operation.  Replies are asked for
    uncompressed (http.client sends ``Accept-Encoding: identity``).
    """
    conn = _connection(link, timeout)
    try:
        conn.request("POST", target, body, headers)
        reply = conn.getresponse()
        return reply.status, reply.read(), reply.getheader("Retry-After")
    except BaseException:
        conn.close()  # a request cut off half-way leaves nothing to reuse
        raise
