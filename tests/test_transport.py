import json
import math
import platform
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import themepath.transport
from themepath.embeddings import EmbeddingProviderConfig, embed_batch
from themepath.errors import ProtocolError, TransportError
from themepath.transport import Remote, map_ordered, post_json


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """Answers over HTTP/1.1 with server.reply(body) and counts the connections it serves."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        data = json.dumps(self.server.reply(json.loads(body))).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def keep_alive_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.connections = 0
    server.lock = threading.Lock()
    server.reply = lambda body: {"echo": body}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_port}/v1/echo"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_a_2xx_reply_that_is_not_json_is_a_protocol_error(stub_server, no_sleep):
    server, url = stub_server([(200, b"<html>busy</html>")])
    with pytest.raises(ProtocolError, match=f"^non-JSON response from {re.escape(url)}$"):
        post_json(Remote(url), {"n": 1})
    assert len(server.requests) == 1  # not retried


def test_consecutive_posts_share_one_connection(keep_alive_server):
    server, url = keep_alive_server
    replies = [post_json(Remote(url), {"n": n}) for n in range(3)]
    assert replies == [{"echo": {"n": n}} for n in range(3)]
    assert server.connections == 1


def test_each_thread_keeps_its_own_connection(keep_alive_server):
    server, url = keep_alive_server
    replies = []

    def worker(n):
        replies.extend(post_json(Remote(url), {"n": n, "call": call}) for call in range(2))

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(replies) == 4
    assert server.connections == 2


def test_successive_embed_calls_reuse_the_workers_connections(keep_alive_server):
    server, url = keep_alive_server
    server.reply = lambda body: {"data": [{"embedding": [1.0, float(len(t))]} for t in body["input"]]}
    cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, batch_size=1, parallelism=4)
    for call in range(2):
        texts = [f"call {call} text {'x' * i}" for i in range(6)]
        assert embed_batch(texts, cfg).shape == (6, 2)
    assert server.connections <= 4


def test_map_ordered_keeps_input_order():
    def slow_first(n):
        time.sleep(0.005 * (8 - n))  # later items finish first
        return n * n

    assert map_ordered(slow_first, range(8), 4) == [n * n for n in range(8)]
    assert map_ordered(slow_first, [], 4) == []


@pytest.mark.parametrize("parallelism, items", [(1, [1, 2, 3]), (0, [1, 2]), (4, [7])])
def test_map_ordered_runs_inline_when_there_is_nothing_to_overlap(parallelism, items):
    threads = []

    def record(n):
        threads.append(threading.current_thread())
        return -n

    assert map_ordered(record, items, parallelism) == [-n for n in items]
    assert threads == [threading.current_thread()] * len(items)


def test_map_ordered_raises_the_first_failure_in_input_order_after_every_call_ends():
    running = []

    def call(n):
        running.append(n)
        # item 3 fails at once, item 1 after it, and item 2 is still running then
        time.sleep({1: 0.05, 2: 0.15, 3: 0.0}.get(n, 0.02))
        running.remove(n)
        if n in (1, 3):
            raise ValueError(f"item {n}")
        return n

    with pytest.raises(ValueError, match="^item 1$"):
        map_ordered(call, range(6), 4)
    assert running == []


def test_map_ordered_called_from_a_worker_runs_inline():
    results = []

    def outer(n):
        return map_ordered(lambda m: (n, m), range(3), 2)

    # Both workers of the 2-wide pool call map_ordered(…, 2) themselves.
    thread = threading.Thread(target=lambda: results.append(map_ordered(outer, range(2), 2)), daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert results == [[[(n, m) for m in range(3)] for n in range(2)]]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc arenas are glibc's")
def test_workers_allocate_from_the_main_malloc_arena():
    code = (
        "import ctypes, themepath.transport as t;"
        "t.map_ordered(lambda n: len(bytes(n)), [300_000] * 8, 4);"
        "ctypes.CDLL(None).malloc_stats()"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert re.findall(r"^Arena \d+:", result.stderr, re.M) == ["Arena 0:"]


@pytest.mark.parametrize("url", ["", "localhost:9/v1/embed", "ftp://127.0.0.1/v1/embed", "http://"])
def test_unsendable_url_fails_on_the_first_attempt(url, monkeypatch):
    sleeps = []
    monkeypatch.setattr(themepath.transport, "_sleep", sleeps.append)
    with pytest.raises(TransportError, match=f"^cannot send to {re.escape(repr(url))}: ") as info:
        post_json(Remote(url), {"n": 1})
    assert sleeps == []
    assert "attempts" not in str(info.value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_unsendable_payload_fails_on_the_first_attempt(value, monkeypatch):
    sleeps = []
    monkeypatch.setattr(themepath.transport, "_sleep", sleeps.append)
    url = "http://127.0.0.1:9/v1/chat"
    with pytest.raises(TransportError, match=f"^cannot send to {re.escape(repr(url))}: ") as info:
        post_json(Remote(url, max_retries=3), {"temperature": value})
    assert sleeps == []
    assert "attempts" not in str(info.value)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"timeout": 0.0}, "timeout must be > 0, got 0.0"),
        ({"timeout": -1.0}, "timeout must be > 0, got -1.0"),
        ({"timeout": math.nan}, "timeout must be > 0, got nan"),
        ({"timeout": math.inf}, "timeout must be finite, got inf"),
        ({"max_retries": -1}, "max_retries must be >= 0"),
        ({"parallelism": 0}, "parallelism must be >= 1"),
    ],
)
def test_remote_rejects_out_of_range_settings(setting, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Remote("http://127.0.0.1:9/v1/embed", **setting)


def test_cli_import_leaves_requests_unloaded():
    code = "import sys, themepath.cli; print('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
