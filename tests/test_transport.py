import json
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import themepath.transport
from themepath.errors import TransportError
from themepath.transport import post_json


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """Echoes the JSON body over HTTP/1.1 and counts the connections it serves."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        data = json.dumps({"echo": json.loads(body)}).encode("utf-8")
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_port}/v1/echo"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_consecutive_posts_share_one_connection(keep_alive_server):
    server, url = keep_alive_server
    replies = [post_json(url, {"n": n}) for n in range(3)]
    assert replies == [{"echo": {"n": n}} for n in range(3)]
    assert server.connections == 1


def test_each_thread_keeps_its_own_connection(keep_alive_server):
    server, url = keep_alive_server
    replies = []

    def worker(n):
        replies.extend(post_json(url, {"n": n, "call": call}) for call in range(2))

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(replies) == 4
    assert server.connections == 2


@pytest.mark.parametrize("url", ["", "localhost:9/v1/embed", "ftp://127.0.0.1/v1/embed", "http://"])
def test_unsendable_url_fails_on_the_first_attempt(url, monkeypatch):
    sleeps = []
    monkeypatch.setattr(themepath.transport, "_sleep", sleeps.append)
    with pytest.raises(TransportError, match=f"^cannot send to {re.escape(repr(url))}: ") as info:
        post_json(url, {"n": 1})
    assert sleeps == []
    assert "attempts" not in str(info.value)


def test_cli_import_leaves_requests_unloaded():
    code = "import sys, themepath.cli; print('requests' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
