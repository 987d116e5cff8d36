"""Shared fixtures: HTTP stub server, instant retries, synthetic documents."""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import settings

import themepath.transport

settings.register_profile("deterministic", derandomize=True, max_examples=60)
# For the properties that compare bits against numpy or json.loads, where
# rounding cases are rare: HYPOTHESIS_PROFILE=thorough.
settings.register_profile("thorough", derandomize=True, max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append(
            {"path": self.path, "body": body, "headers": dict(self.headers)}
        )
        script = self.server.script
        if callable(script):
            entry = script(body)
        else:
            entry = script[min(len(self.server.requests) - 1, len(script) - 1)]
        status, payload, *extra = entry
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _StubServer(ThreadingHTTPServer):
    # socketserver listens with a backlog of 5.  Past it, a burst of new
    # connections (22 summaries sent at once) waits out a 1 s SYN retry.
    request_queue_size = 64


@pytest.fixture
def stub_server():
    """Factory: stub_server(script) -> (server, url).

    script is a list of (status, json_payload) pairs served in request
    order, the last entry repeating, or a callable that maps each decoded
    request body to its (status, json_payload). An entry may add a third
    item, a dict of reply headers to send. A bytes payload is sent as it
    is. The server records request bodies.
    """
    servers = []

    def make(script):
        server = _StubServer(("127.0.0.1", 0), _StubHandler)
        server.script = script
        server.requests = []
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, f"http://127.0.0.1:{server.server_port}"

    yield make
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def no_sleep(monkeypatch):
    monkeypatch.setattr(themepath.transport, "_sleep", lambda _: None)


TOPIC_VOCABS = {
    "alpha": [f"alpha{i}" for i in range(24)],
    "beta": [f"beta{i}" for i in range(24)],
    "gamma": [f"gamma{i}" for i in range(24)],
    "delta": [f"delta{i}" for i in range(24)],
}


def make_topic_document(
    seed: int,
    topic_order: list[str],
    chunks_per_topic: int = 4,
    sentences_per_chunk: int = 3,
    words_per_sentence: int = 9,
) -> str:
    """A document of topic sections with disjoint vocabularies.

    Each sentence is words_per_sentence words plus a period, so one chunk is
    sentences_per_chunk * (words_per_sentence + 1) tokens and sections align
    exactly with a zero-overlap chunker of that size.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for topic in topic_order:
        vocab = TOPIC_VOCABS[topic]
        for _ in range(chunks_per_topic * sentences_per_chunk):
            words = [vocab[int(i)] for i in rng.integers(0, len(vocab), words_per_sentence)]
            parts.append(" ".join(words) + " .")
    return " ".join(parts)


def tokens_per_chunk(sentences_per_chunk: int = 3, words_per_sentence: int = 9) -> int:
    return sentences_per_chunk * (words_per_sentence + 1)


@pytest.fixture
def topic_document_factory():
    return make_topic_document


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance(label): acceptance criterion test")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    terminal = item.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        status = "PASS" if report.passed else "FAIL"
        terminal.write_line(f"[acceptance] {marker.args[0]}: {status}")
