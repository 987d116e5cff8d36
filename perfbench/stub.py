"""Stub embedding and chat provider with injected delays and traffic counters.

Runs as its own process so its CPU time is not charged to the program
under test.  It serves the two HTTP contracts themepath's remote providers
speak:

* ``POST /v1/embeddings``: ``{"model", "input": [texts]}`` ->
  ``{"data": [{"embedding": [...]}, ...]}`` with 768-dim feature-hashed
  vectors, so chunks that share a vocabulary point the same way.
* ``POST /v1/chat/completions``: chat messages -> a reply made of the first
  sentence of each passage in the user prompt.

Every provider request sleeps a fixed delay (embed and chat differ), and
the first provider request on a new connection sleeps an extra delay that
stands in for the TCP and TLS handshakes localhost does not have.  The
delays are real providers' latencies scaled down, and part of the
benchmark's workload definition.  Replies
are cached by request body, so after the first sight of a request the
stub's own work is a dictionary lookup and its time is the injected delay.

``GET /stats`` returns the counters as JSON: connections and requests that
carried provider traffic, and billed tokens (embedding input tokens, chat
prompt and completion tokens).  Stats requests are not counted.

    python3 perfbench/stub.py

prints ``port <n>`` once it listens on 127.0.0.1.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMBED_DELAY_S = 0.050  # per embedding call
CHAT_DELAY_S = 0.200  # per chat call
CONNECT_DELAY_S = 0.030  # per new connection
DIM = 768
FEATURES_PER_TOKEN = 4
REPLY_MAX_WORDS = 60
# Billing tokens are counted here, as a provider would, without importing the package under test.
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_")
_WORD_RE = re.compile(r"[^\W\d_]+")
_SENTENCE_END = re.compile(r"(?<=[.!?])\s")


def count_tokens(text: str) -> int:
    return sum(1 for _ in _TOKEN_RE.finditer(text))


class Stats:
    FIELDS = ("connections", "requests", "embed_tokens", "prompt_tokens", "completion_tokens")

    def __init__(self):
        self._lock = threading.Lock()
        self._values = dict.fromkeys(self.FIELDS, 0)

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._values[name] += delta

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._values)


class Provider:
    """Computes replies; pure functions of the request body, memoised."""

    def __init__(self):
        self._features: dict[str, list[tuple[int, float]]] = {}
        self._replies: dict[tuple[str, bytes], tuple[bytes, dict]] = {}
        self._lock = threading.Lock()

    def _token_features(self, word: str) -> list[tuple[int, float]]:
        feats = self._features.get(word)
        if feats is None:
            digest = hashlib.blake2b(word.encode("utf-8"), digest_size=4 * FEATURES_PER_TOKEN).digest()
            feats = []
            for i in range(FEATURES_PER_TOKEN):
                value = int.from_bytes(digest[4 * i : 4 * i + 4], "little")
                feats.append((value % DIM, 1.0 if value & (1 << 31) else -1.0))
            self._features[word] = feats
        return feats

    def embed_vector(self, text: str) -> list[float]:
        vec = [0.0] * DIM
        counts: dict[str, int] = {}
        for word in _WORD_RE.findall(text.lower()):
            counts[word] = counts.get(word, 0) + 1
        for word, n in counts.items():
            for idx, sign in self._token_features(word):
                vec[idx] += sign * n
        norm = math.sqrt(sum(x * x for x in vec)) or 1.0
        return [round(x / norm, 6) for x in vec]

    def _embed(self, body: dict) -> tuple[dict, dict]:
        texts = body["input"]
        data = [{"index": i, "embedding": self.embed_vector(t)} for i, t in enumerate(texts)]
        tokens = sum(count_tokens(t) for t in texts)
        return {"data": data, "usage": {"prompt_tokens": tokens}}, {"embed_tokens": tokens}

    def _chat(self, body: dict) -> tuple[dict, dict]:
        messages = body["messages"]
        user = messages[-1]["content"]
        passages = [p for p in user.split("\n\n")[1:] if p.strip()]
        firsts = [_SENTENCE_END.split(p.strip(), maxsplit=1)[0] for p in passages]
        reply = " ".join(" ".join(firsts).split()[:REPLY_MAX_WORDS]) or "Nothing to summarize."
        prompt = sum(count_tokens(m["content"]) for m in messages)
        completion = count_tokens(reply)
        payload = {
            "choices": [{"index": 0, "message": {"role": "assistant", "content": reply}}],
            "usage": {"prompt_tokens": prompt, "completion_tokens": completion,
                      "total_tokens": prompt + completion},
        }
        return payload, {"prompt_tokens": prompt, "completion_tokens": completion}

    def reply(self, kind: str, raw: bytes) -> tuple[bytes, dict]:
        key = (kind, hashlib.sha256(raw).digest())
        with self._lock:
            cached = self._replies.get(key)
        if cached is None:
            body = json.loads(raw)
            payload, billed = self._embed(body) if kind == "embed" else self._chat(body)
            cached = (json.dumps(payload).encode("utf-8"), billed)
            with self._lock:
                self._replies[key] = cached
        return cached


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    ROUTES = {"/v1/embeddings": "embed", "/v1/chat/completions": "chat"}

    def setup(self):
        super().setup()
        self._counted = False

    def _send(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, json.dumps(self.server.stats.snapshot()).encode("utf-8"))
        else:
            self._send(404, b"{}")

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        kind = self.ROUTES.get(self.path)
        if kind is None:
            self._send(404, b"{}")
            return
        server = self.server
        if not self._counted:
            self._counted = True
            server.stats.add(connections=1)
            time.sleep(CONNECT_DELAY_S)
        data, billed = server.provider.reply(kind, raw)
        time.sleep(EMBED_DELAY_S if kind == "embed" else CHAT_DELAY_S)
        server.stats.add(requests=1, **billed)
        self._send(200, data)

    def log_message(self, *args):
        pass


def serve() -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.stats = Stats()
    server.provider = Provider()
    return server


def main() -> None:
    server = serve()
    print(f"port {server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
