import contextlib
import dataclasses
import hashlib
import logging
import math
import os
import re
import sqlite3
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import make_topic_document, tokens_per_chunk
from oracles import per_token_test_vector
from themepath import embeddings
from themepath.chunking import ChunkerConfig, chunk_document
from themepath.embeddings import (
    EmbeddingCache,
    EmbeddingProviderConfig,
    TEST_PROVIDER_DIM,
    cosine_similarity,
    embed_batch,
    normalize,
    _test_vector,
    _test_vectors,
)
from themepath.errors import DegenerateInputError, ProtocolError, TransportError
from themepath.transport import map_ordered


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12)

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(normalize(v), v)

    def test_axis_vector(self):
        assert np.array_equal(normalize(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(np.zeros(4))

    def test_result_has_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.normal(size=12)
            assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-9


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([0.3, -0.2, 9.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.7071, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_normalized_vector_keeps_direction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=8)
            assert cosine_similarity(normalize(v), v) == pytest.approx(1.0, abs=1e-9)


class TestDeterministicProvider:
    def test_fixed_dim_and_unit_norm(self):
        vec = _test_vector("the quick brown fox")
        assert vec.shape == (TEST_PROVIDER_DIM,)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    def test_identical_texts_identical_vectors(self):
        cfg = EmbeddingProviderConfig()
        out = embed_batch(["x", "x"], cfg)
        assert np.array_equal(out[0], out[1])

    def test_whitespace_only_text_still_embeds(self):
        vec = _test_vector("   ")
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    def test_bit_identical_across_processes(self):
        text = "reproducible embedding check"
        local = hashlib.sha256(_test_vector(text).tobytes()).hexdigest()
        code = (
            "import hashlib; from themepath.embeddings import _test_vector; "
            f"print(hashlib.sha256(_test_vector({text!r}).tobytes()).hexdigest())"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == local

    def test_embed_batch_requires_texts(self):
        with pytest.raises(ValueError):
            embed_batch([], EmbeddingProviderConfig())

    def test_each_distinct_token_is_hashed_once_per_call(self, monkeypatch):
        hashed = []

        def counting_feature(token):
            hashed.append(token)
            return feature(token)

        feature = embeddings._token_feature
        monkeypatch.setattr(embeddings, "_token_feature", counting_feature)
        texts = ["Alpha beta ALPHA.", "beta gamma beta", "Alpha beta ALPHA."]
        embed_batch(texts, EmbeddingProviderConfig())
        assert sorted(hashed) == [".", "alpha", "beta", "gamma"]
        hashed.clear()
        embed_batch(texts, EmbeddingProviderConfig())
        assert sorted(hashed) == [".", "alpha", "beta", "gamma"]


    def test_memory_grows_with_distinct_tokens_not_words(self):
        # 40,000 distinct words, as punctuation makes of a natural vocabulary,
        # over only 201 distinct tokens.
        words = [f"{a},{b}" for a, b in product([f"w{i}" for i in range(200)], repeat=2)]
        texts = [" ".join(words[i : i + 500]) for i in range(0, len(words), 500)]
        tracemalloc.start()
        try:
            vectors = _test_vectors(texts)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vectors) == len(texts)
        # About 0.1 MB here.  A table that keeps each word's features takes
        # about 100 bytes a word as tuples, and over 900 as dense int32 rows.
        assert peak - retained < 25 * len(words)


def _topic_chunk_texts():
    doc = make_topic_document(7, ["alpha", "beta", "gamma", "delta", "alpha"])
    cfg = ChunkerConfig(chunk_size=tokens_per_chunk(), overlap=0)
    return [chunk.text for chunk in chunk_document(doc, cfg)]


def _cancelling_text():
    """Two tokens with the same index and opposite signs, so their sum is 0."""
    seen = {}
    for i in range(1000):
        token = f"w{i}"
        idx, sign = embeddings._token_feature(token)
        other = seen.get((idx, -sign))
        if other is not None:
            return f"{other} {token} {token.upper()} {other}"
        seen.setdefault((idx, sign), token)
    raise AssertionError("no cancelling token pair among 1000 tokens")


class TestAgainstPerTokenOracle:
    @pytest.mark.parametrize(
        "texts",
        [
            _topic_chunk_texts(),
            ["İstanbul ΣΊΣΥΦΟΣ STRASSE straße", "istanbul σίσυφος strasse"],
            ["   ", "\t\n", "x"],
            [_cancelling_text()],
            # Words of 40,000 tokens, whose feature sums overflow int8 and int16.
            ["," * 40_000, "x" + "_" * 40_000, "w," * 20_000],
            ["Alpha ALPHA alpha aLpHa", "STRASSE Straße strasse", "alpha. Alpha."],
            ["a\u3000b\x1cc\x1dd\x1ee\x1ff\x85g\u2028h", "\u3000a.\u2028A\x85"],
        ],
        ids=[
            "topic-chunks",
            "lowercasing",
            "whitespace-only",
            "cancelling-signs",
            "40k-token-word",
            "case-only",
            "unusual-whitespace",
        ],
    )
    def test_bit_identical_to_per_token_hashing(self, texts):
        want = np.stack([per_token_test_vector(t) for t in texts])
        assert np.stack(_test_vectors(texts)).tobytes() == want.tobytes()

    def test_embed_batch_normalizes_once(self):
        # The provider's unit vectors come back as they are, not renormalized.
        texts = _topic_chunk_texts()
        want = np.stack([per_token_test_vector(t) for t in texts])
        assert embed_batch(texts, EmbeddingProviderConfig()).tobytes() == want.tobytes()

    def test_str_split_breaks_exactly_where_the_tokenizer_sees_whitespace(self):
        # The embedder counts str.split words and tokenizes each one alone.
        chars = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF)
        assert [c for c in chars if c.isspace()] == re.findall(r"\s", chars)
        assert "".join(chars.split()) == re.sub(r"\s", "", chars)

    def test_cancelling_text_takes_the_fallback_basis_vector(self):
        assert np.count_nonzero(_test_vector(_cancelling_text())) == 1


class TestCache:
    def test_get_on_empty_cache(self, tmp_path):
        with EmbeddingCache(str(tmp_path)) as cache:
            assert cache.get("m", "text") is None

    def test_put_then_get_bit_exact(self, tmp_path):
        vec = np.random.default_rng(0).normal(size=64)
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put("m", ["text"], [vec])
            assert np.array_equal(cache.get("m", "text"), vec)

    def test_survives_reopen(self, tmp_path):
        vec = np.array([1.5, -2.25, 3.125])
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put("m", ["t"], [vec])
        with EmbeddingCache(str(tmp_path)) as cache:
            assert np.array_equal(cache.get("m", "t"), vec)

    def test_model_name_distinguishes_entries(self, tmp_path):
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put("model-a", ["same text"], [np.array([1.0])])
            cache.put("model-b", ["same text"], [np.array([2.0])])
            assert cache.get("model-a", "same text")[0] == 1.0
            assert cache.get("model-b", "same text")[0] == 2.0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put("m", ["t"], [np.array([1.0])])
            _set_row(cache.path, cache.key("m", "t"), b"")
            assert cache.get("m", "t") is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_is_a_miss(self, tmp_path, bad):
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put("m", ["t"], [np.array([1.0])])
            _set_row(cache.path, cache.key("m", "t"), np.array([1.0, bad]).tobytes())
            assert cache.get("m", "t") is None

    def test_cached_results_match_uncached(self, tmp_path):
        texts = ["alpha beta", "gamma", "alpha beta"]
        plain = embed_batch(texts, EmbeddingProviderConfig())
        cfg = EmbeddingProviderConfig(cache_dir=str(tmp_path))
        first = embed_batch(texts, cfg)
        second = embed_batch(texts, cfg)  # all hits
        assert np.array_equal(plain, first)
        assert np.array_equal(first, second)

    def test_concurrent_access_is_benign(self, tmp_path):
        vec = np.arange(16, dtype=np.float64)
        with EmbeddingCache(str(tmp_path)) as cache:

            def hammer(_):
                cache.put("m", ["k"], [vec])
                got = cache.get("m", "k")
                return got is None or np.array_equal(got, vec)

            assert all(map_ordered(hammer, range(64), 8))


def _set_row(store: str, key: str, value: bytes) -> None:
    """Overwrite one row's value behind the cache's back."""
    with contextlib.closing(sqlite3.connect(store)) as db, db:
        assert db.execute("UPDATE vectors SET value = ? WHERE key = ?", (value, key)).rowcount == 1


def _open_paths() -> list[str]:
    paths = []
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the directory's own descriptor is gone by now
            paths.append(os.readlink(os.path.join("/proc/self/fd", fd)))
    return paths


class TestStore:
    @pytest.mark.parametrize("length", [1, 7, 9, 8 * 64 - 3])
    def test_blob_length_not_a_multiple_of_8_is_a_miss(self, tmp_path, caplog, length):
        vec = np.random.default_rng(1).normal(size=64)
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put("m", ["t"], [vec])
            _set_row(cache.path, cache.key("m", "t"), vec.tobytes()[:length])
            assert cache.get("m", "t") is None
        assert "treated as miss" in caplog.text

    def test_garbage_store_warns_once_and_runs_uncached(self, tmp_path, caplog):
        garbage = b"this is not an sqlite3 database\n" * 100
        store = tmp_path / EmbeddingCache.FILENAME
        store.write_bytes(garbage)
        texts = ["alpha beta", "gamma", "alpha beta"]
        with caplog.at_level(logging.WARNING, logger="themepath.embeddings"):
            out = embed_batch(texts, EmbeddingProviderConfig(cache_dir=str(tmp_path)))
        assert np.array_equal(out, embed_batch(texts, EmbeddingProviderConfig()))
        assert len(caplog.records) == 1
        assert store.read_bytes() == garbage
        assert os.listdir(tmp_path) == [EmbeddingCache.FILENAME]

    def test_one_file_after_100_texts(self, tmp_path):
        embed_batch([f"text number {i}" for i in range(100)], EmbeddingProviderConfig(cache_dir=str(tmp_path)))
        assert os.listdir(tmp_path) == [EmbeddingCache.FILENAME]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_store_is_closed_when_embed_batch_returns_or_raises(self, stub_server, no_sleep, tmp_path):
        store = str(tmp_path / EmbeddingCache.FILENAME)
        embed_batch(["a", "b"], EmbeddingProviderConfig(cache_dir=str(tmp_path)))
        assert store not in _open_paths()

        server, url = stub_server([(400, {"error": "rejected"})])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, cache_dir=str(tmp_path))
        with pytest.raises(ProtocolError) as info:
            embed_batch(["c", "d"], cfg)
        # info's traceback keeps embed_batch's frame, and so its cache, alive.
        assert info.tb is not None and store not in _open_paths()

    def test_two_caches_on_one_directory_from_two_threads(self, tmp_path):
        rng = np.random.default_rng(2)
        batches = {name: [(f"{name} {i}", rng.normal(size=32)) for i in range(200)] for name in ("x", "y")}
        errors = []

        def write(name):
            try:
                with EmbeddingCache(str(tmp_path)) as cache:
                    for i in range(0, 200, 10):
                        texts, vectors = zip(*batches[name][i : i + 10])
                        cache.put("m", texts, vectors)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(name,)) for name in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        with EmbeddingCache(str(tmp_path)) as cache:
            for text, vec in batches["x"] + batches["y"]:
                assert np.array_equal(cache.get("m", text), vec)


def test_cli_import_leaves_sqlite3_and_requests_unloaded():
    code = "import sys, themepath.cli; print(sorted({'sqlite3', 'requests', 'http.client'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def _embedding_payload(vectors):
    return {"data": [{"embedding": list(map(float, v))} for v in vectors]}


def _vector_for(text):
    """A direction of its own for each text, so a row in the wrong place shows."""
    return [1.0 + b for b in hashlib.sha256(text.encode("utf-8")).digest()[:4]]


def _expected_rows(texts):
    return np.stack([normalize(np.array(_vector_for(t))) for t in texts])


def _derived_reply(body):
    return 200, _embedding_payload([_vector_for(t) for t in body["input"]])


class TestRemoteProvider:
    def test_canned_vectors_in_order(self, stub_server, no_sleep):
        canned = [[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]
        server, url = stub_server([(200, _embedding_payload(canned))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, model_name="e5-test")
        out = embed_batch(["a", "b", "c"], cfg)
        expected = np.stack([normalize(np.array(v)) for v in canned])
        assert np.allclose(out, expected, atol=1e-12)
        assert server.requests[0]["body"] == {"model": "e5-test", "input": ["a", "b", "c"]}

    def test_retry_then_success(self, stub_server, no_sleep):
        server, url = stub_server([(503, {}), (200, _embedding_payload([[1.0, 1.0]]))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, max_retries=2)
        out = embed_batch(["a"], cfg)
        assert out.shape == (1, 2)
        assert len(server.requests) == 2

    def test_transport_error_after_retries(self, stub_server, no_sleep):
        server, url = stub_server([(503, {})])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, max_retries=1)
        with pytest.raises(TransportError):
            embed_batch(["a"], cfg)
        assert len(server.requests) == 2

    def test_dimension_mismatch_across_batches(self, stub_server, no_sleep):
        widths = {"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]}
        server, url = stub_server(
            lambda body: (200, _embedding_payload([widths[t] for t in body["input"]]))
        )
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, batch_size=1)
        with pytest.raises(ProtocolError):
            embed_batch(["a", "b"], cfg)

    def test_infinite_value_is_protocol_error(self, stub_server, no_sleep):
        # The JSON decoder reads the stub's Infinity as a float.
        server, url = stub_server([(200, _embedding_payload([[1.0, float("inf")]]))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url)
        with pytest.raises(ProtocolError, match="non-finite embedding values"):
            embed_batch(["a"], cfg)

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_reply_is_refused_before_it_is_cached(self, stub_server, no_sleep, tmp_path):
        server, url = stub_server([(200, b'{"data": [{"embedding": [1.0, Infinity]}]}')])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, cache_dir=str(tmp_path))
        for _ in range(2):
            with pytest.raises(ProtocolError, match="non-finite embedding values"):
                embed_batch(["a"], cfg)
        assert len(server.requests) == 2  # the second call asked again: nothing was cached

    def test_malformed_response(self, stub_server, no_sleep):
        server, url = stub_server([(200, {"unexpected": []})])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url)
        with pytest.raises(ProtocolError):
            embed_batch(["a"], cfg)

    @pytest.mark.parametrize(
        "items",
        [
            [{"embedding": [[1.0, 2.0], [3.0, 4.0]]}],
            [{"embedding": [[1.0, 2.0], [3.0]]}],
            [{"embedding": [1.0, [2.0]]}],
            [{"embedding": ["0.5", "x"]}],
            [{"embedding": []}],
            [{"embedding": [1.0, 0.0]}, {"embedding": [1.0, 0.0, 0.0]}],
            [[1.0, 0.0]],
            [{"vector": [1.0, 0.0]}],
        ],
        ids=[
            "nested",
            "ragged-nested",
            "ragged-mixed",
            "strings",
            "empty",
            "ragged-batch",
            "bare-list",
            "no-embedding-field",
        ],
    )
    def test_malformed_vectors_are_protocol_errors(self, stub_server, no_sleep, items):
        server, url = stub_server([(200, {"data": items})])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url)
        with pytest.raises(ProtocolError):
            embed_batch([f"t{i}" for i in range(len(items))], cfg)

    def test_wrong_vector_count(self, stub_server, no_sleep):
        server, url = stub_server([(200, _embedding_payload([[1.0, 0.0]]))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url)
        with pytest.raises(ProtocolError):
            embed_batch(["a", "b"], cfg)

    def test_parallel_batches_preserve_input_order(self, stub_server, no_sleep, tmp_path):
        texts = [f"text {i}" for i in range(14)]
        cached = texts[::3]  # hits interleaved with misses

        def reply(body):
            # Later batches answer sooner, so replies come back in reverse order.
            time.sleep(0.004 * (len(texts) - texts.index(body["input"][0])))
            return _derived_reply(body)

        server, url = stub_server(reply)
        for batch_size in (1, 3):
            server.requests.clear()
            cache_dir = tmp_path / f"batch{batch_size}"
            cfg = EmbeddingProviderConfig(
                kind="remote", endpoint=url, batch_size=batch_size, parallelism=4, cache_dir=str(cache_dir)
            )
            with EmbeddingCache(str(cache_dir)) as cache:
                cache.put(cfg.model_name, cached, [normalize(np.array(_vector_for(t))) for t in cached])
            # Switch threads often, so a row lost between workers would show.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                out = embed_batch(texts, cfg)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(out, _expected_rows(texts))
            batches = sorted((r["body"]["input"] for r in server.requests), key=lambda b: texts.index(b[0]))
            misses = [t for t in texts if t not in cached]
            assert batches == [misses[i : i + batch_size] for i in range(0, len(misses), batch_size)]

    def test_completed_batches_stay_cached_when_one_fails(self, stub_server, no_sleep, tmp_path):
        texts = [f"text {i}" for i in range(8)]
        failing = texts[2:4]  # the second of four batches
        answered = []
        others_answered = threading.Event()
        lock = threading.Lock()

        def reply(body):
            if body["input"] == failing:
                # Fail only once the other batches are in, so none of them is
                # cancelled before it is sent.
                others_answered.wait(timeout=10)
                return 400, {"error": "rejected"}
            with lock:
                answered.append(body["input"])
                if len(answered) == 3:
                    others_answered.set()
            return _derived_reply(body)

        server, url = stub_server(reply)
        cfg = EmbeddingProviderConfig(
            kind="remote", endpoint=url, batch_size=2, parallelism=4, cache_dir=str(tmp_path)
        )
        with pytest.raises(ProtocolError, match="^HTTP 400 from "):
            embed_batch(texts, cfg)
        cache = EmbeddingCache(str(tmp_path))
        for text, row in zip(texts, _expected_rows(texts)):
            got = cache.get(cfg.model_name, text)
            if text in failing:
                assert got is None
            else:
                assert np.array_equal(got, row)

        healthy, healthy_url = stub_server(_derived_reply)
        out = embed_batch(texts, dataclasses.replace(cfg, endpoint=healthy_url))
        assert [r["body"]["input"] for r in healthy.requests] == [failing]
        assert np.array_equal(out, _expected_rows(texts))

    def test_batches_are_decoded_and_normalized_on_the_calling_thread(
        self, stub_server, no_sleep, monkeypatch
    ):
        threads = {"parse_json": [], "_unit_rows": []}
        for name in threads:
            original = getattr(embeddings, name)

            def recording(*args, _original=original, _name=name):
                threads[_name].append(threading.current_thread())
                return _original(*args)

            monkeypatch.setattr(embeddings, name, recording)
        server, url = stub_server(_derived_reply)
        texts = [f"text {i}" for i in range(8)]
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, batch_size=2, parallelism=4)
        assert np.array_equal(embed_batch(texts, cfg), _expected_rows(texts))
        assert len(server.requests) == 4
        assert threads == {name: [threading.current_thread()] * 4 for name in threads}

    def test_a_malformed_reply_refused_by_the_caller_keeps_later_fetched_batches(
        self, stub_server, no_sleep, tmp_path, monkeypatch
    ):
        texts = [f"text {i}" for i in range(8)]
        batches = [texts[i : i + 2] for i in range(0, 8, 2)]
        fetched = []
        later_fetched = threading.Event()
        lock = threading.Lock()
        original_post = embeddings.post

        def recording_post(remote, payload):
            reply = original_post(remote, payload)
            with lock:
                fetched.append(payload["input"])
                if batches[2] in fetched and batches[3] in fetched:
                    later_fetched.set()
            return reply

        refused = []
        original_vectors = embeddings._reply_vectors

        def recording_vectors(reply, n, cfg):
            try:
                return original_vectors(reply, n, cfg)
            except ProtocolError:
                refused.append((threading.current_thread(), list(fetched)))
                raise

        monkeypatch.setattr(embeddings, "post", recording_post)
        monkeypatch.setattr(embeddings, "_reply_vectors", recording_vectors)

        def reply(body):
            if body["input"] == batches[1]:
                # A 2xx reply that is not JSON, sent once batches 3 and 4 are in.
                later_fetched.wait(timeout=10)
                return 200, b"<html>busy</html>"
            return _derived_reply(body)

        server, url = stub_server(reply)
        cfg = EmbeddingProviderConfig(
            kind="remote", endpoint=url, batch_size=2, parallelism=4, cache_dir=str(tmp_path)
        )
        with pytest.raises(ProtocolError, match="^non-JSON response from "):
            embed_batch(texts, cfg)
        assert len(refused) == 1
        thread, fetched_then = refused[0]
        assert thread is threading.current_thread()
        assert batches[2] in fetched_then and batches[3] in fetched_then
        with EmbeddingCache(str(tmp_path)) as cache:
            for text, row in zip(texts, _expected_rows(texts)):
                got = cache.get(cfg.model_name, text)
                if text in batches[1]:
                    assert got is None
                else:
                    assert np.array_equal(got, row)

    def test_a_zero_row_in_a_reply_is_degenerate_and_not_cached(self, stub_server, no_sleep, tmp_path):
        server, url = stub_server([(200, _embedding_payload([[1.0, 0.0], [0.0, 0.0]]))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, cache_dir=str(tmp_path))
        with pytest.raises(DegenerateInputError):
            embed_batch(["a", "b"], cfg)
        with EmbeddingCache(str(tmp_path)) as cache:
            assert cache.get(cfg.model_name, "a") is None

    def test_bearer_token_from_env(self, stub_server, no_sleep, monkeypatch):
        monkeypatch.setenv("EMBED_TOKEN", "sesame")
        server, url = stub_server([(200, _embedding_payload([[1.0, 0.0]]))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, auth_token_env="EMBED_TOKEN")
        embed_batch(["a"], cfg)
        assert server.requests[0]["headers"].get("Authorization") == "Bearer sesame"

    def test_no_authorization_header_when_token_variable_unset(self, stub_server, no_sleep, monkeypatch):
        monkeypatch.delenv("EMBED_TOKEN", raising=False)
        server, url = stub_server([(200, _embedding_payload([[1.0, 0.0]]))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, auth_token_env="EMBED_TOKEN")
        embed_batch(["a"], cfg)
        assert "authorization" not in {name.lower() for name in server.requests[0]["headers"]}


WIDE = 768


def _wide_vector(text):
    """A 768-dim vector of its own for each text, far from unit length."""
    rng = np.random.default_rng(int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little"))
    return rng.standard_normal(WIDE) * 10.0 ** rng.integers(-3, 4)


class TestOneOutputArray:
    """``embed_batch`` writes hits and replies into the rows of one (n, dim) array."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("hits", [True, False], ids=["hits", "no-hits"])
    def test_mixed_hits_and_batches_give_the_bits_of_normalize(
        self, stub_server, no_sleep, tmp_path, parallelism, hits
    ):
        texts = [f"text {i}" for i in range(23)]
        cached = texts[1::3] if hits else []  # without hits, the first reply allocates the output
        server, url = stub_server(
            lambda body: (200, _embedding_payload([_wide_vector(t) for t in body["input"]]))
        )
        cfg = EmbeddingProviderConfig(
            kind="remote", endpoint=url, batch_size=4, parallelism=parallelism, cache_dir=str(tmp_path)
        )
        want = np.stack([normalize(_wide_vector(t)) for t in texts])
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put(cfg.model_name, cached, [want[texts.index(t)] for t in cached])
        # Switch threads often, so workers race to allocate and fill the output.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = embed_batch(texts, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert out.dtype == np.float64 and out.shape == (len(texts), WIDE)
        assert out.tobytes() == want.tobytes()
        requests = len(server.requests)
        assert requests == math.ceil((len(texts) - len(cached)) / 4)
        # The replies were cached with the same bits, and a warm call asks for nothing.
        again = embed_batch(texts, cfg)
        assert again.tobytes() == want.tobytes()
        assert len(server.requests) == requests

    def test_an_embed_served_from_the_cache_holds_one_copy(self, stub_server, no_sleep, tmp_path):
        texts = [f"text {i}" for i in range(256)]
        server, url = stub_server([(500, {})])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, cache_dir=str(tmp_path))
        want = np.stack([normalize(_wide_vector(t)) for t in texts])
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put(cfg.model_name, texts, want)
        tracemalloc.start()
        try:
            out = embed_batch(texts, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert server.requests == []
        assert out.tobytes() == want.tobytes()
        # A list of per-row arrays and its stacked copy would need twice the output.
        assert peak < 1.5 * out.nbytes

    def test_a_hit_and_a_reply_of_different_widths_are_refused(self, stub_server, no_sleep, tmp_path):
        server, url = stub_server([(200, _embedding_payload([[1.0, 0.0, 0.0]]))])
        cfg = EmbeddingProviderConfig(kind="remote", endpoint=url, cache_dir=str(tmp_path))
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put(cfg.model_name, ["a"], [np.array([1.0, 0.0])])
        with pytest.raises(ProtocolError, match=re.escape("inconsistent embedding dimensions: [2, 3]")):
            embed_batch(["a", "b"], cfg)
        with EmbeddingCache(str(tmp_path)) as cache:
            assert cache.get(cfg.model_name, "b") is None  # the refused reply was not cached

    def test_cache_hits_of_different_widths_are_refused(self, tmp_path):
        cfg = EmbeddingProviderConfig(cache_dir=str(tmp_path))
        with EmbeddingCache(str(tmp_path)) as cache:
            cache.put(cfg.model_name, ["a", "b"], [np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0])])
        with pytest.raises(ProtocolError, match=re.escape("inconsistent embedding dimensions: [2, 3]")):
            embed_batch(["a", "b"], cfg)

    def test_page_cache_is_capped(self, tmp_path):
        with EmbeddingCache(str(tmp_path)) as cache:
            assert cache._db.execute("PRAGMA cache_size").fetchone() == (-EmbeddingCache.CACHE_KIB,)
