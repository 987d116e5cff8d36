"""Self-tests of the benchmark's own code: book generator, output checks, tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy

import pytest

from themepath import RunConfig, chunk_document, run_pipeline, tokenize
from themepath.artifact import to_canonical_json

import book
import checks
import spans


def test_generator_is_deterministic_and_sized():
    text, meta = book.generate(5)
    assert book.generate(5) == (text, meta)
    assert book.generate(6)[0] != text
    assert meta["tokens"] == book.TOTAL_TOKENS == len(tokenize(text))
    assert meta["chunks"] == len(chunk_document(text)) == 834
    assert meta["sections"][-1]["token_span"][1] == meta["tokens"]
    assert meta["planted_order"] == list(range(meta["themes"]))


@pytest.fixture(scope="module")
def small_run():
    text, meta = book.generate(3, total_tokens=20_000)
    cfg = RunConfig()
    cfg.k = 6
    data = run_pipeline(text, "markov-cluster", cfg).to_dict()
    return data, to_canonical_json(data).encode("utf-8"), meta


def _swap_path_entry(data):
    order = data["path"]["order"]
    order[0] = order[1]


def _rescale_row(data):
    row = data["transition_matrix"]["probs"][data["path"]["order"][0]]
    row[:] = [p * 0.5 for p in row]


def _change_log_prob(data):
    data["path"]["log_prob"] = 0.0 if data["path"]["log_prob"] == "-inf" else "-inf"


def _drop_summary(data):
    data["cluster_summaries"].pop()


def _empty_final(data):
    data["final_summary"] = " "


@pytest.mark.parametrize(
    "corrupt", [_swap_path_entry, _rescale_row, _change_log_prob, _drop_summary, _empty_final]
)
def test_checker_rejects_corrupted_artifact(small_run, corrupt):
    data, raw, _ = small_run
    assert checks.problems(data, raw, raw) == []
    bad = copy.deepcopy(data)
    corrupt(bad)
    assert checks.problems(bad, raw, raw)


def test_checker_rejects_changed_bytes_and_scores_order(small_run):
    data, raw, meta = small_run
    assert checks.problems(data, raw, raw + b" ")
    assert checks.kendall_tau([0, 1, 2], [0, 1, 2]) == 1.0
    assert checks.kendall_tau([2, 1, 0], [0, 1, 2]) == -1.0
    assert -1.0 <= checks.order_tau(data, meta) <= 1.0


def test_tracer_self_time_accounts_for_the_whole_run():
    tracer = spans.Tracer()
    tracer.spans = [
        {"name": "embeddings.embed_batch", "start": 0.0, "end": 5.0, "parent": None},
        {"name": "transport.post_json", "start": 1.0, "end": 3.0, "parent": 0},
        {"name": "embeddings.cache_put", "start": 3.0, "end": 4.0, "parent": 0},
    ]
    assert tracer.layer_metrics(wall_s=6.0) == {
        "embeddings.busy_s": 3.0,
        "transport.busy_s": 2.0,
        "embeddings.cache_put_s": 1.0,
        "pipeline.self_s": 1.0,
    }


def test_traced_wraps_every_binding_and_restores_it():
    import themepath.pipeline as pipeline

    original = pipeline.chunk_document
    text, _ = book.generate(4, total_tokens=5_000)
    cfg = RunConfig()
    cfg.k = 4
    with spans.traced(spans.Tracer()) as tracer:
        assert pipeline.chunk_document is not original
        run_pipeline(text, "markov-cluster", cfg)
    assert pipeline.chunk_document is original
    names = {s["name"] for s in tracer.spans}
    assert {"chunking.chunk_document", "embeddings.embed_batch", "clustering.kmeans",
            "markov.build_transition_matrix", "pathfinding.solve_dp", "summarize.aggregate_final"} <= names
    assert tracer.counters["chunking.chunks"] == len(chunk_document(text))
    assert tracer.counters["pathfinding.k"] == 4
