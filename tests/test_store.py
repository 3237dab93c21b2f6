import functools
import gc
import hashlib
import json
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from memscrub.audit import AuditOp, AuditRecord, canonical_json, content_digest, payload_digest
from memscrub.config import RunConfig
from memscrub.corpus import CHOICES, generate_corpus, populate_store
from memscrub.graph import ForgetRequest, Layer, Status
from memscrub.store import (
    MODEL_HEADER,
    BlockedContentError,
    MemoryStore,
    RetrievalSettings,
    load_model,
    parse_lines,
    save_model,
    write_lines,
)
from memscrub.training import ModelState

from conftest import live_ids

TEXTS = {
    "crlf": "h\r\na\r\nb\r\n",
    "lone-cr": "h\ra\rb",
    "u2028": "h\na\u2028b\n",
    "u0085": "h\na\x85b\n",
    "vt-ff-fs": "h\na\x0bb\x0cc\x1cd\x1ee\n",
    "empty-lines": "h\n\n\na\n\n",
    "header-only": "h\n",
    "empty": "",
    "crlf-across-8k": "h\n" + "x" * 8189 + "\r\ny\n",  # CR is byte 8 191, LF byte 8 192
}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
def test_read_lines_equals_splitlines(tmp_path, text):
    path = tmp_path / "f.jsonl"
    path.write_bytes(text.encode("utf-8"))
    expected = path.read_text(encoding="utf-8").splitlines()
    assert parse_lines(list, (path, None)) == expected
    if expected[:1] == ["h"]:
        assert parse_lines(list, (path, "h")) == expected[1:]


@pytest.mark.parametrize("header", [None, "h"])
@pytest.mark.parametrize("lines", [
    [], [""], ["a", "b"], ["", "", "a", ""], ["a\r", "b\r\n"], ["x\u2028y", "\x85"],
], ids=["none", "one-empty", "plain", "empty-lines", "cr-crlf", "u2028-u0085"])
def test_write_lines_bytes_equal_joined_text(tmp_path, header, lines):
    path = tmp_path / "f.jsonl"
    write_lines(path, header, iter(lines))
    body = ([header] if header else []) + lines
    assert path.read_bytes() == ("\n".join(body) + "\n").encode("utf-8")


def test_non_utf8_file_is_a_value_error_naming_it(tmp_path):
    path = tmp_path / "nodes.jsonl"
    path.write_bytes(b"h\n{}\n\xff\xfe\n")
    with pytest.raises(ValueError, match="nodes.jsonl: not UTF-8"):
        parse_lines(list, (path, "h"))


def test_record_with_raw_u2028_is_rejected(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a":"x\u2028y"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="records.jsonl: malformed file"):
        parse_lines(lambda lines: [json.loads(line) for line in lines], (path, None))


def test_header_only_file_is_malformed(tmp_path):
    path = tmp_path / "model.jsonl"  # its one record is required
    write_lines(path, "memscrub-model v2", [])
    with pytest.raises(ValueError, match="model.jsonl: malformed file: ValueError.*not enough values"):
        load_model(tmp_path, 8)


def test_model_file_is_its_header_and_the_canonical_record(tmp_path):
    """Written row by row, the file still holds ``canonical_json`` of the whole record,
    edge floats included; a NaN is written as ``NaN``, and load refuses it."""
    model = ModelState.init(5, 4, len(CHOICES), seed=2, ref_seed=11)
    model.params["w1"][1] = [-0.0, 5e-324, 1e-05, 1e16]
    model.params["b2"][2] = float("nan")
    record = {
        "params": {"w1": model.params["w1"].tolist(), "b1": model.params["b1"].tolist(),
                   "w2": model.params["w2"].tolist(), "b2": model.params["b2"].tolist()},
        "ref_seed": 11,
    }
    save_model(tmp_path, model)
    text = (tmp_path / "model.jsonl").read_bytes().decode("utf-8")
    assert text == MODEL_HEADER + "\n" + canonical_json(record) + "\n"
    assert "[-0.0,5e-324,1e-05,1e+16]" in text and '"b2":[0.0,0.0,NaN,0.0]' in text
    with pytest.raises(ValueError, match="model.jsonl: malformed file: .*must be finite"):
        load_model(tmp_path, 5)


def test_save_model_holds_one_row_at_a_time(tmp_path):
    """The heap peak of writing the default model stays far below its 348 KB record line."""
    cfg = RunConfig()
    model = ModelState.init(cfg.feature_dim, cfg.hidden_dim, len(CHOICES))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        save_model(tmp_path, model)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (tmp_path / "model.jsonl").stat().st_size > 300_000
    assert peak <= 100_000


def test_load_model_releases_the_line_and_builds_no_object_array(tmp_path):
    """Loading the default model peaks under 1 MB: the line is gone once it is parsed, and
    the parsed floats become float arrays with no object array between."""
    cfg = RunConfig()
    save_model(tmp_path, ModelState.init(cfg.feature_dim, cfg.hidden_dim, len(CHOICES)))
    load_model(tmp_path, cfg.feature_dim)  # fills one-time caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model = load_model(tmp_path, cfg.feature_dim)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert model.params["w1"].shape == (cfg.feature_dim, cfg.hidden_dim)
    assert peak <= 1_000_000


def check_forgotten(store, rebuilt, digests):
    """The index holds exactly the Active nodes, its tombstones are exactly the nodes
    removed in its generation, and the blocked ids are exactly its episodic tombstones,
    all Deleted; a rebuild leaves neither a tombstone nor a blocked id.

    What a load derives holds in process too: the blocked digests are those the Deleted
    episodic nodes keep, each the digest of the content the node had (``digests``), and the
    generation of the index and of the blocklist is the log's REBUILD count."""
    assert live_ids(store.index, store.graph.nodes) == list(store.graph.active_view())
    assert store.index.tombstones() == [i for i, node in store.graph.nodes.items()
                                        if node.status is not Status.ACTIVE
                                        and node.removed_in == store.index.generation]
    assert store.blocklist.entries() == [
        i for i in store.index.tombstones() if store.graph.nodes[i].layer is Layer.EPISODIC]
    assert all(store.graph.nodes[i].status is Status.DELETED for i in store.blocklist.entries())
    forgotten = {i: node.blocked_digest for i, node in store.graph.nodes.items()
                 if node.status is Status.DELETED and node.layer is Layer.EPISODIC}
    assert forgotten == {i: digests[i] for i in forgotten}
    assert store.blocklist.digests == set(forgotten.values())
    assert store.index.generation == store.blocklist.generation == store.audit.count(AuditOp.REBUILD)
    if rebuilt:
        assert store.index.to_lines() == [] and len(store.blocklist) == 0


@functools.cache
def small_corpus():
    return generate_corpus(seed=0, n_topics=3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tau=st.sampled_from([0, 1, 3]), data=st.data())
def test_forget_keeps_the_index_on_the_active_nodes(tau, data):
    store = MemoryStore(RetrievalSettings(tau=tau, embed_dim=16))
    episodic = sorted(populate_store(store, small_corpus()).node_to_item)
    digests = {i: content_digest(store.content(i)) for i in episodic}
    requests = []

    def draw_request():
        if requests and data.draw(st.booleans()):
            targets = data.draw(st.sampled_from(requests))  # a processed request, repeated
        else:
            targets = data.draw(st.lists(st.sampled_from(episodic), min_size=1, max_size=6))
        requests.append(targets)
        return ForgetRequest.of(f"r{len(requests)}", targets)

    for _ in range(data.draw(st.integers(1, 6))):
        check_forgotten(store, store.forget(draw_request()).rebuilt, digests)
    with tempfile.TemporaryDirectory() as directory:
        store.save(directory)
        loaded = MemoryStore.load(directory, settings=store.settings)
    check_forgotten(loaded, rebuilt=False, digests=digests)
    assert loaded.blocklist.entries() == store.blocklist.entries()  # no file holds an id
    assert loaded.blocklist.generation == store.blocklist.generation
    assert loaded.blocklist.to_lines() == store.blocklist.to_lines()
    assert loaded.index.tombstones() == store.index.tombstones()
    # The reload resumes the same chain: the next request, a rebuild's REBUILD `purged`
    # and COMPACT `dropped` included, appends the same records to both.
    request, start = draw_request(), len(store.audit)
    for each in (store, loaded):
        check_forgotten(each, each.forget(request).rebuilt, digests)
    assert loaded.audit.to_lines()[start:] == store.audit.to_lines()[start:]
    assert loaded.index.tombstones() == store.index.tombstones()


def test_reload_tombstones_only_the_nodes_removed_since_the_last_rebuild(tmp_path):
    """Nodes removed before a rebuild keep that earlier generation and are neither
    tombstones nor blocked after a reload; those removed since are both."""
    store = MemoryStore(RetrievalSettings(tau=1, embed_dim=16))
    episodic = sorted(populate_store(store, small_corpus()).node_to_item)
    digests = {i: content_digest(store.content(i)) for i in episodic}
    rebuilt = [store.forget(ForgetRequest.of(f"r{t}", [t])).rebuilt for t in episodic[:3]]
    assert rebuilt == [False, True, False]  # the second blocked id exceeds tau
    assert [store.graph.nodes[t].removed_in for t in episodic[:3]] == [0, 0, 1]
    store.save(tmp_path)
    loaded = MemoryStore.load(tmp_path, settings=store.settings)
    check_forgotten(loaded, False, digests)
    assert loaded.index.generation == 1 and loaded.blocklist.entries() == [episodic[2]]
    assert loaded.index.tombstones() == store.index.tombstones()
    assert episodic[0] not in loaded.index.tombstones() and episodic[2] in loaded.index.tombstones()


def test_repeated_request_blocks_nothing_and_rebuilds_nothing():
    """A repeat of a processed request appends a BLOCK of no id, PRUNE and ARCHIVE only,
    so it neither rebuilds the index nor moves its generation."""
    store = MemoryStore(RetrievalSettings(tau=2))
    populate_store(store, generate_corpus(seed=0, n_topics=12))
    request = ForgetRequest.of("r3", [0, 1, 2])
    assert store.forget(request).rebuilt  # 3 blocked ids > tau
    for _ in range(3):
        start = len(store.audit)
        report = store.forget(request)
        records = [AuditRecord.from_line(line) for line in store.audit.to_lines()[start:]]
        assert [r.op for r in records] == [AuditOp.BLOCK, AuditOp.PRUNE, AuditOp.ARCHIVE]
        assert records[0].payload_digest == payload_digest({"ids": [], "index_generation": 1})
        assert (report.rebuilt, report.blocklist_size, report.index_generation) == (False, 0, 1)
    report = store.forget(ForgetRequest.of("r1", [3]))
    assert (report.blocklist_size, report.rebuilt, report.index_generation) == (1, False, 1)
    assert store.blocklist.entries() == [3]


def test_a_forgotten_node_and_the_blocklist_hold_one_raw_digest(tmp_path):
    """After a forget, and again after a reload, each forgotten episodic node keeps its
    content's 32 raw sha256 bytes, the very object the blocklist holds; ``nodes.jsonl``
    holds its hex, and a rewrite of the forgotten text is still rejected."""
    store = MemoryStore(RetrievalSettings(embed_dim=16))
    episodic = sorted(populate_store(store, small_corpus()).node_to_item)
    texts = {i: store.content(i) for i in episodic[:4]}
    store.forget(ForgetRequest.of("r4", texts))
    store.save(tmp_path)
    records = [json.loads(line) for line in (tmp_path / "nodes.jsonl").read_text().splitlines()[1:]]
    for each in (store, MemoryStore.load(tmp_path, settings=store.settings)):
        assert len(each.blocklist.digests) == len(texts)
        for i, text in texts.items():
            digest = each.graph.nodes[i].blocked_digest
            assert type(digest) is bytes and digest == hashlib.sha256(text.encode("utf-8")).digest()
            assert any(held is digest for held in each.blocklist.digests)
            assert records[i]["blocked_digest"] == digest.hex()
            with pytest.raises(BlockedContentError):
                each.write(Layer.EPISODIC, text)


def test_loaded_store_takes_under_375_bytes_per_forgotten_record(tmp_path):
    """A store of 2 000 forgotten episodic records (one request, so a rebuild leaves no
    tombstone) loads into ~352 B per record under ``tracemalloc``, each blocked digest held
    once as 32 raw bytes; as a 64-character hex string it took ~400 B."""
    store = MemoryStore(RetrievalSettings(embed_dim=16))
    ids = [store.write(Layer.EPISODIC, f"forgotten record {i}") for i in range(2_000)]
    assert store.forget(ForgetRequest.of("all", ids)).rebuilt
    store.save(tmp_path)
    del store
    MemoryStore.load(tmp_path, settings=RetrievalSettings(embed_dim=16))  # fills one-time caches
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = MemoryStore.load(tmp_path, settings=RetrievalSettings(embed_dim=16))
        gc.collect()
        resident = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(loaded.blocklist.digests) == 2_000
    assert resident < 375 * 2_000
