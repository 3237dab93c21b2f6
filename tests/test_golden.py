"""Golden bytes: the store files and run-loop output of a seeded CLI run.

The sha256 of each file pins its bytes across commits, so a refactor that
changes a record's serialization fails here. A change that alters these
bytes on purpose updates the constants and says so in CHANGES.md.
``model.jsonl``'s bytes are left out: its floats depend on the BLAS build.
Its reference seed and the hash of the reference drawn from it depend on
numpy's RNG alone, so those are pinned.
"""

import hashlib
import json
import shutil

import pytest

from memscrub.cli import main
from memscrub.config import RunConfig
from memscrub.store import load_model

STORE_SHA256 = {
    "nodes.jsonl": "c71fc823273afab49a8cfd60f09580b09e00ba96cdc37d9b2e6eee4059e69e61",
    "audit.jsonl": "ebda3a5b7d465cc6a0931575c86fbeb779789d07c64317c8ed4e4bf4dd881e14",
    "provenance.jsonl": "0eb948406a47411faa63d11e46755a4841cc27e11197f8082b23bdef7ec8db00",
    "corpus.jsonl": "820bd9aa9ef41d5e12382f1c508cd4ff569cfe19d491f4e08e8f5c2410972ecf",
    "config.cfg": "2130e603f090af2d33718f7459b13ef9fc5d0f51a731c7ca7b5f56c9c489d4a5",
}
# After unlearning the first forget topic's 6 episodic ids. audit.jsonl is
# pinned without its last line, the TRAIN record, which carries a training result.
UNLEARNED_SHA256 = {
    "nodes.jsonl": "8741a04bc5fcf0be45a63ec17705bc155c19387070190bc3cb473196dbf0cf12",
}
# Every path in each store directory, so a file that appears or disappears is a visible change.
STORE_FILES = ["audit.jsonl", "config.cfg", "corpus.jsonl", "lock", "model.jsonl", "nodes.jsonl",
               "provenance.jsonl"]
UNLEARNED_FILES = sorted(STORE_FILES + ["metrics", "metrics/unlearn_req6.jsonl"])
UNLEARNED_AUDIT_BEFORE_TRAIN_SHA256 = "54802cb021aa190b3bad5a0908a76493115a2189b9ab0b80c9268d7a5bb2d700"
RUN_LOOP_SHA256 = "c06ec9cc592efc67b24a0a9c4559b5025ac4f7a82cc0a9af81ec4411f0e5b2a6"
# The printed scores pin the token vectors, each the ±1 signs of the token's shake_256 digest.
QUERY_TEXT = "what remedy suits topic001 presentation"
QUERY_SHA256 = "7e93ae2d0e9bff3f106797972c075d15700e2941112049b3b7165df36efba987"
# The memory-side rows of `eval` on the store come from the graph and retrieval
# alone, so unlike the model's they do not depend on the BLAS build.
EVAL_METHODS = ["parameter_model", "memory_grounded", "naive_deletion", "retraining_oracle",
                "ours"]
EVAL_BASELINES = {  # method: (dangling_artifacts, mia_auc)
    "naive_deletion": (9, 0.5),
    "retraining_oracle": (0, 0.5),
    "ours": (0, 0.5),
}
MODEL_REF_SEED = 7919
MODEL_REF_HASH = "9d3ff8cfd33bb2b32f92cce40f7964e8c090a23acc8dd2902c7a5a4ceb082ec5"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def paths_in(directory) -> list:
    return sorted(str(path.relative_to(directory)) for path in directory.rglob("*"))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["gen-corpus", "--out", str(root / "corpus.jsonl"), "--seed", "0"]) == 0
    assert main(["store", "--corpus", str(root / "corpus.jsonl"),
                 "--store", str(root / "store")]) == 0
    return root / "store"


@pytest.mark.parametrize("name", sorted(STORE_SHA256))
def test_store_file_bytes(store, name):
    assert sha256((store / name).read_bytes()) == STORE_SHA256[name]


def test_store_file_names(store):
    assert paths_in(store) == STORE_FILES


@pytest.fixture(scope="module")
def unlearned(store, tmp_path_factory):
    copy = tmp_path_factory.mktemp("golden-unlearned") / "store"
    shutil.copytree(store, copy)
    request = copy.parent / "request.json"
    request.write_text(json.dumps({"request_id": "req6", "targets": list(range(6))}))
    assert main(["unlearn", "--store", str(copy), "--request", str(request),
                 "--epochs", "1"]) == 0
    return copy


@pytest.mark.parametrize("name", sorted(UNLEARNED_SHA256))
def test_unlearned_store_file_bytes(unlearned, name):
    assert sha256((unlearned / name).read_bytes()) == UNLEARNED_SHA256[name]


def test_unlearned_store_file_names(unlearned):
    assert paths_in(unlearned) == UNLEARNED_FILES


def test_unlearned_audit_bytes_before_the_train_record(unlearned):
    # The chain is loaded, appended to and saved again: every record but the last is pinned.
    lines = (unlearned / "audit.jsonl").read_bytes().splitlines(keepends=True)
    assert json.loads(lines[-1])["op"] == "train"
    assert sha256(b"".join(lines[:-1])) == UNLEARNED_AUDIT_BEFORE_TRAIN_SHA256


def test_model_reference(store):
    model = load_model(store, RunConfig().feature_dim)
    assert model.ref_seed == MODEL_REF_SEED
    assert model.ref_hash() == MODEL_REF_HASH


def test_run_loop_output_bytes(capsys):
    capsys.readouterr()
    assert main(["run-loop", "--seed", "0"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == RUN_LOOP_SHA256


def test_query_output_bytes(store, capsys):
    capsys.readouterr()
    assert main(["query", "--store", str(store), "--text", QUERY_TEXT]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == QUERY_SHA256


def test_eval_memory_rows(store, tmp_path, capsys):
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    capsys.readouterr()
    assert main(["eval", "--store", str(copy)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["method"] for row in rows] == EVAL_METHODS
    assert {row["method"]: (row["dangling_artifacts"], row["mia_auc"])
            for row in rows if "dangling_artifacts" in row} == EVAL_BASELINES
