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
from memscrub.store import load_model

STORE_SHA256 = {
    "nodes.jsonl": "56b5ea98a79f16483f95ed5ff5544681550160351c1f8ce5d37dee8817240701",
    "edges.jsonl": "fe5476d016d92830c8e25462e6fa7d8c1c1e31ef28cf23dfbee2eadd90d1982d",
    "blocklist.jsonl": "0514b6730952ee33c89a3fa825700a0d2d432938055491fffe97ca4f87e8853f",
    "audit.jsonl": "85e6dcce30d35d266d12b1abb7da8738cdbcbbfcd509fdde47c4452ac0724efc",
    "index.jsonl": "11e13dc6deebd8cad902eb005efad4a3e013d6ae95b7c571121f19b16b36245d",
    "provenance.jsonl": "0eb948406a47411faa63d11e46755a4841cc27e11197f8082b23bdef7ec8db00",
    "corpus.jsonl": "820bd9aa9ef41d5e12382f1c508cd4ff569cfe19d491f4e08e8f5c2410972ecf",
    "config.cfg": "1f1bfface063fbc0ba4fe28d46488d9921b1d48a670033734a08823d37ed9a95",
}
# After unlearning the first forget topic's 6 episodic ids. audit.jsonl is
# left out: its TRAIN record carries a training result.
UNLEARNED_SHA256 = {
    "nodes.jsonl": "2901b5e6c16110613bd420e6d1bc4bcd4a0f254b5339533b3e5315dc93bd1a25",
    "edges.jsonl": "fe5476d016d92830c8e25462e6fa7d8c1c1e31ef28cf23dfbee2eadd90d1982d",
    "blocklist.jsonl": "f36d2373dc020b88c2f942be973d5988720ea4607c51d85820bc3a31f30e6327",
    "index.jsonl": "e4bef67ad96d64beefd958b97cd2f8a84bc065c15de108fc6cb480c957cd7adf",
}
RUN_LOOP_SHA256 = "c06ec9cc592efc67b24a0a9c4559b5025ac4f7a82cc0a9af81ec4411f0e5b2a6"
MODEL_REF_SEED = 7919
MODEL_REF_HASH = "9d3ff8cfd33bb2b32f92cce40f7964e8c090a23acc8dd2902c7a5a4ceb082ec5"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def test_model_reference(store):
    model = load_model(store)
    assert model.ref_seed == MODEL_REF_SEED
    assert model.ref_hash() == MODEL_REF_HASH


def test_run_loop_output_bytes(capsys):
    capsys.readouterr()
    assert main(["run-loop", "--seed", "0"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == RUN_LOOP_SHA256
