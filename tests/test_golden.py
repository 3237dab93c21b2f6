"""Golden bytes: the store files and command output of a seeded CLI run at three sizes.

The sha256 of each file pins its bytes across commits, so a refactor that
changes a record's serialization fails here. A change that alters these
bytes on purpose updates the constants and says so in CHANGES.md.
``model.jsonl``'s bytes are left out: its floats depend on the BLAS build.
Its reference seed and the hash of the reference drawn from it depend on
numpy's RNG alone, so those are pinned.

Each size is a ``(seed, n_topics)`` pair. Every command but ``audit-verify``,
which reads no config, gets the same two-key ``--config`` file, so the
store-bound ones read the store's snapshot with that file layered over it.
"""

import hashlib
import json
import shutil

import pytest

from memscrub.cli import main
from memscrub.config import RunConfig
from memscrub.store import load_model

SIZES = [(0, 12), (1, 48), (3, 120)]
STORE_SHA256 = {
    (0, 12): {
        "nodes.jsonl": "16bd93a196cca80e79e967254332ca3f2166ac932089486e75b9a3e4946413ae",
        "audit.jsonl": "ebda3a5b7d465cc6a0931575c86fbeb779789d07c64317c8ed4e4bf4dd881e14",
        "provenance.jsonl": "0eb948406a47411faa63d11e46755a4841cc27e11197f8082b23bdef7ec8db00",
        "corpus.jsonl": "820bd9aa9ef41d5e12382f1c508cd4ff569cfe19d491f4e08e8f5c2410972ecf",
        "config.cfg": "2130e603f090af2d33718f7459b13ef9fc5d0f51a731c7ca7b5f56c9c489d4a5",
    },
    (1, 48): {
        "nodes.jsonl": "1632071c5658fcc251260eb49b86fe143c33f8f7a47eb92f5c5b7d87c45069d7",
        "audit.jsonl": "a89e57c3b1f51fac5d50e847d34acc45e12abf947c50334019e6a1805029a6cf",
        "provenance.jsonl": "b9b5d0cf0eeebfde0f52f543a80acbb9d3bedd87cd3a5fc6d303107bdca71568",
        "corpus.jsonl": "91ac5e75dde7fae1bd9870b689be59e0bed9f52f77b6c88c449c273e36df572c",
        "config.cfg": "9c3d2c4237b44814ee5995b4d38924871e668f00e31175b11fe94db8a02094bd",
    },
    (3, 120): {
        "nodes.jsonl": "5e1b268416ea4dff7e1ff0709c07800db0b00c35078f451ffa7cf02ec45b77d0",
        "audit.jsonl": "b866ceb9d89ee0745d2e509d7c56a66bff23e1595e5a82e8358a257e94b49200",
        "provenance.jsonl": "bc6941b82023bbf7014517785632d98fe2ccc309dbd4ba71c47b866ce50fcd99",
        "corpus.jsonl": "876c2005285dbc924a36f5a9de072fc279ce2c0552aa2001a4c997870e07bb9c",
        "config.cfg": "b361eefd4cec8104ad802aef8f7753d9307be0b0dde710aafdabcca83f7e54ff",
    },
}
STORE_NAMES = sorted(STORE_SHA256[SIZES[0]])
# After unlearning the first forget topic's 6 episodic ids (topic000 is always a forget
# topic, and its items are written first). audit.jsonl is pinned without its last line,
# the TRAIN record, which carries a training result; the other files keep their bytes.
UNLEARNED_NODES_SHA256 = {
    (0, 12): "172e22166b41e9801dd5a333be1f030f227ab6abd35a91c272b46078f0eb63ad",
    (1, 48): "a3854e52656a6cdffc7a02626c491b99a95724c940c4c986d6069919d10a64bf",
    (3, 120): "708abe9ee632bf6b1ba857eadc73fe946bf0af2899b45671a38a5b98d9ac0607",
}
UNLEARNED_AUDIT_BEFORE_TRAIN_SHA256 = {
    (0, 12): "54802cb021aa190b3bad5a0908a76493115a2189b9ab0b80c9268d7a5bb2d700",
    (1, 48): "a5263367d3c818d15820d5ccfd61340f01f787d3727e1307784df0932303ebf3",
    (3, 120): "b8e30d23d04d6f249b30e94f289224ca2b3e0f0cae764ba8911b3d26e02204a6",
}
UNLEARNED_AUDIT_RECORDS = {(0, 12): 113, (1, 48): 437, (3, 120): 1085}
# Every path in each store directory, so a file that appears or disappears is a visible change.
STORE_FILES = ["audit.jsonl", "config.cfg", "corpus.jsonl", "lock", "model.jsonl", "nodes.jsonl",
               "provenance.jsonl"]
UNLEARNED_FILES = sorted(STORE_FILES + ["metrics", "metrics/unlearn_req6.jsonl"])
RUN_LOOP_SHA256 = {
    (0, 12): "c06ec9cc592efc67b24a0a9c4559b5025ac4f7a82cc0a9af81ec4411f0e5b2a6",
    (1, 48): "112a3b1ec97e11d2860ea9ea8fef04b3aedd0a9c39dc642233d7d28de4d6aaaa",
    (3, 120): "2c72e3246e24ab2fcaded6362d99c8913e2e8b5ce07b23eab0121d3167db4207",
}
# The printed scores pin the token vectors, each the ±1 signs of the token's shake_256 digest.
QUERY_TEXT = "what remedy suits topic001 presentation"
QUERY_SHA256 = {
    (0, 12): "7e93ae2d0e9bff3f106797972c075d15700e2941112049b3b7165df36efba987",
    (1, 48): "33db35bfb642ad2999db4b177e863a1eb2b52ffd06fc69345e6bffbc7d6a378c",
    (3, 120): "b35b7cf72e09b7b6f260020a7bdce8e86926fa8363cd69df93338b68cbede560",
}
# The memory-side rows of `eval` on the store come from the graph and retrieval
# alone, so unlike the model's they do not depend on the BLAS build.
EVAL_METHODS = ["parameter_model", "memory_grounded", "naive_deletion", "retraining_oracle",
                "ours"]
EVAL_BASELINES = {  # method: (dangling_artifacts, mia_auc)
    size: {"naive_deletion": (dangling, 0.5), "retraining_oracle": (0, 0.5), "ours": (0, 0.5)}
    for size, dangling in {(0, 12): 9, (1, 48): 36, (3, 120): 90}.items()
}
MODEL_REF_HASH = {
    (0, 12): "9d3ff8cfd33bb2b32f92cce40f7964e8c090a23acc8dd2902c7a5a4ceb082ec5",
    (1, 48): "67d9a838ec22918b104bdcc90a0f8e459e501feef16ff81b453473c00b45bac6",
    (3, 120): "3c45d93c699a66427d5a86765744078c2885ad420297d7a63e55b0c03cf07bea",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def paths_in(directory) -> list:
    return sorted(str(path.relative_to(directory)) for path in directory.rglob("*"))


@pytest.fixture(scope="module", params=SIZES, ids=[f"seed{s}-{n}topics" for s, n in SIZES])
def size(request):
    return request.param


@pytest.fixture(scope="module")
def run_cfg(size, tmp_path_factory):
    seed, n_topics = size
    path = tmp_path_factory.mktemp("golden-cfg") / "run.cfg"
    path.write_text(f"n_topics = {n_topics}\nseed = {seed}\n")
    return ["--config", str(path)]


@pytest.fixture(scope="module")
def store(run_cfg, tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["gen-corpus", "--out", str(root / "corpus.jsonl"), *run_cfg]) == 0
    assert main(["store", "--corpus", str(root / "corpus.jsonl"),
                 "--store", str(root / "store"), *run_cfg]) == 0
    return root / "store"


@pytest.mark.parametrize("name", STORE_NAMES)
def test_store_file_bytes(size, store, name):
    assert sha256((store / name).read_bytes()) == STORE_SHA256[size][name]


def test_store_file_names(store):
    assert paths_in(store) == STORE_FILES


@pytest.fixture(scope="module")
def unlearned(store, run_cfg, tmp_path_factory):
    copy = tmp_path_factory.mktemp("golden-unlearned") / "store"
    shutil.copytree(store, copy)
    request = copy.parent / "request.json"
    request.write_text(json.dumps({"request_id": "req6", "targets": list(range(6))}))
    assert main(["unlearn", "--store", str(copy), "--request", str(request),
                 "--epochs", "1", *run_cfg]) == 0
    return copy


@pytest.mark.parametrize("name", [name for name in STORE_NAMES if name != "audit.jsonl"])
def test_unlearned_store_file_bytes(size, unlearned, name):
    pinned = UNLEARNED_NODES_SHA256[size] if name == "nodes.jsonl" else STORE_SHA256[size][name]
    assert sha256((unlearned / name).read_bytes()) == pinned


def test_unlearned_audit_bytes_before_the_train_record(size, unlearned):
    # The chain is loaded, appended to and saved again: every record but the last is pinned.
    lines = (unlearned / "audit.jsonl").read_bytes().splitlines(keepends=True)
    assert json.loads(lines[-1])["op"] == "train"
    assert sha256(b"".join(lines[:-1])) == UNLEARNED_AUDIT_BEFORE_TRAIN_SHA256[size]


def test_unlearned_store_file_names(unlearned):
    assert paths_in(unlearned) == UNLEARNED_FILES


def test_audit_verify_output_bytes(size, unlearned, capsys):
    capsys.readouterr()
    assert main(["audit-verify", "--store", str(unlearned)]) == 0
    assert capsys.readouterr().out == (
        '{"command":"audit-verify","first_bad_index":null,"ok":true,'
        f'"records":{UNLEARNED_AUDIT_RECORDS[size]}}}\n')


def test_model_reference(size, store):
    model = load_model(store, RunConfig().feature_dim)
    assert model.ref_seed == size[0] + 7919
    assert model.ref_hash() == MODEL_REF_HASH[size]


def test_run_loop_output_bytes(size, run_cfg, capsys):
    capsys.readouterr()
    assert main(["run-loop", *run_cfg]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == RUN_LOOP_SHA256[size]


def test_query_output_bytes(size, store, run_cfg, capsys):
    capsys.readouterr()
    assert main(["query", "--store", str(store), "--text", QUERY_TEXT, *run_cfg]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == QUERY_SHA256[size]


# Each arm is populated from the corpus, so after the unlearn none is measured on top of its prune.
@pytest.mark.parametrize("state", ["store", "unlearned"])
def test_eval_memory_rows(size, state, run_cfg, tmp_path, capsys, request):
    copy = tmp_path / "store"
    shutil.copytree(request.getfixturevalue(state), copy)
    capsys.readouterr()
    assert main(["eval", "--store", str(copy), *run_cfg]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["method"] for row in rows] == EVAL_METHODS
    assert {row["method"]: (row["dangling_artifacts"], row["mia_auc"])
            for row in rows if "dangling_artifacts" in row} == EVAL_BASELINES[size]
