"""Tests of the benchmark's own bookkeeping; they run no workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

worker.import_primechain()

from primechain.errors import DomainError, NumericalError  # noqa: E402


def _boom():
    raise DomainError("outside the domain")


def _stuck():
    raise NumericalError("did not converge")


FAKE_OPS = [
    Op("raises", _boom, lambda v: None),
    Op("known", _stuck, lambda v: None, known_failure=NumericalError),
    Op("bytes", lambda: b"abc", lambda v: None, lambda v: v),
    Op("seeded", lambda: b"xyz", lambda v: None, lambda v: v, seeded=True),
]


@pytest.fixture
def fake_workload(tmp_path, monkeypatch):
    golden = {"fake": {"bytes": worker.digest(b"abc"), "seeded": worker.digest(b"xyz")}}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(worker, "GOLDEN", path)
    monkeypatch.setattr(worker, "OUT_DIR", tmp_path / "out")
    monkeypatch.setitem(workloads._BUILDERS, "fake", lambda seed: FAKE_OPS)
    return golden["fake"]


def test_digest_mismatch_is_a_failed_operation(fake_workload):
    op = FAKE_OPS[2]
    assert worker.run_op(op, fake_workload, seed=7)["status"] == "ok"
    rec = worker.run_op(op, {"bytes": "0" * 64}, seed=7)
    assert rec["status"] == "failed"
    assert "digest" in rec["detail"]
    # seeded outputs are pinned at the default seed only
    seeded = FAKE_OPS[3]
    assert worker.run_op(seeded, {"seeded": "0" * 64}, seed=7)["status"] == "ok"
    assert worker.run_op(seeded, {"seeded": "0" * 64}, seed=workloads.DEFAULT_SEED)["status"] == "failed"


def test_typed_error_fails_the_operation_and_the_run_continues(fake_workload):
    result = worker.run_pass("fake", seed=workloads.DEFAULT_SEED, trace=False)
    status = {op["name"]: op["status"] for op in result["ops"]}
    assert status == {"raises": "failed", "known": "known-failure", "bytes": "ok", "seeded": "ok"}
    assert "DomainError" in result["ops"][0]["detail"]
    attempted, failed, known = run.op_counts([result])
    assert (attempted, failed, known) == (4, 1, 1)


def test_emitted_metric_names_match_benchmark_json(fake_workload):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    plain = worker.run_pass("fake", seed=3, trace=False)
    traced = worker.run_pass("fake", seed=3, trace=True)
    e2e = run.end_to_end([0.2, 0.3], [plain])
    layers = run.per_layer([plain], [traced])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_probe_times_a_block_that_raises():
    probe = speed.SpeedProbe(interval=0.005)
    with pytest.raises(DomainError):
        with probe.timed() as timing:
            for _ in range(40):
                speed.kernel()
            _boom()
    # filled in although the block raised: one probe before, some during, one after
    assert timing.probes > 2
    assert timing.wall_s > 0 and timing.wall_probes > 0
