"""Tests of the benchmark harness itself, at smoke scale (a handful of
graphs, one epoch), so the whole file runs in well under a minute.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run_bench.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert w["why"] == WORKLOADS[w["name"]].why
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_step_and_pass_counts_follow_config_and_split():
    small = WORKLOADS["planted-small"]
    assert small.n_train() == 42                 # 50 normal, 8 held out
    assert small.adam_steps() == 11_340
    cli = WORKLOADS["cli-roundtrip"]
    assert cli.n_train() == 204                  # 240 normal, 36 held out
    assert cli.adam_steps() == 3 * 3 * 3 * 26    # ceil(204 / 8) batches
    assert cli.graph_passes() == 3 * 3 * 3 * 204
    assert WORKLOADS["planted-large"].sizes(4) == [300, 400, 500, 600]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    for line in ("auc_mean", "fail_ratio"):
        assert line in proc.stdout


def test_traced_counts_cover_the_cli_bindings():
    proc = run("--workload", "cli-roundtrip", "--seconds", "1", "--trace", "1",
               "--smoke")
    metrics = last_json(proc.stdout)["metrics"]
    spec = WORKLOADS["cli-roundtrip"].smoke()
    assert metrics["optim.adam.steps"]["value"] == spec.adam_steps()
    # one save per phase; eval and plotdata load all three, and train
    # reloads the encoder for the flow and target phases and the flow once
    assert metrics["checkpoint.save.calls"]["value"] == 3
    assert metrics["checkpoint.load.calls"]["value"] == 3 + 3 + 3
    assert metrics["data.parse.calls"]["value"] == 3
    assert metrics["pipeline.score_graph.calls"]["value"] > 0
    assert metrics["checkpoint.bytes_written"]["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "planted-small", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert all(not line.startswith("{") for line in proc.stdout.splitlines())


def _rep(**overrides):
    rep = {"mode": "plain", "attempted": 3, "failed": 0, "errors": [],
           "digest": "d", "auc_mean": 0.75, "scores_finite": True,
           "expected_adam_steps": 6}
    rep.update(overrides)
    return rep


def test_check_counts_every_kind_of_failure():
    assert run_bench.check([_rep(), _rep()], trace=False) == (6, 0, [])
    _, failed, problems = run_bench.check([_rep(), _rep(digest="e")], False)
    assert failed == 3 and "differs" in problems[0]
    _, failed, _ = run_bench.check([_rep(), _rep(scores_finite=False)], False)
    assert failed == 3
    crashed = _rep(failed=1, errors=["flowgad eval exited 4"])
    del crashed["digest"]
    _, failed, problems = run_bench.check([_rep(), crashed], False)
    assert failed == 1 and "exited 4" in problems[0]
    layer = {"optim.adam.calls": 6, "autodiff.add.calls": 10}
    traced = [_rep(mode="traced", layer=layer),
              _rep(mode="memory", layer=dict(layer, **{"autodiff.add.calls": 11}))]
    _, failed, problems = run_bench.check(traced, trace=True)
    assert failed == 1 and "did not repeat" in problems[0]
    _, failed, problems = run_bench.check(
        [_rep(mode="traced", layer={"optim.adam.calls": 5})], trace=True)
    assert failed == 3 and "Adam steps" in problems[0]


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("autodiff.matmul", lambda: sum(range(20000)))
    outer = tracer.wrap("source.loss", lambda: [inner() for _ in range(3)])
    outer()
    out = tracer.summary()
    assert out["autodiff.matmul.calls"] == 3 and out["source.loss.calls"] == 1
    assert out["source.self_s"] + out["autodiff.self_s"] == pytest.approx(
        out["source.loss.s"])
    assert 0 < out["source.self_s"] < out["source.loss.s"]
