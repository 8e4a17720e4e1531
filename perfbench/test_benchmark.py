"""Determinism and contract tests for the benchmark.

Run from the repository root (they are not part of the library's suite):

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Passes that reach every case kind of the operator workload and the first
# gl3 draw of the duality workload, while keeping each run short.
COUNTS = {"duality": 26, "operator": 9, "coordinate": 60}
EXACT = (
    "quadrature.evals",
    "quadrature.calls",
    "quadrature.integrand_batches",
    "numerics.log_gamma.points",
    "numerics.log_gamma.scalar_calls",
    "numerics.macdonald.points",
    "numerics.macdonald.calls",
) + tuple(f"quadrature.evals.d{d}" for d in tracing.DIMS)
SHARES = ("numerics.log_gamma", "numerics.macdonald", "quadrature") + tracing.OTHER_LAYERS


def _run(workload, seed, trace=1, cwd=ROOT, script=None):
    # A traced run issues its pass once; an untraced one repeats its pass
    # while whole passes fit in the second.
    script = script or os.path.join(HERE, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--cases", str(COUNTS[workload])],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Traced results: two runs with seed 1 and one with seed 2, per workload."""
    return {
        w: [_result(_run(w, 1)), _result(_run(w, 1)), _result(_run(w, 2))]
        for w in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(traced, workload):
    first, second, _ = traced[workload]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_values_bit_identical_across_passes(traced, workload):
    # Each traced run checks the untraced pass against the traced replay;
    # only labelled known defects may fail.
    for result in traced[workload]:
        assert result["correct"], result
        assert result["attempted"] == COUNTS[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_values_bit_identical_across_builds(workload):
    first = workloads.build(workload, 3, COUNTS[workload])
    second = workloads.build(workload, 3, COUNTS[workload])
    for a, b in zip(first, second):
        assert a.params == b.params
        assert workloads.fingerprint(a.call()) == workloads.fingerprint(b.call()), a.kind


def _ranking(result):
    shares = {k: result["metrics"][f"{k}.share"]["value"] for k in SHARES}
    return sorted(shares, key=shares.get, reverse=True)[:2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_gives_same_layer_ranking(traced, workload):
    first, _, other_seed = traced[workload]
    assert _ranking(first) == _ranking(other_seed)


def test_design_holds_at_seed(traced):
    def share(w, k):
        return traced[w][0]["metrics"][f"{k}.share"]["value"]

    assert _ranking(traced["duality"][0])[0] == "numerics.log_gamma"
    assert share("duality", "numerics.macdonald") == 0.0
    assert _ranking(traced["operator"][0])[0] == "numerics.macdonald"
    assert share("operator", "numerics.log_gamma") < 0.01
    assert share("operator", "quadrature") < 0.05
    assert _ranking(traced["coordinate"][0])[0] == "quadrature"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    a = [c.params for c in workloads.build(workload, 1, COUNTS[workload])]
    b = [c.params for c in workloads.build(workload, 1, COUNTS[workload])]
    c = [c.params for c in workloads.build(workload, 2, COUNTS[workload])]
    assert a == b
    assert a != c


def test_end_to_end_output_matches_the_declaration():
    result = _result(_run("coordinate", 1, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert names == dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["failed"] > 0  # the Macdonald defect stays visible
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_attempted_and_failed_are_fixed_by_the_seed():
    # The pass is fixed by the seed, so two untraced runs count the same cases
    # and the same failures however many repeats their time allowed.
    first, second = (_result(_run("coordinate", 1, trace=0)) for _ in range(2))
    assert first["attempted"] == second["attempted"] == COUNTS["coordinate"]
    assert first["failed"] == second["failed"] > 0


def test_per_layer_output_matches_the_declaration(traced):
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert names == dict(tracing.per_layer_metrics())
    for results in traced.values():
        assert {k: v["unit"] for k, v in results[0]["metrics"].items()} == names


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("duality", 1, trace=0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
