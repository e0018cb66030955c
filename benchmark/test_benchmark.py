"""Self-tests of the benchmark, on the small `tiny` workload (S_3, D_3 and
two CLI commands).

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_work" / "selftest"


def _run(*args, trace=0, seed=1, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", "tiny",
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


@pytest.fixture(scope="module")
def untraced():
    return _run(trace=0)


@pytest.fixture(scope="module")
def traced():
    return _run(trace=1)


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    code, result, proc = untraced
    assert code == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_traced_run_prints_every_per_layer_metric(traced):
    code, result, proc = traced
    assert code == 0, proc.stderr
    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_layer_self_times_add_up_to_traced_wall(traced):
    metrics = {k: v["value"] for k, v in traced[1]["metrics"].items()}
    parts = [v for k, v in metrics.items() if k.startswith("self_s.")]
    assert all(v >= 0 for v in parts)
    assert sum(parts) == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert metrics["harmonics.cells"] > 0 and metrics["cli.startup_s"] > 0


def test_tracer_restores_every_wrapped_attribute():
    sys.path.insert(0, str(jobs.SRC))
    import supercoinv.cli  # noqa: F401
    from supercoinv import harmonics, linalg, superpoly

    before = (linalg.rank, harmonics.coinvariant_cell_dimension,
              superpoly.Operator.__dict__["apply"])
    t = tracing.Tracer()
    t.install()
    assert tracing.installed_wrappers()
    jobs.run_in_process({"kind": "table", "group": [1, 1, 3]})
    t.uninstall()
    assert tracing.installed_wrappers() == []
    assert (linalg.rank, harmonics.coinvariant_cell_dimension,
            superpoly.Operator.__dict__["apply"]) == before
    assert any(s.name == "linalg.rank" for s in t.spans)


def test_corrupted_reference_makes_the_run_fail():
    copy = SCRATCH / "corrupt"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(BENCH, copy / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(jobs.SRC, copy / jobs.SRC.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / BENCH.name / "reference" / "tiny.json"
    data = json.loads(path.read_text())
    data["jobs"]["table-G1.1.3"]["sh"][0][2] += 1
    path.write_text(json.dumps(data))
    code, result, _ = _run(cwd=copy, bench=copy / BENCH.name)
    assert code != 0
    assert result is not None and result["correct"] is False


@pytest.mark.parametrize("traced", [False, True])
def test_job_starts_with_empty_program_caches(traced):
    sys.path.insert(0, str(jobs.SRC))
    import supercoinv.cli  # noqa: F401
    from supercoinv import groups, harmonics

    t = tracing.Tracer()
    if traced:
        t.install()
    try:
        caches = [groups.build_group, harmonics.cell_monomials]
        # Under the tracer, build_group is a wrapper around the cache.
        caches = [c if hasattr(c, "cache_info") else c.__wrapped__
                  for c in caches]
        jobs.run_in_process({"kind": "cell", "group": [1, 1, 3],
                             "cell": [2, 1]})
        assert all(c.cache_info().currsize > 0 for c in caches)
        jobs.clear_program_caches()
        assert [c.cache_info().currsize for c in caches] == [0, 0]
    finally:
        if traced:
            t.uninstall()


def test_pass_times_are_scaled_by_the_slowdown_around_each_job():
    report = {"wall_s": 3.3, "cpu_s": 3.0,
              "jobs": [{"s": 2.0, "slowdown": 2.0},
                       {"s": 1.0, "slowdown": 1.0}]}
    scaled = run._scaled(report)
    # 3 s of jobs would have taken 2 s at the reference speed.
    assert scaled["slowdown"] == pytest.approx(1.5)
    assert scaled["wall_s"] == pytest.approx(2.2)
    assert scaled["cpu_s"] == pytest.approx(2.0)
    assert scaled["job_p50_s"] == pytest.approx(1.0)


def test_seed_permutes_units_but_keeps_the_job_set():
    base = jobs.job_list("cli", 0)
    for seed in range(1, 6):
        order = [j["id"] for j in jobs.job_list("cli", seed)]
        assert sorted(order) == sorted(j["id"] for j in base)
        cold = order.index("hilbert-D3-latex-cold")
        assert order[cold + 1:cold + 3] == ["hilbert-D3-latex-warm",
                                            "hilbert-D3-closure-warm"]
    assert len({tuple(j["id"] for j in jobs.job_list("cli", s))
                for s in range(5)}) == 5


def test_run_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = _run(cwd=bare, bench=bare / BENCH.name)
    assert code != 0 and result is None
