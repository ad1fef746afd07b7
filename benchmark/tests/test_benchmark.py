"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest benchmark/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmark"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return proc


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    summary, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(summary)["summary"], json.loads(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_work(workload):
    """Call counts, pairs, states expanded, intervals, truncations, fix rounds,
    insertions, verdict counts and the verdict digest repeat exactly."""
    (s1, r1), (s2, r2) = (_lines(_run(workload, 5, trace=1)) for _ in range(2))
    work = lambda r: {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
    assert work(r1) == work(r2)
    assert s1["verdict_digest"] == s2["verdict_digest"]
    assert (r1["correct"], r1["attempted"], r1["failed"]) == (r2["correct"], r2["attempted"], r2["failed"])


def test_generator_is_seeded(tmp_path):
    from snicheck.cli import CORPUS

    def requests(seed):
        wl = workloads.build("sim-cube", seed, 40, tmp_path, CORPUS)
        return [(r.rid, r.argvs, r.inputs) for r in wl.requests]

    assert requests(1) == requests(1)
    assert requests(1) != requests(2)


def test_refuses_to_run_without_sources(tmp_path):
    proc = _run("sni-search", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_result_matches_benchmark_json():
    """An untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
    with their units."""
    summary, result = _lines(_run("sni-search", 5, trace=0))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["failed"] == 0
    assert summary["samples"] == result["attempted"]


def test_reference_scaling():
    """Request times are scaled by the kernel samples near them: at the
    nominal kernel time they are unchanged, in a spell where the kernel takes
    twice as long they are halved."""
    import reference

    nominal, window = reference.NOMINAL_S, reference.WINDOW_S
    times = [0.5 * window] * 8
    samples = [(0.5 * window * i, nominal * (1 if i < 4 else 2)) for i in range(8)]
    out = reference.scaled(times, samples)
    assert out[0] == pytest.approx(times[0])
    assert out[-1] == pytest.approx(times[-1] / 2)
    assert reference.scaled(times[:1], samples[:1]) == pytest.approx(times[:1])
    assert reference.kernel() == reference.kernel() == 152
