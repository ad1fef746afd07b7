#!/usr/bin/env python3
"""snicheck benchmark: closed-loop verdict requests, run in process.

    python3 benchmark/run.py --workload sni-search --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client issues the requests of one workload back to back, each as an
in-process `snicheck.cli.main([..., "--format", "json"])` call (a subprocess
per request would add about 0.25 s of interpreter start-up to requests that
take milliseconds).  The request count is fixed by `--seconds` and the
workload's request rate (see `workloads.REQUEST_RATE`), so two runs with the
same seed do identical work.  Every output is checked after the request loop,
outside the timed spans.

`--trace 0` reports the end-to-end metrics of an untraced run.  Their
timings are seconds at the reference speed: each is scaled by the time of a
fixed kernel sampled during the run (`reference.py`), because on a shared host
the machine's own speed drifts more between runs than most changes move the
program.  The summary line also gives them in wall-clock seconds.  `--trace 1`
runs the same requests untraced and then traced, and reports the per-layer
metrics with `trace.overhead` (traced / untraced request-loop time); spans are
written to `.bench_out/`.  The next-to-last stdout line is a summary object
with every metric, the verdict digest and each failed request; the last line
is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import reference
import workloads

ROOT = Path.cwd()
SETUP_REPEATS = 5


def _import_snicheck():
    """Fresh import of every snicheck module (timed as part of set-up)."""
    for name in [m for m in sys.modules if m == "snicheck" or m.startswith("snicheck.")]:
        del sys.modules[name]
    import snicheck.cli

    return snicheck.cli


def set_up(workload: str, seed: int, n_requests: int, work: Path):
    """Import, load the corpus and generate the requests, SETUP_REPEATS times;
    returns the last workload and CLI module, the median set-up time and the
    reference-kernel samples taken around the repeats."""
    times, ref_samples = [], []
    for _ in range(SETUP_REPEATS):
        ref_samples += [reference.sample() for _ in range(3)]
        start = time.perf_counter()
        cli = _import_snicheck()
        wl = workloads.build(workload, seed, n_requests, work, cli.CORPUS)
        times.append(time.perf_counter() - start)
    ref_samples += [reference.sample() for _ in range(3)]
    return wl, cli, statistics.median(times), ref_samples


def run_requests(cli, wl, requests, tracer=None):
    """Closed loop over `requests`; returns (loop seconds, per-request
    results, reference-kernel samples).

    Only the command lines are timed.  A result is (request, seconds,
    [(exit code, stdout, stderr)], {output slot: text}, error) where error is
    (exception type, message) when a command line raised.  The reference
    kernel is timed between requests, once per reference.SAMPLE_EVERY_S of
    request time.
    """
    results, ref_samples = [], []
    loop_s = 0.0
    unsampled = reference.SAMPLE_EVERY_S  # request time since the last sample
    for req in requests:
        while unsampled >= reference.SAMPLE_EVERY_S:
            ref_samples.append((loop_s, reference.sample()))
            unsampled -= reference.SAMPLE_EVERY_S
        # outputs are emptied rather than deleted: creating files is slow and
        # noisy here, and an empty slot afterwards means nothing was written
        for name, text in [*req.inputs.items(), *((name, "") for name in req.outputs)]:
            (wl.workdir / name).write_text(text)
        outputs, error = [], None
        if tracer:
            tracer.begin_request(req.rid)
        start = time.perf_counter()
        try:
            for argv in req.argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                outputs.append((rc, out.getvalue(), err.getvalue()))
        except Exception as e:  # recorded as a failed request; the run goes on
            error = (type(e).__name__, str(e)[:300])
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_request()
        loop_s += elapsed
        unsampled += elapsed
        files = {name: (wl.workdir / name).read_text() or None for name in req.outputs}
        results.append((req, elapsed, outputs, files, error))
    return loop_s, results, ref_samples


def check_results(results):
    """Check every output; returns (failures, wrong, verdict records, fix totals)."""
    import checks

    failures, records = [], []
    wrong = 0
    insertions = instrs = 0
    for req, _elapsed, outputs, files, error in results:
        if error:
            failures.append({"request": req.rid, "type": error[0], "detail": error[1]})
            records.append((req.rid, "raised " + error[0]))
            continue
        if any(rc == 3 for rc, _, _ in outputs):
            msg = " | ".join(e.strip() for _, _, e in outputs if e.strip())
            failures.append({"request": req.rid, "type": "exit 3", "detail": msg[:300]})
            records.append((req.rid, "exit 3"))
            continue
        c = checks.check(req, [(rc, out) for rc, out, _ in outputs], files)
        records.append((req.rid, c.verdict, [rc for rc, _, _ in outputs]))
        insertions += c.fix_insertions
        instrs += c.target_instrs
        if c.problems:
            wrong += 1
            failures.append({"request": req.rid, "type": "check", "detail": "; ".join(c.problems)[:300]})
    return failures, wrong, records, insertions, instrs


def verdict_digest(records) -> str:
    return hashlib.sha256(json.dumps(sorted(records, key=str)).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "snicheck" / "cli.py").is_file():
        print(f"error: no snicheck sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    n_requests = workloads.request_count(args.workload, args.seconds)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl, cli, setup_s, setup_refs = set_up(args.workload, args.seed, n_requests, work)
        # a traced run times a seed-fixed third of the requests twice, untraced
        # then traced, so it takes about as long as an untraced run
        requests = wl.requests[: workloads.traced_count(n_requests)] if args.trace else wl.requests
        base_s, results, ref_samples = run_requests(cli, wl, requests)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s, traced, _ = run_requests(cli, wl, requests, tracer)
            finally:
                tracer.uninstall()
            drift = [r[0].rid for r, t in zip(results, traced) if r[2:4] != t[2:4]]
            results = traced
        failures, wrong, records, insertions, instrs = check_results(results)
        if args.trace:
            failures += [{"request": rid, "type": "check", "detail": "traced output differs"} for rid in drift]
            wrong += len(drift)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for rid, kind, msg in wl.setup_failures:
        failures.append({"request": rid, "type": f"set-up {kind}", "detail": msg[:300]})
    attempted = len(results) + len(wl.setup_failures)
    failed = len(failures)
    summary = {
        "workload": args.workload, "seed": args.seed, "requests": attempted,
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
        "fix_insertions": {"value": insertions, "unit": "count"},
        "target_instrs": {"value": instrs, "unit": "count"},
        "verdict_digest": verdict_digest(records),
        "failures": failures,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracing.layer_metrics(tracer).items()}
        metrics["target_instrs"] = {"value": instrs, "unit": "count"}
        metrics["trace.overhead"] = {"value": traced_s / base_s, "unit": "ratio"}
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        # timings are scaled to the reference speed (see reference.py): set-up
        # by the kernel samples taken around it, and each request by those
        # taken near it
        ok = [not error for _req, _elapsed, _out, _files, error in results]
        wall_times = [elapsed for _req, elapsed, _out, _files, _error in results]
        ref_times = reference.scaled(wall_times, ref_samples)
        setup_scale = reference.NOMINAL_S / statistics.mean(setup_refs)
        summary["samples"] = sum(ok)
        summary["reference"] = {
            "samples": len(ref_samples), "setup_scale": setup_scale,
            "mean_scale": reference.NOMINAL_S / statistics.mean(s for _, s in ref_samples),
        }

        def timings(all_times):
            times = sorted(t for t, good in zip(all_times, ok) if good)
            return {"verdicts_per_s": len(times) / sum(all_times), "verdict_s.p50": statistics.median(times),
                    "verdict_s.p90": statistics.quantiles(times, n=10)[-1]}

        summary["wall"] = {"setup_s": setup_s, **timings(wall_times)}
        units = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_s.p50": "s", "verdict_s.p90": "s"}
        values = {"setup_s": setup_s * setup_scale, **timings(ref_times)}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"}
    summary.update(metrics)
    for f in failures:
        print(f"failed request {f['request']}: {f['type']}: {f['detail']}", file=sys.stderr)
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
