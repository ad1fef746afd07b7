"""The benchmark's layer tracer still fits the package.

`benchmark/tracing.py` wraps the functions it lists in `TRACED` by name, so a
renamed or removed function breaks the traced benchmark run.  This loads the
tracer by path, traces one small request, and checks that every name was
found, that the wrappers saw the calls, and that `uninstall()` put every
original back.  A `check-sni` request covers the search layers, a `run`
request the step rule and a `check-typable` request the poison and liveness
layers.
"""

import importlib
import importlib.util
from pathlib import Path

from snicheck import cli
from snicheck.cli import corpus_path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("snicheck_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(tracing) -> dict:
    """Every binding the tracer may replace: each traced module's namespace
    and the namespaces of the classes whose methods it wraps."""
    modules = {m: importlib.import_module(f"snicheck.{m}") for m, _, _ in tracing.TRACED}
    owners = list(modules.values())
    owners += [getattr(modules[m], a.split(".")[0]) for m, a, _ in tracing.TRACED if "." in a]
    owners.append(modules["semantics"].State)
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_installs_on_every_traced_name_and_uninstalls(capsys, tmp_path):
    tracing = load_tracing()
    before = snapshot(tracing)
    tr = tracing.Tracer()
    tr.install()
    try:
        C = lambda name: str(corpus_path(name))
        script = tmp_path / "one.dirs"
        script.write_text("step\n")
        codes = []
        for argv in (
            ["check-sni", C("code_ra_target.sp"), "--state", C("code_ra.init"), "--state2", C("code_ra_alt.init")],
            ["run", C("code_ra_target.sp"), "--state", C("code_ra.init"), "--directives", str(script)],
            ["check-typable", "--source", C("code_ra_source.sp"), "--target", C("code_ra_target.sp"),
             "--witness", C("code_ra.witness")],
        ):
            tr.begin_request(argv[0])
            codes.append(cli.main([*argv, "--format", "json"]))  # looked up after install, as the benchmark does
            tr.end_request()
    finally:
        tr.uninstall()
    capsys.readouterr()
    assert codes == [1, 0, 1]  # the corpus RA target leaks and runs a step, and its witness is not typable
    after = snapshot(tracing)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    totals = tr.totals()
    for name in ("cli.main", "security.check_sni", "security.check_sni_pair", "semantics.parse_initial_state",
                 "semantics.run_directives", "semantics.step_spec",
                 "poison.Product", "poison.poison_analysis", "poison.check_poison_typable"):
        assert totals[name][0] >= 1, name
    assert tr.counters["semantics.state_ops.calls"] > 0
    metrics = tracing.layer_metrics(tr)
    assert metrics["security.verdict.violation"] == (1, "count")
    # liveness solves through `dataflow.solve`, whose problem's nodes the tracer counts
    assert any(s[2:4] == ("check-typable", "dataflow.solve") for s in tr.spans)
    assert metrics["dataflow.solve.nodes"][0] > 0
