"""Layer tracing for the snicheck benchmark, installed from outside the package.

`Tracer.install()` replaces the public functions listed in `TRACED` with
wrappers, in every `snicheck` module namespace that bound them (a
`from .semantics import step_spec` copies the function into `security`,
`simulation` and `cli`), and methods on their class.  `uninstall()` puts the
originals back.  Nothing under `src/` changes.

Three wrapper kinds trade detail for overhead:

  span   one record per call (id, parent, request id, name, start, end,
         self time), kept in memory and written out when the run ends
  agg    count and self time per (parent, name), for calls made tens of
         thousands of times per run
  leaf   like agg, for hot calls with no traced callee (`step_spec`,
         `Program.pcs`, `live_before`): no stack frame is pushed

`State.reg`/`cell`/`with_reg`/`with_cell` are only counted.  Their time stays
in the caller's self time.  A span's self time is its duration minus the
durations of its traced children.  The run is single-threaded with no queues,
so no wait time exists to record.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, kind); "Class.method" attributes wrap the method on the class
TRACED = [
    ("cli", "main", "span"),
    ("ir", "parse_program", "span"),
    ("ir", "print_program", "span"),
    ("ir", "Program.pcs", "leaf"),
    ("semantics", "step_spec", "leaf"),
    ("semantics", "enabled_directives", "agg"),
    ("semantics", "run_directives", "agg"),
    ("semantics", "explore_behaviors", "span"),
    ("semantics", "parse_initial_state", "span"),
    ("semantics", "parse_directives", "span"),
    ("security", "check_sni", "span"),
    ("security", "check_sni_pair", "span"),
    ("security", "enumerate_high_states", "span"),
    ("dataflow", "solve", "span"),
    ("liveness", "liveness", "span"),
    ("liveness", "live_before", "leaf"),
    ("liveness", "dce_transform", "span"),
    ("regalloc", "allocate", "span"),
    ("regalloc", "validate_ra", "span"),
    ("regalloc", "analyze_structure", "span"),
    ("regalloc", "rho_live", "span"),
    ("regalloc", "parse_ra_witness", "span"),
    ("regalloc", "serialize_ra_witness", "span"),
    ("poison", "Product.__init__", "span"),
    ("poison", "poison_analysis", "span"),
    ("poison", "check_poison_typable", "span"),
    ("poison", "fix_ra", "span"),
    ("simulation", "dce_witness", "span"),
    ("simulation", "ra_witness", "span"),
    ("simulation", "extract_intervals", "agg"),
    ("simulation", "check_simulation", "span"),
    ("simulation", "check_snippy_cube", "span"),
]

STATE_OPS = ("reg", "cell", "with_reg", "with_cell")


def _name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '')}"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [name, span id, child time]
        self.spans: list[tuple] = []  # (id, parent id, request id, name, start, end, self)
        self.agg: dict[tuple[str, str], list] = {}  # (parent name, name) -> [calls, self time]
        self.counters: Counter = Counter()
        self.request_id: str | None = None
        self._state_ops = [0]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- request spans -------------------------------------------------------

    def begin_request(self, rid: str):
        self.request_id = rid
        self._next_id += 1
        self.stack.append(["request", self._next_id, 0.0, time.perf_counter()])

    def end_request(self):
        name, sid, child, start = self.stack.pop()
        end = time.perf_counter()
        self.spans.append((sid, None, self.request_id, name, start, end, end - start - child))
        self.request_id = None

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, name, observe):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1]
            frame = [name, self._next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[2] += end - start
                spans.append((frame[1], parent[1], self.request_id, name, start, end, end - start - frame[2]))
            if observe:
                observe(self, parent[0], args, result)
            return result

        return wrapper

    def _agg(self, fn, name, observe):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, parent[1], 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                parent[2] += dt
                entry = agg.get((parent[0], name))
                if entry is None:
                    agg[(parent[0], name)] = [1, dt - frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += dt - frame[2]
            if observe:
                observe(self, parent[0], args, result)
            return result

        return wrapper

    def _leaf(self, fn, name, observe):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dt = clock() - start
            parent = stack[-1]
            parent[2] += dt
            entry = agg.get((parent[0], name))
            if entry is None:
                agg[(parent[0], name)] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            return result

        return wrapper

    def _counted(self, fn):
        cell = self._state_ops

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- install / uninstall -------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"snicheck.{m}") for m in {t[0] for t in TRACED}}
        for module, attr, kind in TRACED:
            name = _name(module, attr)
            observe = OBSERVERS.get(name)
            make = {"span": self._span, "agg": self._agg, "leaf": self._leaf}[kind]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[module], cls_name)
                self._patch(cls, meth, make(getattr(cls, meth), name, observe))
                continue
            original = getattr(modules[module], attr)
            wrapper = make(original, name, observe)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        state = modules["semantics"].State
        for op in STATE_OPS:
            self._patch(state, op, self._counted(getattr(state, op)))

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self.counters["semantics.state_ops.calls"] += self._state_ops[0]
        self._state_ops[0] = 0

    # -- results ------------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, self time] over spans and aggregates."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for _sid, _parent, _rid, name, _start, _end, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        for (_parent, name), (calls, self_s) in self.agg.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def calls_under(self, parent: str, name: str) -> int:
        return self.agg.get((parent, name), [0, 0.0])[0]

    def write(self, path: Path):
        """All spans and aggregates, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for sid, parent, rid, name, start, end, self_s in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "request": rid, "name": name,
                                    "start": start, "end": end, "self_s": self_s}) + "\n")
            for (parent, name), (calls, self_s) in sorted(self.agg.items()):
                f.write(json.dumps({"parent": parent, "name": name, "calls": calls, "self_s": self_s}) + "\n")


# --- observers: work counters read off arguments and results ----------------------


def _obs_enabled(tr: Tracer, parent, args, result):
    tr.counters["semantics.enabled_directives.returned"] += len(result)


def _obs_check_sni(tr: Tracer, parent, args, v):
    kind = "violation" if not v.secure else ("inconclusive" if v.truncated else "secure")
    tr.counters[f"security.verdict.{kind}"] += 1
    tr.counters["security.truncated"] += v.truncated


def _obs_solve(tr: Tracer, parent, args, result):
    tr.counters["dataflow.solve.nodes"] += len(args[0].nodes)


def _obs_fix(tr: Tracer, parent, args, result):
    tr.counters["poison.insertions"] += len(result[1].insertions)


def _obs_extract(tr: Tracer, parent, args, result):
    tr.counters[f"simulation.extracted_under.{parent}"] += len(result.intervals)


def _obs_sim(tr: Tracer, parent, args, v):
    tr.counters[f"simulation.verdict.{v.status}"] += 1
    tr.counters["simulation.truncated"] += v.truncated
    tr.counters["simulation.intervals_checked"] += v.intervals_checked


def _obs_cube(tr: Tracer, parent, args, v):
    _obs_sim(tr, parent, args, v)
    tr.counters["simulation.cube_intervals_checked"] += v.intervals_checked


OBSERVERS = {
    "semantics.enabled_directives": _obs_enabled,
    "security.check_sni": _obs_check_sni,
    "dataflow.solve": _obs_solve,
    "poison.fix_ra": _obs_fix,
    "simulation.extract_intervals": _obs_extract,
    "simulation.check_simulation": _obs_sim,
    "simulation.check_snippy_cube": _obs_cube,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    tot, c = tr.totals(), tr.counters
    calls = lambda n: (tot[n][0] if n in tot else 0, "count")
    self_s = lambda n: (tot[n][1] if n in tot else 0.0, "s")
    m: dict[str, tuple[float, str]] = {}
    m["cli.main.calls"] = calls("cli.main")
    m["cli.self_s"] = self_s("cli.main")
    m["ir.parse_program.self_s"] = self_s("ir.parse_program")
    m["ir.print_program.self_s"] = self_s("ir.print_program")
    m["ir.pcs.calls"] = calls("ir.Program.pcs")
    m["ir.pcs.self_s"] = self_s("ir.Program.pcs")
    for n in ("step_spec", "enabled_directives", "run_directives", "explore_behaviors"):
        m[f"semantics.{n}.calls"] = calls(f"semantics.{n}")
        m[f"semantics.{n}.self_s"] = self_s(f"semantics.{n}")
    probed = tr.calls_under("semantics.enabled_directives", "semantics.step_spec")
    m["semantics.enabled_directives.yield"] = (_ratio(c["semantics.enabled_directives.returned"], probed), "ratio")
    m["semantics.state_ops.calls"] = (c["semantics.state_ops.calls"], "count")
    m["security.check_sni.calls"] = calls("security.check_sni")
    m["security.check_sni.self_s"] = self_s("security.check_sni")
    m["security.pairs"] = calls("security.check_sni_pair")
    m["security.states_expanded"] = (
        tr.calls_under("security.check_sni_pair", "semantics.enabled_directives") / 2, "count")
    m["security.truncated"] = (c["security.truncated"], "count")
    for kind in ("secure", "violation", "inconclusive"):
        m[f"security.verdict.{kind}"] = (c[f"security.verdict.{kind}"], "count")
    m["dataflow.solve.calls"] = calls("dataflow.solve")
    m["dataflow.solve.self_s"] = self_s("dataflow.solve")
    m["dataflow.solve.nodes"] = (c["dataflow.solve.nodes"], "count")
    for n in ("liveness", "live_before"):
        m[f"liveness.{n}.calls"] = calls(f"liveness.{n}")
        m[f"liveness.{n}.self_s"] = self_s(f"liveness.{n}")
    m["regalloc.allocate.self_s"] = self_s("regalloc.allocate")
    for n in ("validate_ra", "analyze_structure", "rho_live"):
        m[f"regalloc.{n}.calls"] = calls(f"regalloc.{n}")
        m[f"regalloc.{n}.self_s"] = self_s(f"regalloc.{n}")
    m["poison.Product.calls"] = calls("poison.Product")
    m["poison.poison_analysis.calls"] = calls("poison.poison_analysis")
    m["poison.poison_analysis.self_s"] = self_s("poison.poison_analysis")
    m["poison.check_poison_typable.self_s"] = self_s("poison.check_poison_typable")
    m["poison.fix_ra.self_s"] = self_s("poison.fix_ra")
    span_names = {s[0]: s[3] for s in tr.spans}
    m["poison.fix_ra.rounds"] = (sum(1 for s in tr.spans if s[3] == "poison.poison_analysis"
                                     and span_names.get(s[1]) == "poison.fix_ra"), "count")
    m["poison.insertions"] = (c["poison.insertions"], "count")
    m["poison.analyses_per_insertion"] = (
        _ratio(m["poison.poison_analysis.calls"][0], c["poison.insertions"]), "ratio")
    for n in ("extract_intervals", "check_simulation", "check_snippy_cube"):
        m[f"simulation.{n}.calls"] = calls(f"simulation.{n}")
        m[f"simulation.{n}.self_s"] = self_s(f"simulation.{n}")
    m["simulation.intervals_checked"] = (c["simulation.intervals_checked"], "count")
    m["simulation.premise_yield"] = (_ratio(
        c["simulation.cube_intervals_checked"],
        c["simulation.extracted_under.simulation.check_snippy_cube"]), "ratio")
    m["simulation.truncated"] = (c["simulation.truncated"], "count")
    for kind in ("pass", "fail"):
        m[f"simulation.verdict.{kind}"] = (c[f"simulation.verdict.{kind}"], "count")
    return m

