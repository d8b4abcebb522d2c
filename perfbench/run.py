"""Benchmark of the cubicmatch toolkit: catalog generation, catalog
verification and single-graph analysis, end to end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload verify12 --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, with ``--workload all``.
``--smoke`` swaps in tiny inputs (the n = 8 catalog and five order-10
graphs) with their own recorded gates; ``test_smoke.py`` runs it.

Workloads (why each one exists is also recorded in BENCHMARK.json):

* ``gen12``: cold ``generate_catalog(12)`` plus ``write(..., "sparse6")``.
  The generator's filters and canonical labelling do almost all of the
  work; connectivity, matching and brick/brace do none, so a change to
  those layers must not move it. The seed does not change its input.
* ``verify12``: ``verify_catalog(graphs, workers=1)`` over the 365 classes
  of order 12, read from ``catalog12.s6`` in this directory (so the input
  does not depend on the generator under test), then JSONL serialisation
  exactly as ``catalog verify`` writes it. This is the product path: many
  small graphs with parallel edges and repeated tight-cut splits.
* ``analyze16``: ``verify_graph`` plus JSONL on seeded random connected
  bridgeless cubic multigraphs of order 16, made by stub pairing with
  ``random.Random(seed)`` as the test suite does. Cut enumeration is
  exponential and dominates; canonical labelling is cheap here.

Every pass starts from a fresh import of the package, so module caches
are cold as they are for one CLI call. Passes repeat until ``--seconds``
is used up; timings are medians over passes (per-graph latencies are
pooled over passes), scaled to a reference interpreter speed measured
while the workload runs (see SpeedProbe); the info line before the result
repeats them unscaled. No threads or subprocesses run inside a workload,
and ``workers=1`` is passed explicitly so no environment variable can
change a result.

With ``--trace 1`` the run makes one untraced and one traced pass over the
same fixed work and reports per-layer metrics from spans around the
functions in ``LAYERS`` (see tracing.py); counts repeat exactly from run
to run. Tracing overhead is the difference between the two passes' wall
times, import excluded.

Correctness gates run on every pass; their expected values sit in
``expected.json`` and were recorded with ``record.py``. A graph that
raises or misses a gate counts as failed, and any failure makes the
command exit with status 1. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from tracing import Tracer, package_modules, patch_everywhere, unpatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "cubicmatch"
DEFAULT_SEED = 1
SETUP_REPEATS = 5  # set-ups per run at least; each pass adds one
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW_S = 0.5
CALIBRATION_REF_S = 0.005  # one calibration unit at the reference speed

# Layer -> functions traced in it, extra counters, and the end-to-end
# metric the layer should move, on which workload. Performance changes cite
# these names.
LAYERS = {
    "multigraph": {
        "functions": ["canonical_form", "contract", "induced_subgraph"],
        "moves": "gen12.graphs_per_s strongly; verify12 slightly",
    },
    "harness": {
        "functions": [
            "bridgeless_cubic_catalog",
            "_is_orbit_minimal",
            "_quotient_connected_bridgeless",
            "verify_graph",
        ],
        "extra": ["orbit_rejected", "quotient_rejected", "dedup_ratio"],
        "moves": "gen12.graphs_per_s",
    },
    "connectivity": {
        "functions": [
            "_connected_side_masks",
            "enumerate_cuts",
            "edge_connectivity",
            "cyclic_edge_connectivity",
            "_has_cycle",
            "bridges",
        ],
        "extra": ["subsets_visited", "cuts_returned"],
        "moves": "analyze16.graphs_per_s and analyze16.graph_p90_ms first, "
        "verify12 second; never gen12",
    },
    "matching": {
        "functions": [
            "count_perfect_matchings",
            "boundary_profile",
            "enumerate_perfect_matchings",
            "_has_pm",
            "is_matching_covered",
        ],
        "extra": ["pms_enumerated"],
        "moves": "verify12.graphs_per_s and verify12.graph_p50_ms",
    },
    "brick_brace": {
        "functions": ["decompose", "_is_tight_unchecked", "pm_affine_dimension", "_exact_rank"],
        "extra": ["tight_hit_ratio"],
        "moves": "verify12 first, analyze16 second",
    },
    "klee": {"functions": ["is_klee"], "moves": "verify12 slightly"},
    "formats": {"functions": ["write", "parse"], "moves": "gen12 and verify12.setup_s"},
}

TRACE_METRICS = ["trace.untraced_s", "trace.traced_s", "trace.overhead_s"]


def _count_when(counter: str, outcome: bool):
    def hook(counters, result):
        if bool(result) == outcome:
            counters[counter] += 1

    return hook


def _add_length(counter: str):
    def hook(counters, result):
        counters[counter] += len(result)

    return hook


RESULT_HOOKS = {
    ("harness", "_is_orbit_minimal"): _count_when("harness.orbit_rejected", False),
    ("harness", "_quotient_connected_bridgeless"): _count_when("harness.quotient_rejected", False),
    ("harness", "bridgeless_cubic_catalog"): _add_length("harness.classes"),
    ("connectivity", "enumerate_cuts"): _add_length("connectivity.cuts_returned"),
    ("brick_brace", "_is_tight_unchecked"): _count_when("brick_brace.tight_hits", True),
}
YIELD_COUNTERS = {
    ("connectivity", "_connected_side_masks"): "connectivity.subsets_visited",
    ("matching", "enumerate_perfect_matchings"): "matching.pms_enumerated",
}


def per_layer_metric_names() -> list[str]:
    names = []
    for module, layer in LAYERS.items():
        for fn in layer["functions"]:
            names += [f"{module}.{fn}.{stat}" for stat in ("calls", "self_s", "total_s")]
        names += [f"{module}.{extra}" for extra in layer.get("extra", [])]
    return names + TRACE_METRICS


END_TO_END_UNITS = {"graphs_per_s": "1/s", "graph_p50_ms": "ms", "graph_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def fresh_import():
    """Drops every loaded module of the package and imports it again, so
    module-level caches start empty."""
    for mod in package_modules(PACKAGE):
        del sys.modules[mod.__name__]
    return importlib.import_module(PACKAGE)


def _connected(n: int, pairs) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in pairs:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
            parts -= 1
    return parts == 1


def random_bridgeless_cubic_pairs(n: int, rnd: random.Random) -> tuple:
    """Edge list of a random connected bridgeless cubic multigraph by stub
    pairing; the same draws and rejections as the test suite's generator,
    checked here without the library so inputs do not depend on it."""
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rnd.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        if _connected(n, pairs) and all(
            _connected(n, pairs[:i] + pairs[i + 1:]) for i in range(len(pairs))
        ):
            return tuple(pairs)


def sha256_lines(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def catalog_record(lib, graphs) -> dict:
    """Class count and the digest of the sorted canonical forms, as hex
    lines: equal exactly when the graphs are the same isomorphism classes."""
    forms = sorted(lib.multigraph.canonical_form(g).hex() for g in graphs)
    return {"classes": len(forms), "canonical_sha256": sha256_lines(forms)}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass
class PassResult:
    work: tuple[float, float]
    graphs: list
    latencies: list[tuple[float, float]] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    satisfied: list[bool] = field(default_factory=list)


def report_failures(result: PassResult, want: list[str] | None) -> int:
    """Graphs whose report fails a bound or, when ``want`` holds the
    recorded line digests, whose JSONL line differs from the recorded one.
    Equal lines make equal JSONL bytes, since no line holds a newline."""
    bad = 0
    for i, (line, satisfied) in enumerate(zip(result.lines, result.satisfied)):
        if not satisfied or (want is not None and (i >= len(want) or sha256_lines([line]) != want[i])):
            bad += 1
    if want is not None:
        bad += max(0, len(want) - len(result.lines))
    return bad


class Workload:
    """One named workload: how to build its inputs, run one pass over
    them, record the outputs of a known-good commit and gate a pass
    against that record."""

    per_graph_latency = True

    def __init__(self, name: str) -> None:
        self.name = name

    def setup(self, lib, seed: int):
        return None

    def check_inputs(self, lib, inputs, expected_all: dict) -> bool:
        return True


class Gen(Workload):
    per_graph_latency = False

    def __init__(self, name: str, n: int) -> None:
        super().__init__(name)
        self.n = n

    def expected_graphs(self, expected: dict) -> int:
        return expected["classes"]

    def run(self, lib, inputs) -> PassResult:
        t = perf_counter()
        graphs = lib.harness.generate_catalog(self.n, "all_bridgeless_cubic")
        lib.formats.write(graphs, "sparse6")
        return PassResult((t, perf_counter()), graphs)

    def record(self, lib, result: PassResult, seed: int) -> dict:
        return catalog_record(lib, result.graphs)

    def failures(self, lib, result: PassResult, expected: dict, seed: int) -> int:
        if self.record(lib, result, seed) == expected:
            return 0
        return max(len(result.graphs), expected["classes"])


class Verify(Workload):
    def __init__(self, name: str, path: str, gen: str) -> None:
        super().__init__(name)
        self.path, self.gen = path, gen

    def setup(self, lib, seed: int):
        return list(lib.formats.parse(os.path.join(HERE, self.path), "sparse6"))

    def expected_graphs(self, expected: dict) -> int:
        return len(expected["line_sha256"])

    def check_inputs(self, lib, graphs, expected_all: dict) -> bool:
        """The input file must hold exactly the classes gen records."""
        return catalog_record(lib, graphs) == expected_all[self.gen]

    def run(self, lib, graphs) -> PassResult:
        latencies: list[tuple[float, float]] = []
        timed = lib.harness.verify_graph

        def verify_graph(g):
            t = perf_counter()
            report = timed(g)
            latencies.append((t, perf_counter()))
            return report

        patched = patch_everywhere(PACKAGE, timed, verify_graph)
        try:
            t = perf_counter()
            reports = lib.harness.verify_catalog(graphs, workers=1)
            lines = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
            work = (t, perf_counter())
        finally:
            unpatch(patched)
        return PassResult(work, graphs, latencies, lines, [r.all_satisfied for r in reports])

    def record(self, lib, result: PassResult, seed: int) -> dict:
        return {"jsonl_sha256": sha256_lines(result.lines),
                "line_sha256": [sha256_lines([line]) for line in result.lines]}

    def failures(self, lib, result: PassResult, expected: dict, seed: int) -> int:
        return report_failures(result, expected["line_sha256"])


class Analyze(Workload):
    def __init__(self, name: str, n: int, count: int) -> None:
        super().__init__(name)
        self.n, self.count = n, count

    def setup(self, lib, seed: int):
        rnd = random.Random(seed)
        return [lib.multigraph.MultiGraph(self.n, random_bridgeless_cubic_pairs(self.n, rnd))
                for _ in range(self.count)]

    def expected_graphs(self, expected: dict) -> int:
        return self.count

    def run(self, lib, graphs) -> PassResult:
        harness = lib.harness
        result = PassResult((0.0, 0.0), graphs)
        start = perf_counter()
        for g in graphs:
            t = perf_counter()
            try:
                report = harness.verify_graph(g)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result.lines.append("")
                result.satisfied.append(False)
                continue
            result.latencies.append((t, perf_counter()))
            result.lines.append(json.dumps(report.to_json(), sort_keys=True))
            result.satisfied.append(report.all_satisfied)
        result.work = (start, perf_counter())
        return result

    def record(self, lib, result: PassResult, seed: int) -> dict:
        return {"seed": seed, "line_sha256": [sha256_lines([line]) for line in result.lines]}

    def failures(self, lib, result: PassResult, expected: dict, seed: int) -> int:
        """Only the recorded seed has recorded lines; every seed must
        satisfy every bound."""
        want = expected["line_sha256"] if seed == expected["seed"] else None
        return report_failures(result, want)


WORKLOADS = {
    "full": {
        "gen12": Gen("gen12", 12),
        "verify12": Verify("verify12", "catalog12.s6", "gen12"),
        "analyze16": Analyze("analyze16", 16, 100),
    },
    "smoke": {
        "gen12": Gen("gen12", 8),
        "verify12": Verify("verify12", "catalog8.s6", "gen12"),
        "analyze16": Analyze("analyze16", 10, 5),
    },
}


def load_expected(mode: str) -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="ascii") as fh:
        return json.load(fh)[mode]


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run_pass(self, wl, lib, inputs, expected: dict, seed: int) -> PassResult | None:
        """One gated pass; a pass that raises counts all its graphs failed."""
        planned = wl.expected_graphs(expected[wl.name])
        try:
            result = wl.run(lib, inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += planned
            self.failed += planned
            return None
        self.attempted += max(len(result.graphs), planned)
        self.failed += wl.failures(lib, result, expected[wl.name], seed)
        return result


def setup_pass(wl, seed: int):
    t = perf_counter()
    lib = fresh_import()
    inputs = wl.setup(lib, seed)
    return (t, perf_counter()), lib, inputs


def check_input_file(wl, lib, inputs, expected: dict, tally: Tally) -> None:
    if not wl.check_inputs(lib, inputs, expected):
        print(f"input file {wl.path} does not match the recorded catalog", file=sys.stderr)
        tally.attempted += len(inputs)
        tally.failed += len(inputs)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _calibration_unit() -> int:
    """A fixed unit of pure-Python work that never calls the library:
    integer arithmetic and dict stores, then small sorted tuples as dict
    keys and list appends, the kinds of work the library itself does."""
    total = 0
    table = {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    groups: dict[tuple, list] = {}
    sizes = []
    for i in range(1500):
        key = tuple(sorted((i * 7919 % 97, i % 13, i & 31)))
        groups.setdefault(key, []).append(i)
        sizes.append(len(groups[key]))
    return total + sum(sizes)


class SpeedProbe:
    """Samples the interpreter's speed while a workload runs.

    Shared hosts swing by about 20% in speed over tens of seconds, and
    the swing slows the calibration unit as much as the library. So every
    PROBE_INTERVAL_S a SIGALRM handler (no thread) times one calibration
    unit, and ``duration`` scales an interval to the speed at which the
    unit takes CALIBRATION_REF_S. The probe's own time is taken out of
    every interval it falls in.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []

    def _sample(self, *_) -> None:
        # A collection inside the unit would scan the library's live
        # objects, so the unit's cost would track the library's heap.
        collecting = gc.isenabled()
        gc.disable()
        t = perf_counter()
        _calibration_unit()
        cost = perf_counter() - t
        if collecting:
            gc.enable()
        self.times.append(t + cost / 2)
        self.costs.append(cost)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def duration(self, interval: tuple[float, float], scaled: bool = True) -> float:
        """The interval's length without probe time, at the reference speed
        unless ``scaled`` is false. The speed is taken from the samples
        within PROBE_WINDOW_S of the interval; a sample more than 1.5 times
        the window's median was interrupted and is left out."""
        a, b = interval
        lo, hi = bisect.bisect_left(self.times, a), bisect.bisect_right(self.times, b)
        own = b - a - sum(self.costs[lo:hi])
        if not scaled:
            return own
        lo = bisect.bisect_left(self.times, a - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, b + PROBE_WINDOW_S)
        window = self.costs[lo:hi] or [self.costs[min(lo, len(self.costs) - 1)]]
        limit = 1.5 * statistics.median(window)
        kept = [c for c in window if c <= limit]
        return own * sum(CALIBRATION_REF_S / c for c in kept) / len(kept)


def summarize(wl, passes, setups, probe: SpeedProbe, scaled: bool) -> dict:
    """End-to-end metrics from the recorded intervals."""
    rates, latencies = [], []
    for work_span, graphs, graph_spans in passes:
        work = probe.duration(work_span, scaled)
        rates.append(graphs / work)
        if wl.per_graph_latency:
            latencies += [probe.duration(span, scaled) for span in graph_spans]
        else:
            # Generation emits every class at the end of a pass, so the
            # per-graph latency is the pass time per class emitted.
            latencies.append(work / graphs)
    return {
        "graphs_per_s": statistics.median(rates),
        "graph_p50_ms": 1000 * statistics.median(latencies),
        "graph_p90_ms": 1000 * quantile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(probe.duration(s, scaled) for s in setups),
    }


def measure(wl, seed: int, seconds: float, expected: dict) -> tuple[dict, Tally, dict]:
    tally = Tally()
    setups, passes, pass_wall = [], [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(setup_pass(wl, seed)[0])
        begin = perf_counter()
        while True:
            gc.collect()
            t = perf_counter()
            setup, lib, inputs = setup_pass(wl, seed)
            setups.append(setup)
            if not passes:
                check_input_file(wl, lib, inputs, expected, tally)
            result = tally.run_pass(wl, lib, inputs, expected, seed)
            if result is None:
                break
            passes.append((result.work, len(result.graphs), result.latencies))
            pass_wall.append(perf_counter() - t)
            del lib, inputs, result
            if perf_counter() - begin + statistics.median(pass_wall) > seconds:
                break
    if not passes:
        return {}, tally, {}
    metrics = summarize(wl, passes, setups, probe, scaled=True)
    raw = summarize(wl, passes, setups, probe, scaled=False)
    info = {
        "passes": len(passes),
        "latency_samples": sum(len(p[2]) for p in passes) or len(passes),
        "setups": len(setups),
        "probe_samples": len(probe.costs),
        "probe_unit_ms_median": 1000 * statistics.median(probe.costs),
        "unscaled": {k: round(v, 6) for k, v in raw.items()},
    }
    return metrics, tally, info


def install_tracer(lib) -> Tracer:
    tracer = Tracer(PACKAGE)
    for module, layer in LAYERS.items():
        for fn in layer["functions"]:
            tracer.wrap(module, fn, on_result=RESULT_HOOKS.get((module, fn)),
                        yields_counter=YIELD_COUNTERS.get((module, fn)))
    return tracer


def layer_metrics(tracer: Tracer) -> dict:
    stats = tracer.aggregate()
    counters = tracer.counters
    metrics = {}
    for name, entry in stats.items():
        for stat, value in entry.items():
            metrics[f"{name}.{stat}"] = value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["harness.orbit_rejected"] = counters["harness.orbit_rejected"]
    metrics["harness.quotient_rejected"] = counters["harness.quotient_rejected"]
    metrics["harness.dedup_ratio"] = ratio(
        counters["harness.classes"], stats["multigraph.canonical_form"]["calls"])
    metrics["connectivity.subsets_visited"] = counters["connectivity.subsets_visited"]
    metrics["connectivity.cuts_returned"] = counters["connectivity.cuts_returned"]
    metrics["matching.pms_enumerated"] = counters["matching.pms_enumerated"]
    metrics["brick_brace.tight_hit_ratio"] = ratio(
        counters["brick_brace.tight_hits"], stats["brick_brace._is_tight_unchecked"]["calls"])
    return metrics


def trace(wl, seed: int, expected: dict, spans_dir: str | None) -> tuple[dict, Tally, dict]:
    """One untraced and one traced pass over the same work. Input loading
    is inside both timed regions, so ``formats.parse`` shows in the trace;
    the import is in neither. The two pass times are scaled by the speed
    probe, so their difference is the tracing overhead and not a swing in
    host speed; span times are left unscaled."""
    tally = Tally()
    spans = []
    tracer = None
    with SpeedProbe() as probe:
        for traced in (False, True):
            gc.collect()
            lib = fresh_import()
            if traced:
                tracer = install_tracer(lib)
            t = perf_counter()
            inputs = wl.setup(lib, seed)
            result = tally.run_pass(wl, lib, inputs, expected, seed)
            spans.append((t, perf_counter()))
            if traced:
                tracer.remove()
            if result is None:
                return {}, tally, {}
            if not traced:
                check_input_file(wl, lib, inputs, expected, tally)
    metrics = layer_metrics(tracer)
    untraced, traced = (probe.duration(span) for span in spans)
    metrics["trace.untraced_s"], metrics["trace.traced_s"] = untraced, traced
    metrics["trace.overhead_s"] = traced - untraced
    traced_wall = spans[1][1] - spans[1][0]
    shares = {}
    for module, layer in LAYERS.items():
        own = sum(metrics[f"{module}.{fn}.self_s"] for fn in layer["functions"])
        shares[module] = round(own / traced_wall, 4)
    shares["untraced code"] = round(1 - sum(shares.values()), 4)
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write_spans(os.path.join(spans_dir, f"{wl.name}-seed{seed}.jsonl"))
    return metrics, tally, {"spans": len(tracer.span_start), "self_share": shares}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    loaded = os.path.dirname(os.path.abspath(fresh_import().__file__))
    if loaded != os.path.join(SRC, PACKAGE):
        print(f"imported {PACKAGE} from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    mode = "smoke" if args.smoke else "full"
    wl = WORKLOADS[mode][args.workload]
    expected = load_expected(mode)
    if args.trace:
        metrics, tally, info = trace(wl, args.seed, expected, args.spans)
        names = per_layer_metric_names()
    else:
        metrics, tally, info = measure(wl, args.seed, args.seconds, expected)
        names = list(END_TO_END_UNITS)
    if not metrics:
        print(f"{args.workload}: no pass completed", file=sys.stderr)
        return 1
    correct = tally.failed == 0
    info["error_rate"] = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# {args.workload} {mode} seed={args.seed} trace={args.trace} " + json.dumps(info))
    for name in names:
        print(f"{name:<48} {metrics[name]:>14.6g} {unit_of(name)}")
    print(f"{'error_rate':<48} {info['error_rate']:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} graphs)")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in names},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so every one starts cold."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS["full"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.spans:
            cmd += ["--spans", args.spans]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS["full"], "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: n = 8 catalog, five order-10 graphs")
    parser.add_argument("--spans", metavar="DIR",
                        help="with --trace 1, write every span as JSONL into DIR")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
