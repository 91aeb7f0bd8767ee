"""Benchmark worker: runs one workload's operations in this interpreter.

run.py starts this file once per measurement (and a few more times, with
--setup-only, to time start-up).  The worker imports frobgraph from the
checkout's src/ directory, builds the operation list, prints "ready", then
runs passes over the list until the time budget is spent and prints one JSON
line with the per-pass results.

Every operation starts cold: before it, outside the timed region, every
functools cache of frobgraph's modules (catalog.construct, the cyclotomic and
small-field caches) is emptied and the garbage this frees is collected, as a
fresh `frobgraph` process would start.  So every group, table and subgroup
class is rebuilt, and CLI operations then call frobgraph.cli.main.

A traced pass repeats the same work by calling the public functions layer by
layer (lower layers first, so each span holds only its own layer's work) and
records spans in memory; they are written out when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import pkgutil
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS_FILE = BENCH_DIR / "workloads.json"


class CheckFailed(Exception):
    """An operation's answer differs from the expected one."""


def import_frobgraph():
    """Import frobgraph from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "frobgraph" / "__init__.py").is_file():
        raise SystemExit(f"no frobgraph sources under {src}")
    sys.path.insert(0, str(src))
    import frobgraph

    if Path(frobgraph.__file__).resolve().parent != (src / "frobgraph").resolve():
        raise SystemExit(f"imported frobgraph from {frobgraph.__file__}, not {src}")
    return frobgraph


def load_workloads():
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def spans_file(workload, seed):
    """Where a traced run writes its spans."""
    return ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"


def library_caches(fg):
    """Every functools cache defined at module level in frobgraph."""
    caches = []
    for info in pkgutil.iter_modules(fg.__path__):
        if info.name == "__main__":  # running it would run the CLI
            continue
        module = importlib.import_module(f"{fg.__name__}.{info.name}")
        caches += [
            obj for obj in vars(module).values()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__
        ]
    return caches


# ----------------------------------------------------------------------
# tracing


class NullTracer:
    """Tracer used by untraced passes: spans and counts cost one call."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    def count(self, name, n=1):
        pass

    def maximum(self, name, value):
        pass


class Tracer(NullTracer):
    """Spans (name, start, end, parent, op) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)


def self_times(spans):
    """Per span, its duration minus the time its child spans cover.

    Spans come from context managers in one thread, so children never overlap
    each other and lie inside their parent.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_totals(spans):
    """Self time summed per span name."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


# ----------------------------------------------------------------------
# answers: every operation reduces its output to a dict compared with the
# expected one recorded in workloads.json


def scan_answer(payload):
    return {
        "order": payload["order"],
        "n": payload["n"],
        "g": payload["g"],
        "m": payload["m"],
        "maximal_rich_orders": payload["maximal_rich_orders"],
        "classes": [
            [c["order"], c["length"], c["rich"], c["diameter_three"], c["depth"]]
            for c in payload["classes"]
        ],
    }


def analyze_answer(payload):
    return {
        "group_order": payload["group_order"],
        "analyses": [
            [
                a["subgroup_order"],
                a["rich"],
                a["condition_bii"],
                a["diameter_three"],
                a["components"],
                a["diameter"],
                a["depth"]["minimal_depth"],
                a["trivial_intersection"],
                a["transitive_normalizer"],
            ]
            for a in payload["analyses"]
        ],
    }


def table_answer(payload):
    degrees = [int(row[0]) for row in payload["rows"]]
    return {
        "order": payload["order"],
        "k": len(degrees),
        "sum_d2": sum(d * d for d in degrees),
    }


CLI_ANSWERS = {"scan": scan_answer, "analyze": analyze_answer, "table": table_answer}


def check_answer(expect, answer):
    for key, want in expect.items():
        if answer.get(key) != want:
            raise CheckFailed(f"{key}: got {answer.get(key)!r}, expected {want!r}")


def require(condition, what):
    if not condition:
        raise CheckFailed(what)


# ----------------------------------------------------------------------
# operations


class Runner:
    """Runs operations against one imported frobgraph, traced or not."""

    def __init__(self, fg):
        from frobgraph import cli, frobenius, subgroups

        self.fg = fg
        self.cli = cli
        self.caches = library_caches(fg)
        self.bii_shortcuts = frobenius.bii_shortcuts
        self.double_coset_reps = frobenius.double_coset_reps
        self.prime_order_subgroup_classes = subgroups.prime_order_subgroup_classes

    def cold_start(self):
        """Empty the library's caches, as a new process has them, and prove it."""
        for cache in self.caches:
            cache.cache_clear()
        warm = [
            f"{cache.__module__}.{cache.__qualname__} holds {cache.cache_info().currsize}"
            for cache in self.caches if cache.cache_info().currsize
        ]
        if warm:
            raise CheckFailed(f"caches not empty at operation start: {'; '.join(warm)}")

    # -- untraced: the CLI itself ------------------------------------------

    def run_cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(argv))
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        return CLI_ANSWERS[argv[0]](json.loads(buf.getvalue()))

    # -- traced: the CLI's calls, one layer per span ------------------------

    def _group_layers(self, G, tr):
        fg = self.fg
        with tr.span("group.classes_s"):
            fg.conjugacy_classes(G)
        with tr.span("chartab.g_table_s"):
            tG = fg.character_table(G)
        tr.count("chartab.tables")
        tr.maximum("chartab.max_exponent", tG.exponent)

    def _subgroup_table(self, H, tr):
        fg = self.fg
        with tr.span("group.closure_s"):
            HG = H.as_group()
        with tr.span("group.classes_s"):
            fg.conjugacy_classes(HG)
        with tr.span("chartab.h_table_s"):
            tH = fg.character_table(HG)
        tr.count("chartab.tables")
        tr.maximum("chartab.max_exponent", tH.exponent)

    def _matrix(self, G, H, tr):
        self._subgroup_table(H, tr)
        with tr.span("frobenius.matrix_s"):
            M = self.fg.frobenius_matrix(G, H)
        tr.count("frobenius.pairs")
        return M

    def _enumerate(self, G, tr):
        with tr.span("subgroups.enumerate_s"):
            classes = self.fg.enumerate_subgroup_classes(G)
        tr.count("subgroups.classes", len(classes))
        return classes

    def _construct(self, spec_text, tr, cli_key):
        fg = self.fg
        spec = fg.parse_group_spec(spec_text)
        with tr.span("group.closure_s"):
            # the CLI passes its --cap (None); that is a different cache key
            G = fg.construct(spec, None) if cli_key else fg.construct(spec)
        self._group_layers(G, tr)
        return G

    def traced_cli(self, argv, tr):
        command, group = argv[0], argv[argv.index("--group") + 1]
        fg = self.fg
        G = self._construct(group, tr, cli_key=True)
        if command == "table":
            t = fg.character_table(G)
            return table_answer(t.to_json_dict())
        classes = self._enumerate(G, tr)
        if command == "scan":
            for cls in classes:
                H = cls.rep
                if H.is_whole():
                    continue
                self._matrix(G, H, tr)
                with tr.span("frobenius.predicates_s"):
                    fg.is_rich(G, H)
                    fg.is_diameter_three(G, H)
                with tr.span("depth.minimal_depth_s"):
                    fg.minimal_depth(G, H)
            with tr.span("subgroups.classify_s"):
                report = fg.classify_subgroups(G)
            return scan_answer(report.to_json_dict())
        if command == "analyze" and "--prime-order" in argv:
            with tr.span("subgroups.prime_classes_s"):
                chosen = self.prime_order_subgroup_classes(G)
            rows = []
            for cls in chosen:
                H = cls.rep
                M = self._matrix(G, H, tr)
                with tr.span("graph.build_s"):
                    graph = fg.frobenius_graph(M)
                with tr.span("frobenius.predicates_s"):
                    rich = fg.is_rich(G, H)
                    bii = fg.satisfies_bii(G, H)
                    d3 = fg.is_diameter_three(G, H)
                with tr.span("frobenius.bii_shortcuts_s"):
                    short = self.bii_shortcuts(G, H)
                with tr.span("depth.minimal_depth_s"):
                    depth = fg.minimal_depth(G, H)
                diameter = graph.diameter if graph.diameter != float("inf") else "infinite"
                rows.append([
                    H.order, rich.ok, bii.ok, d3.ok, graph.n_components, diameter,
                    depth.minimal_depth, short.trivial_intersection,
                    short.transitive_normalizer,
                ])
            return {"group_order": G.order, "analyses": rows}
        raise ValueError(f"no traced form for {argv}")

    # -- the criterion-7 oracles, traced or not ----------------------------

    def crosscheck(self, spec_text, tr):
        """Every oracle equality on every proper class; returns the pair count."""
        fg = self.fg
        G = self._construct(spec_text, tr, cli_key=False)
        pairs = 0
        for cls in self._enumerate(G, tr):
            H = cls.rep
            if H.is_whole():
                continue
            M = self._matrix(G, H, tr)
            with tr.span("frobenius.predicates_s"):
                S = fg.induced_gram(M)
                d3 = fg.is_diameter_three(G, H)
            with tr.span("graph.build_s"):
                graph = fg.frobenius_graph(M)
            require(d3.ok == (graph.diameter == 3), "diameter-3 verdict != graph diameter 3")
            with tr.span("group.core_s"):
                K = fg.core(G, H)
            self._subgroup_table(K, tr)
            with tr.span("graph.irr_orbits_s"):
                n_orbits = fg.irr_action_orbits(G, K)[0]
            require(n_orbits == graph.n_components, "Irr(core) orbits != components")
            require((graph.n_components == 1) == (K.order == 1), "connected != core-free")
            k_h = M.n_rows
            with tr.span("frobenius.mackey_s"):
                for i in range(k_h):
                    for j in range(i, k_h):
                        if fg.mackey_inner_product(G, H, i, j) != S.entries[i][j]:
                            raise CheckFailed(f"Mackey sum != S[{i}][{j}]")
            tr.count("frobenius.mackey_products", k_h * (k_h + 1) // 2)
            with tr.span("frobenius.double_cosets_s"):
                n_double = len(self.double_coset_reps(G, H))
            require(S.entries[0][0] == n_double, "S[0][0] != double coset count")
            with tr.span("group.coset_action_s"):
                act = fg.coset_action(G, H)
            require(S.entries[0][0] == _h_orbits_on_cosets(G, H, act),
                    "S[0][0] != H-orbits on cosets")
            _check_permutation_character(G, M, act)
            pairs += 1
        return {"order": G.order, "pairs": pairs}

    # -- one operation -------------------------------------------------------

    def run(self, op, tr=None):
        """Run one operation; raises CheckFailed or the library's error."""
        traced = tr is not None
        tr = tr or NullTracer()
        with tr.span("op"):
            if "cli" in op:
                argv = op["cli"]
                answer = self.traced_cli(argv, tr) if traced else self.run_cli(argv)
            else:
                answer = self.crosscheck(op["crosscheck"], tr)
            check_answer(op["expect"], answer)


def _h_orbits_on_cosets(G, H, act):
    """Orbits of H on the cosets of H, from the coset action's tables."""
    seen = set()
    orbits = 0
    for c in range(len(act.coset_reps)):
        if c in seen:
            continue
        orbits += 1
        stack = [c]
        seen.add(c)
        while stack:
            cur = stack.pop()
            for h in H.generator_indices:
                nxt = act.coset_of[G.mult(h, act.coset_reps[cur])]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return orbits


def _check_permutation_character(G, M, act):
    """Reciprocity for the trivial row, from fixed points of the coset action."""
    from frobgraph.cyclo import cyc_sum

    tG = M.table_g
    fixed = [
        sum(1 for a, b in enumerate(act.image_of(rep).images) if a == b)
        for rep in tG.classes.rep_indices
    ]
    conj = tG.conj_values()
    sizes = tG.classes.sizes
    for c in range(tG.k):
        total = cyc_sum(fixed[x] * conj[c][x] * sizes[x] for x in range(tG.k))
        require(total.to_rational_integer() == G.order * M.entries[0][c],
                f"permutation character multiplicity of column {c}")


# ----------------------------------------------------------------------
# machine speed
#
# On a shared host, other tenants change how fast this process runs by up to
# 2x, over spans from 0.1 s to minutes, and CPU time slows with wall time.
# A fixed chunk of pure-Python work, timed from SIGALRM throughout each pass,
# measures that speed while the operations run; pass times divided by the
# mean chunk time (unit "ref") compare across runs where raw seconds do not.
# The chunk is timed in CPU time: time the host steals is rare within one
# 0.5 ms chunk but huge when it hits one, so a wall-timed mean swings with a
# few samples.  Stolen time during the pass itself is measured exactly and
# stays in wall_ref.  The mean, not the median: the pass includes the
# host's slow spells, and so must its divisor.  The sampler's own work (two
# chunks, about 1 ms, every 0.1 s) is part of the pass time.

_CYCLE = (1, 2, 3, 4, 5, 6, 7, 8, 0)


def reference_chunk():
    """Fixed work of the library's kind: compose tuples, index them in a dict."""
    seen = {}
    p = (8, 7, 6, 5, 4, 3, 2, 1, 0)
    for _ in range(400):
        p = tuple(_CYCLE[x] for x in p)
        seen[p] = len(seen)
    return seen


class SpeedSampler:
    """Times reference_chunk (CPU time) on entry and then every INTERVAL seconds.

    Each sample runs the chunk twice and times the second run, so the caches
    the interrupted operation filled do not count in the machine's speed.
    The timed run has the garbage collector off: a collection there would
    walk the library's heap and make the speed depend on the program.
    """

    INTERVAL = 0.1

    def __init__(self):
        self.samples = []

    def sample(self, *_signal_args):
        reference_chunk()
        enabled = gc.isenabled()
        gc.disable()
        t = time.process_time()
        reference_chunk()
        self.samples.append(time.process_time() - t)
        if enabled:
            gc.enable()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ----------------------------------------------------------------------
# passes


def run_pass(runner, ops, failures, tracer=None):
    """One pass over (op_id, op) pairs.  Each operation is timed alone, after
    a cold start and a garbage collection that are not timed."""
    wall = cpu = 0.0
    failed = 0
    with SpeedSampler() as speed:
        for op_id, op in ops:
            if tracer is not None:
                tracer.op_id = op_id
            try:
                runner.cold_start()
                gc.collect()
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    runner.run(op, tracer)
                finally:
                    wall += time.perf_counter() - w0
                    cpu += time.process_time() - c0
            except Exception as exc:  # one failed operation is counted, not fatal
                failed += 1
                failures.append(f"{op_label(op)}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, CheckFailed):
                    traceback.print_exc(file=sys.stderr)
    chunk = statistics.mean(speed.samples)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "chunk_cpu_s": chunk,
        "wall_ref": wall / chunk,
        "cpu_ref": cpu / chunk,
        "attempted": len(ops),
        "failed": failed,
    }


def op_label(op):
    return " ".join(op["cli"]) if "cli" in op else f"crosscheck {op['crosscheck']}"


def measure(runner, ops, seconds, trace):
    """Passes until the next one would end past the budget (at least one).

    Untraced runs repeat plain passes.  Traced runs alternate an untraced and
    a traced pass, so the tracing overhead is measured within one process.
    Returns the result for run.py and the spans of every traced pass.
    """
    passes, traced, failures = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(runner, ops, failures))
        if trace:
            tr = Tracer()
            result = run_pass(runner, ops, failures, tracer=tr)
            result["spans"] = tr.spans
            result["counts"] = tr.counts
            traced.append(result)
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            break
    result = {
        "passes": passes,
        "failures": failures[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["trace"] = summarize_trace(passes, traced)
    return result, [t["spans"] for t in traced]


def summarize_trace(passes, traced):
    """Per-layer self-time medians, exact counts and the tracing overhead."""
    totals = [layer_totals(t["spans"]) for t in traced]
    names = sorted({n for t in totals for n in t})
    layers = {n: statistics.median(t.get(n, 0.0) for t in totals) for n in names}
    traced_total = statistics.median(
        sum(s["end"] - s["start"] for s in t["spans"] if s["parent"] is None)
        for t in traced
    )
    counts = traced[0]["counts"]
    return {
        "attempted": sum(t["attempted"] for t in traced),
        "failed": sum(t["failed"] for t in traced),
        "layers": layers,
        "counts": counts,
        "counts_stable": all(t["counts"] == counts for t in traced),
        "traced_total_s": traced_total,
        "overhead_s": traced_total - statistics.median(p["wall_s"] for p in passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    fg = import_frobgraph()
    workloads = load_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}")
    # the seed only shuffles the order; op ids index the workload's list
    ops = list(enumerate(workloads[args.workload]["ops"]))
    random.Random(args.seed).shuffle(ops)
    runner = Runner(fg)
    print("ready", flush=True)
    if args.setup_only:
        # the machine's speed just after start-up, for run.py to rescale it
        speed = SpeedSampler()
        for _ in range(3):
            speed.sample()
        print(statistics.median(speed.samples), flush=True)
        return 0

    result, spans = measure(runner, ops, args.seconds, args.trace)
    if args.trace:
        out = spans_file(args.workload, args.seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        labels = [op_label(op) for op in workloads[args.workload]["ops"]]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"ops": labels, "passes": spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
