"""Layered benchmark for zetazeros.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see bench/README.md for why each exists):

    localize     c12 rectangle: subdivision, Newton refinement, 13 zeros
    density      c9 scan to T = 400: tile windings only
    family-scan  c10 witness searches plus the c11 critical-line check
    point-eval   fresh seeded points for each atom, straight to eval_expr

A run builds nothing: it imports the library from ``src/`` of the checkout it
sits in.  It measures set-up time in fresh interpreters, runs one untimed
pass that warms lazy caches and counts evaluations, then times passes until
``--seconds`` have elapsed (at least two).  With ``--trace 1`` half of the time goes to untraced passes and half to passes
traced at every module boundary (bench/tracing.py), and per-layer metrics are
printed instead of end-to-end ones.  Every output is checked: against the
recorded reference at the default seed, by independent winding counts at
other seeds, and against mpmath for evaluated points.  The last line of
standard output is the result object; the full record, with the host, goes
to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("localize", "density", "family-scan", "point-eval")
SETUP_PROBES = 5
SETUP_POINT = complex(2.0, 1.0)
MIN_PASSES = 2
P99_BLOCK = 1200        # samples per p99 block: 12 beyond the percentile; 4 point-eval passes
ORACLE_PER_CELL = {"full": 8, "tiny": 1}      # point-eval points checked per cell
REL_TOL = 1e-8          # a value further than this from mpmath is wrong

sys.path.insert(0, str(BENCH))


def _load_library():
    if not (SRC / "zetazeros" / "__init__.py").is_file():
        raise FileNotFoundError(f"no zetazeros sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zetazeros
    if Path(zetazeros.__file__).resolve().parent != SRC / "zetazeros":
        raise ImportError(f"zetazeros imported from {zetazeros.__file__}, not {SRC}")
    return zetazeros


def _quantiles(xs) -> dict:
    xs = sorted(xs)
    if len(xs) == 1:
        return {"min": xs[0], "q1": xs[0], "median": xs[0], "q3": xs[0], "max": xs[0]}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"min": xs[0], "q1": q1, "median": statistics.median(xs), "q3": q3,
            "max": xs[-1]}


def _latency(seconds) -> dict:
    """p50 over all samples; p99 as the median over consecutive blocks of
    P99_BLOCK samples, so that one burst of host noise moves one block only."""
    us = 1e6 * np.asarray(seconds)
    n_blocks = max(1, us.size // P99_BLOCK)
    blocks = np.array_split(us[:max(P99_BLOCK, n_blocks * P99_BLOCK)], n_blocks)
    return {"p50": float(np.percentile(us, 50)),
            "p99": float(np.median([np.percentile(b, 99) for b in blocks])),
            "samples": int(us.size), "p99_blocks": n_blocks}


def _peak_rss_mb() -> float:
    """Peak resident memory so far; read right after the timed passes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()), "python": platform.python_version(),
            "machine": platform.machine()}


def _src_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "zetazeros").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Set-up time and timed passes
# ---------------------------------------------------------------------------

def measure_setup(text: str) -> dict:
    """Fresh interpreter through import, table build, parse and first value."""
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), text,
           repr(SETUP_POINT.real), repr(SETUP_POINT.imag)]
    totals, imports, firsts = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        totals.append(time.perf_counter() - t0)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(child["import_s"])
        firsts.append(child["first_eval_s"])
    return {"setup_s": statistics.median(totals), "import_s": statistics.median(imports),
            "first_eval_s": statistics.median(firsts), "runs_s": totals}


def timed_passes(run_pass, budget_s: float, min_passes: int, tracer=None) -> dict:
    """Run passes until budget_s has elapsed; wall and process time per pass."""
    walls, cpus, outs, traces = [], [], [], []
    t_stop = time.perf_counter() + budget_s
    while len(walls) < min_passes or time.perf_counter() < t_stop:
        c0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            out = run_pass()
        else:
            with tracer.root():
                out = run_pass()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        outs.append(out)
        if tracer is not None:
            traces.append(tracer.end_pass())
    return {"walls": walls, "cpus": cpus, "outs": outs, "traces": traces}


def _pass_record(timed: dict) -> dict:
    return {"passes": len(timed["walls"]), "wall_s": _quantiles(timed["walls"]),
            "cpu_over_wall": sum(timed["cpus"]) / sum(timed["walls"])}


def _median_trace(traces):
    """The traced pass with the (lower) median wall time; its self times sum to its wall."""
    order = sorted(range(len(traces)), key=lambda i: traces[i]["wall_s"])
    return traces[order[(len(order) - 1) // 2]]


def _trace_record(args, tracer, timed: dict, untraced: dict) -> dict:
    """Traced-pass summary; writes every span to the results directory."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.write(path)
    return {"passes": len(timed["walls"]), "wall_s": _quantiles(timed["walls"]),
            "overhead_s": (_median_trace(timed["traces"])["wall_s"]
                           - statistics.median(untraced["walls"])),
            "missing_bindings": sorted(tracer.missing), "spans_file": path.name}


def layer_metrics(p: dict, counters: dict, unresolved: int) -> dict:
    from tracing import layer_figures

    lay = layer_figures(p)
    evals = p["calls"]["expr.eval_expr"]
    m = {}
    for name in ("zeta", "families"):
        calls, self_s = lay[name]["calls"], lay[name]["self_s"]
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
        m[f"{name}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    m["expr.calls"] = evals
    m["expr.self_s"] = lay["expr"]["self_s"]
    m["expr.pole_guard_s"] = p["self_s"]["expr.pole_set"]
    m["expr.us_per_eval"] = 1e6 * lay["expr"]["self_s"] / evals if evals else 0.0
    m["expr.errors"] = p["errors"]["expr.eval_expr"]
    m["zeros.self_s"] = lay["zeros"]["self_s"]
    m["zeros.unresolved"] = unresolved
    m["zeros.eval_calls"] = counters["eval_calls"]
    m["zeros.eval_distinct"] = counters["eval_distinct"]
    m["zeros.repeat_ratio"] = counters["repeat_ratio"]
    m["trace.wall_s"] = p["wall_s"]
    m["trace.coverage"] = sum(v["self_s"] for v in lay.values()) / p["wall_s"]
    return m


def _oracle_check(points):
    """(bound misses, points checked, points further than REL_TOL from mpmath)."""
    from oracle import reference

    miss = wrong = 0
    for text, s, v in points:
        ref = reference(text, s)
        err = abs(v.z - ref)
        miss += err > v.abs_err
        wrong += not err <= REL_TOL * abs(ref)
    return miss, len(points), wrong


# ---------------------------------------------------------------------------
# Scan workloads
# ---------------------------------------------------------------------------

def run_scan(wl, args, ref) -> dict:
    from tracing import EvalCounter, Tracer, counting_evals

    ops = wl.ops()

    def one_pass():
        out = {}
        for key, fn in ops:
            try:
                out[key] = fn()
            except Exception as exc:        # reported as a failed operation
                out[key] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    counter = EvalCounter()
    with counting_evals(counter):
        first = one_pass()
    counters = counter.snapshot()

    budget = args.seconds / 2 if args.trace else args.seconds
    timed = timed_passes(one_pass, budget, MIN_PASSES)
    rec = _pass_record(timed)
    rec["peak_rss_mb"] = _peak_rss_mb()
    rec["counters"] = counters
    outs = [first] + timed["outs"]

    if args.trace:
        tracer, traced_counter = Tracer(), EvalCounter()
        with tracer.installed(traced_counter):
            traced = timed_passes(one_pass, budget, MIN_PASSES, tracer=tracer)
        # A deterministic engine requests the same points in every pass.
        rec["counters_repeat_traced"] = (
            traced_counter.calls == len(traced["walls"]) * counters["eval_calls"]
            and len(traced_counter.points) == counters["eval_distinct"])
        rec["traced"] = _trace_record(args, tracer, traced, timed)
        outs += traced["outs"]

    # Correctness: every pass must reproduce the first output, which must
    # match the reference (default seed) or independent recounts (others).
    problems = {}
    for key, out in first.items():
        if "error" in out:
            problems[key] = [out["error"]]
        elif out.get("unresolved"):
            problems[key] = [f"{key}: {out['unresolved']} unresolved cells"]
        elif ref is not None:
            problems[key] = wl.compare(key, out, ref["outputs"][key])
        else:
            problems[key] = wl.verify(key, out)
    failed = sum(bool(problems[key]) or out[key] != first[key]
                 for out in outs for key in out)
    if args.trace and not rec["counters_repeat_traced"]:
        failed += 1
        problems["counters"] = ["traced passes requested other points than the counting pass"]

    rec.update({
        "outputs": first, "problems": {k: v for k, v in problems.items() if v},
        "oracle": {"points": 0, "bound_misses": 0, "wrong": 0},
        "attempted": len(outs) * len(ops), "failed": failed,
    })
    if args.trace:
        unresolved = sum(o.get("unresolved", 0) for o in first.values())
        rec["layers"] = layer_metrics(_median_trace(traced["traces"]), counters, unresolved)
    return rec


# ---------------------------------------------------------------------------
# point-eval
# ---------------------------------------------------------------------------

def run_point_eval(args) -> dict:
    import zetazeros.expr as X
    from tracing import Tracer
    from workloads import PointStream

    stream = PointStream(args.seed, args.size)
    cells = stream.cells
    exprs = [X.parse_expr(text) for _, text, _, _, _ in cells]
    errors = [0]

    def one_pass(keep: list | None = None) -> array:
        """Evaluate one batch of fresh points; seconds per point in cell
        order, NaN where the evaluation raised."""
        lat = array("d")
        for i, pts in enumerate(stream.next_pass()):
            e = exprs[i]
            for s in pts:
                s = complex(s)
                t0 = time.perf_counter()
                try:
                    v = X.eval_expr(e, s)
                except Exception:           # reported as a failed operation
                    errors[0] += 1
                    lat.append(math.nan)
                    continue
                lat.append(time.perf_counter() - t0)
                if keep is not None:
                    keep.append((i, s, v))
        return lat

    per_pass = len(cells) * stream.per_cell
    one_pass()                              # warm lazy tables and caches
    first_values: list = []
    pending = [first_values]                # the first timed pass keeps its values

    budget = args.seconds / 2 if args.trace else args.seconds
    timed = timed_passes(lambda: one_pass(pending.pop() if pending else None),
                         budget, MIN_PASSES)
    rec = _pass_record(timed)
    rec["peak_rss_mb"] = _peak_rss_mb()
    rec["counters"] = {"eval_calls": 0, "eval_distinct": 0, "repeat_ratio": 0.0}
    rec["points_per_pass"] = per_pass
    lat = np.array(timed["outs"])           # passes x points, in cell order
    rec["eval_us"] = _latency(lat[~np.isnan(lat)])
    columns: dict = {}
    for i, (kind, _, h, _, _) in enumerate(cells):
        columns.setdefault(f"atom.{kind}.{h}.us_p50", []).append(
            lat[:, i * stream.per_cell:(i + 1) * stream.per_cell])
    rec["atoms"] = {k: 1e6 * float(np.nanmedian(np.concatenate(v, axis=1)))
                    for k, v in columns.items()}
    attempted = (1 + len(timed["walls"])) * per_pass

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = timed_passes(one_pass, budget, MIN_PASSES, tracer=tracer)
        rec["traced"] = _trace_record(args, tracer, traced, timed)
        attempted += len(traced["walls"]) * per_pass

    # Oracle: the first ORACLE_PER_CELL points of every cell in the first timed pass.
    taken: dict = {}
    sample = []
    for i, s, v in first_values:
        if taken.get(i, 0) < ORACLE_PER_CELL[args.size]:
            taken[i] = taken.get(i, 0) + 1
            sample.append((cells[i][1], s, v))
    miss, checked, wrong = _oracle_check(sample)
    rec.update({"oracle": {"points": checked, "bound_misses": miss, "wrong": wrong},
                "attempted": attempted, "failed": errors[0] + wrong, "problems": {}})
    if args.trace:
        rec["layers"] = layer_metrics(_median_trace(traced["traces"]), rec["counters"], 0)
    return rec


# ---------------------------------------------------------------------------
# Metrics and output
# ---------------------------------------------------------------------------

def end_to_end(rec, setup) -> dict:
    return {"setup_s": setup["setup_s"], "wall_s": rec["wall_s"]["median"],
            "peak_rss_mb": rec["peak_rss_mb"]}


def per_layer(rec, setup) -> dict:
    from workloads import ATOMS, HEIGHTS

    m = dict(rec["layers"])
    for kind in dict.fromkeys(k for k, _ in ATOMS):
        for h, _, _ in HEIGHTS:
            key = f"atom.{kind}.{h}.us_p50"
            m[key] = rec.get("atoms", {}).get(key, 0.0)
    o = rec["oracle"]
    latency = rec.get("eval_us", {"p50": 0.0, "p99": 0.0})
    m.update({"eval.us_p50": latency["p50"], "eval.us_p99": latency["p99"],
              "setup.import_s": setup["import_s"], "setup.first_eval_s": setup["first_eval_s"],
              "trace.untraced_wall_s": rec["wall_s"]["median"],
              "trace.overhead_s": rec["traced"]["overhead_s"],
              "oracle.points": o["points"],
              "oracle.bound_miss_ratio": o["bound_misses"] / o["points"] if o["points"] else 0.0})
    return m


def with_units(values: dict, section: str) -> dict:
    """Attach the unit BENCHMARK.json declares; a metric it lacks is an error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def _counter_repeat(args, counters) -> str:
    """Compare the evaluation counters with an earlier run of the same code and inputs."""
    if args.workload == "point-eval":
        return "not applicable"
    path = RESULTS / "counters.json"
    key = f"{args.workload}|seed={args.seed}|{args.size}|src={_src_hash()}"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if key in seen:
        return "match" if seen[key] == counters else "mismatch"
    seen[key] = counters
    RESULTS.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)
    return "first run"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own self-test")
    args = ap.parse_args(argv)

    try:
        _load_library()
    except (ImportError, FileNotFoundError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads as W

    host = _host()
    setup = measure_setup(W.FIRST_EXPR[args.workload])

    ref = None
    if args.workload == "point-eval":
        rec = run_point_eval(args)
    else:
        if args.seed == W.DEFAULT_SEED:
            refs = json.loads((BENCH / "reference.json").read_text())
            ref = refs[args.size][args.workload]
        rec = run_scan(W.SCANS[args.workload](args.seed, args.size), args, ref)

    import mpmath
    host.update({"loadavg_end": list(os.getloadavg()), "numpy": np.__version__,
                 "mpmath": mpmath.__version__})
    rec["counters_repeat"] = _counter_repeat(args, rec["counters"])
    if rec["counters_repeat"] == "mismatch":
        rec["failed"] += 1
        rec["problems"]["counters"] = ["evaluation counts differ from an earlier run "
                                       "of the same sources and inputs"]
    rec.update({"workload": args.workload, "seed": args.seed, "size": args.size,
                "seconds": args.seconds, "trace": args.trace, "host": host,
                "setup": setup, "reference": "recorded" if ref else "recount"})
    if args.trace:
        metrics = with_units(per_layer(rec, setup), "per_layer")
    else:
        metrics = with_units(end_to_end(rec, setup), "end_to_end")
    rec["metrics"] = metrics
    result = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
              "failed": rec["failed"], "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(rec, indent=1, default=str))
    w = rec["wall_s"]
    print(f"bench: {args.workload} seed={args.seed} passes={rec['passes']} "
          f"wall_s median={w['median']:.4g} [min {w['min']:.4g}, max {w['max']:.4g}] "
          f"cpu/wall={rec['cpu_over_wall']:.3f} load={host['loadavg'][0]:.2f}->"
          f"{host['loadavg_end'][0]:.2f} nproc={host['nproc']}")
    print(f"bench: counters {rec['counters']} repeat={rec['counters_repeat']}")
    if rec["problems"]:
        print(f"bench: problems {rec['problems']}")
    print(f"bench: full record in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
