"""Self-test of the benchmark itself, on tiny inputs.

    python3 bench/selftest.py

1. Runs every workload at tiny size with --trace 0 and --trace 1 and checks
   that the last line is a result object whose metrics are exactly those that
   BENCHMARK.json names for that mode, each with a value and the declared
   unit, and that the run reports no failures.
2. Runs the localize and density workloads against a perturbed reference (one
   zero moved, one count changed) and checks that each perturbation raises
   the failed-operation count, which is the numerator of the fail ratio.
"""

import copy
import json
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            tag = f"{w['name']} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()
                   if isinstance(v.get("value"), (int, float))}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{[k for k in want if k in got and got[k] != want[k]]}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            print(f"selftest: {tag}: {len(got)} metrics, failed={result['failed']}", flush=True)
    return problems


def check_perturbation() -> list[str]:
    run._load_library()
    import workloads as W

    refs = json.loads((BENCH / "reference.json").read_text())["tiny"]
    moved = copy.deepcopy(refs["localize"])
    moved["outputs"]["localize"]["zeros"][0][1] += 1e-6
    changed = copy.deepcopy(refs["density"])
    changed["outputs"]["density"]["counts"][-1] += 1
    problems = []
    for name, perturbed in (("localize", moved), ("density", changed)):
        args = Namespace(workload=name, seed=W.DEFAULT_SEED, seconds=0.0, trace=0, size="tiny")
        base = run.run_scan(W.SCANS[name](W.DEFAULT_SEED, "tiny"), args, refs[name])
        bad = run.run_scan(W.SCANS[name](W.DEFAULT_SEED, "tiny"), args, perturbed)
        ratios = [r["failed"] / r["attempted"] for r in (base, bad)]
        print(f"selftest: {name}: fail ratio {ratios[0]:.3f} -> {ratios[1]:.3f} "
              "under a perturbed reference", flush=True)
        if not (base["failed"] == 0 and ratios[1] > ratios[0]):
            problems.append(f"{name}: perturbed reference did not raise the fail ratio")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_metrics(spec) + check_perturbation()
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
