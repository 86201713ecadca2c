"""Record the default-seed reference outputs in bench/reference.json.

    python3 bench/make_reference.py

Runs every scan workload once at the default seed, in full and tiny size,
and keeps an output only after the same independent winding recounts used at
other seeds accept it.  The full-size outputs are those of the acceptance
tests c9-c12: 13 zeros of zeta(s)^2-zeta(2s) in the c12 rectangle, density
counts (13, 34, 86), witnesses for symmat, sphere and ezd and none for
barnes, and 9 zeros of xi(s+1/2)-xi(s-1/2) on the critical line to T = 50.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from tracing import EvalCounter, counting_evals  # noqa: E402


def main() -> int:
    refs = {}
    for size in ("full", "tiny"):
        refs[size] = {}
        for name, cls in W.SCANS.items():
            wl = cls(W.DEFAULT_SEED, size)
            counter = EvalCounter()
            outputs = {}
            with counting_evals(counter):
                for key, fn in wl.ops():
                    outputs[key] = fn()
            for key, out in outputs.items():
                problems = wl.verify(key, out)
                if problems or out.get("unresolved"):
                    print(f"{size} {name} {key}: rejected: {problems or out}")
                    return 1
            refs[size][name] = {"outputs": outputs, "counters": counter.snapshot()}
            print(size, name, json.dumps(outputs), counter.snapshot(), flush=True)
    (BENCH / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
