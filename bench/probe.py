"""Set-up probe, run in a fresh interpreter by bench/run.py.

    python3 bench/probe.py <src dir> <expression> <re> <im>

Imports zetazeros from <src dir>, parses the expression and evaluates it once,
which also builds the lazily constructed constant tables.  Prints the import
time and the parse-plus-first-value time as one JSON object.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import zetazeros  # noqa: E402

t1 = time.perf_counter()
value = zetazeros.eval_expr(zetazeros.parse_expr(sys.argv[2]),
                            complex(float(sys.argv[3]), float(sys.argv[4])))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_eval_s": t2 - t1, "value": [value.re, value.im]}))
