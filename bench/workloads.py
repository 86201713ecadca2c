"""The four benchmark workloads: inputs from a seed, one pass through the
public API, and the checks applied to every output.

Scan workloads (localize, density, family-scan) are lists of named
operations; a pass runs each once.  The default seed reproduces the inputs of
the acceptance tests c9-c12 exactly.  Any other seed raises the upper edge of
every scan window by a seeded offset in [0.1, 0.3): the lower edges stay at
t = 1e-3, where the contour passes next to the pole at s = 1 and most of the
subdivision work happens, so the amount of work stays comparable between
seeds while every contour and every evaluation point moves.

point-eval draws fresh, never repeated points for each atom at three heights
and sends them straight to eval_expr, bypassing the zero engine.
"""

from __future__ import annotations

import numpy as np

import zetazeros.expr as X
import zetazeros.zeros as Z

DEFAULT_SEED = 0
T_FLOOR = 1e-3
SCAN_EXPR = "zeta(s)^2-zeta(2*s)"
WITNESSES = (                       # acceptance test c10
    ("10a", "symmat(3, Ln, +1, +1)", 1.55, 1.95),
    ("10b", "sphere(2)", 0.76, 0.99),
    ("10c", "ezd(2)", 0.55, 0.95),
    ("10d", "barnes(2, 1/3)", 1.55, 1.95),
)
WITNESS_WINDOW = 25.0
CRIT_EXPR = "xi(s+1/2)-xi(s-1/2)"   # acceptance test c11
CRIT_TOL = 1e-6
ZERO_TOL = 1e-9         # |z - z_ref| allowed against the recorded reference
BOX = 1e-5              # half-width of the box that re-counts one zero
# Range of the seeded shift of window tops.  Work grows with the window and
# jumps where a subdivision decision flips; within this range every workload's
# evaluation count stays within a few per cent from seed to seed.
OFFSET = (0.1, 0.3)

# Full and tiny (self-test) input sizes.
SIZES = {
    "full": {"localize_top": 100.0, "density_T": (100.0, 200.0, 400.0),
             "witness_top": 150.0, "crit_top": 50.0},
    "tiny": {"localize_top": 25.0, "density_T": (25.0, 50.0),
             "witness_top": 22.0, "crit_top": 16.0},
}


def top_offset(seed: int) -> float:
    """Seeded shift of every scan window's upper edge; 0 at the default seed."""
    if seed == DEFAULT_SEED:
        return 0.0
    return float(np.random.default_rng([seed, 7]).uniform(*OFFSET))


def _rows(records) -> list:
    return [[r.location.re, r.location.im, r.winding_mult] for r in records]


def _box(z: complex, half: float = BOX):
    return Z.Rectangle(z.real - half, z.real + half, z.imag - half, z.imag + half)


def _same_zeros(got: list, ref: list) -> bool:
    return len(got) == len(ref) and all(
        g[2] == r[2] and abs(complex(g[0], g[1]) - complex(r[0], r[1])) <= ZERO_TOL
        for g, r in zip(got, ref)
    )


def _recount(text: str, rows: list, rect) -> list[str]:
    """Re-count every reported zero and the rectangle's total by winding."""
    e = X.parse_expr(text)
    problems = []
    for re_, im, mult in rows:
        w = Z.winding_number(e, _box(complex(re_, im)))
        if w != mult:
            problems.append(f"{text}: box winding {w} != mult {mult} at {re_:.9g}+{im:.9g}i")
    total = Z.winding_number(e, rect)
    if total != sum(r[2] for r in rows):
        problems.append(f"{text}: rectangle winding {total} != {sum(r[2] for r in rows)} zeros")
    return problems


class ScanWorkload:
    """A list of named operations; subclasses define the ops and their checks."""

    name = ""

    def __init__(self, seed: int, size: str = "full"):
        self.size = SIZES[size]
        self.offset = top_offset(seed)

    def ops(self) -> list:
        raise NotImplementedError

    def verify(self, op: str, out) -> list[str]:
        """Independent checks of one output, used at non-default seeds."""
        raise NotImplementedError

    def compare(self, op: str, out, ref) -> list[str]:
        """Checks of one output against the recorded default-seed reference."""
        return [] if out == ref else [f"{op}: {out} != reference {ref}"]


class Localize(ScanWorkload):
    name = "localize"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.rect = (0.55, 2.0, T_FLOOR, self.size["localize_top"] + self.offset)

    def _localize(self):
        res = Z.localize_zeros(X.parse_expr(SCAN_EXPR), Z.Rectangle(*self.rect))
        return {"zeros": _rows(res.records), "unresolved": len(res.unresolved)}

    def ops(self):
        return [("localize", self._localize)]

    def verify(self, op, out):
        return _recount(SCAN_EXPR, out["zeros"], Z.Rectangle(*self.rect))

    def compare(self, op, out, ref):
        if _same_zeros(out["zeros"], ref["zeros"]):
            return []
        return [f"localize: zeros {out['zeros']} != reference {ref['zeros']}"]


class Density(ScanWorkload):
    name = "density"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.T = tuple(t + self.offset for t in self.size["density_T"])

    def _density(self):
        scan = Z.density_scan(X.parse_expr(SCAN_EXPR), 0.55, self.T, t_floor=T_FLOOR)
        return {"counts": list(scan.counts), "unresolved": 0 if scan.complete else 1}

    def ops(self):
        return [("density", self._density)]

    def verify(self, op, out):
        # Count each band (T_{i-1}, T_i] with one winding around it; the
        # density scan itself tiles the same region in strips of height 25.
        e = X.parse_expr(SCAN_EXPR)
        acc, cuts, counts = 0, (T_FLOOR,) + self.T, []
        for lo, hi in zip(cuts, cuts[1:]):
            acc += Z.winding_number(e, Z.Rectangle(0.55, 2.0, lo, hi))
            counts.append(acc)
        if counts != out["counts"]:
            return [f"density: band windings give {counts}, scan gave {out['counts']}"]
        return []


class FamilyScan(ScanWorkload):
    name = "family-scan"

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.witness_top = self.size["witness_top"] + self.offset
        self.crit_top = self.size["crit_top"] + self.offset

    def _witness(self, text, slo, shi):
        """First refined zero scanning upward in windows, as acceptance test c10."""
        e = X.parse_expr(text)
        t, unresolved, extra = T_FLOOR, 0, self.offset
        while t < self.witness_top:
            top = min(t + WITNESS_WINDOW + extra, self.witness_top)
            extra = 0.0
            res = Z.localize_zeros(e, Z.Rectangle(slo, shi, t, top))
            unresolved += len(res.unresolved)
            if res.records:
                r = res.records[0]
                return {"witness": [r.location.re, r.location.im, r.winding_mult],
                        "residual_ok": r.residual < 1e-8, "unresolved": unresolved}
            t = top
        return {"witness": None, "residual_ok": True, "unresolved": unresolved}

    def _critical(self):
        rep = Z.critical_line_check(X.parse_expr(CRIT_EXPR), self.crit_top, CRIT_TOL,
                                    t_floor=T_FLOOR)
        return {"zeros": _rows(rep.records), "max_offline": rep.max_offline,
                "passed": rep.passed, "unresolved": len(rep.unresolved)}

    def ops(self):
        ops = [(key, lambda t=text, a=slo, b=shi: self._witness(t, a, b))
               for key, text, slo, shi in WITNESSES]
        return ops + [("critical", self._critical)]

    def _witness_spec(self, op):
        return next(w for w in WITNESSES if w[0] == op)

    def verify(self, op, out):
        if op == "critical":
            problems = _recount(CRIT_EXPR, out["zeros"],
                                Z.Rectangle(0.1, 0.9, T_FLOOR, self.crit_top))
            if not out["passed"]:
                problems.append(f"critical: max offline {out['max_offline']:.3g} >= {CRIT_TOL}")
            return problems
        _, text, slo, shi = self._witness_spec(op)
        e = X.parse_expr(text)
        w = out["witness"]
        if w is None:
            n = Z.winding_number(e, Z.Rectangle(slo, shi, T_FLOOR, self.witness_top))
            return [] if n == 0 else [f"{op}: no witness reported but {n} zeros present"]
        z = complex(w[0], w[1])
        problems = [] if out["residual_ok"] else [f"{op}: witness residual >= 1e-8"]
        if Z.winding_number(e, _box(z)) != w[2]:
            problems.append(f"{op}: box winding disagrees with mult {w[2]} at {z:.9g}")
        below = Z.winding_number(e, Z.Rectangle(slo, shi, T_FLOOR, z.imag - BOX))
        if below != 0:
            problems.append(f"{op}: {below} zeros below the reported first witness")
        return problems

    def compare(self, op, out, ref):
        if op == "critical":
            ok = _same_zeros(out["zeros"], ref["zeros"]) and out["passed"] == ref["passed"]
        else:
            got, want = out["witness"], ref["witness"]
            ok = (got is None) == (want is None) and (
                got is None or _same_zeros([got], [want])) and out["residual_ok"]
        return [] if ok else [f"{op}: {out} != reference {ref}"]


SCANS = {w.name: w for w in (Localize, Density, FamilyScan)}


# ---------------------------------------------------------------------------
# point-eval
# ---------------------------------------------------------------------------

# (atom kind, expression) for each of the seven atoms; hurwitz takes four shifts.
ATOMS = (
    ("zeta", "zeta(s)"),
    ("hurwitz", "hurwitz(s,1)"),
    ("hurwitz", "hurwitz(s,1/2)"),
    ("hurwitz", "hurwitz(s,1/3)"),
    ("hurwitz", "hurwitz(s,1/10)"),
    ("xi", "xi(s)"),
    ("ezd", "ezd(2)"),
    ("barnes", "barnes(2, 1/3)"),
    ("sphere", "sphere(2)"),
    ("symmat", "symmat(3, Ln, +1, +1)"),
)
HEIGHTS = (("t0", 0.5, 2.0), ("t100", 99.0, 101.0), ("t400", 399.0, 401.0))
SIGMA = (-0.5, 3.0)
# Points per cell and pass: a pass is 30 cells x 10 points.  Every point is
# drawn fresh, so no point repeats within a run.
POINTS_PER_CELL = {"full": 10, "tiny": 2}


def point_cells():
    """(kind, expression, height label, t_lo, t_hi) for each of the 30 cells."""
    return [(kind, text, h, lo, hi) for kind, text in ATOMS for h, lo, hi in HEIGHTS]


class PointStream:
    """Seeded generator of fresh evaluation points, one batch per pass."""

    def __init__(self, seed: int, size: str = "full"):
        self.rng = np.random.default_rng([seed, 11])
        self.per_cell = POINTS_PER_CELL[size]
        self.cells = point_cells()

    def next_pass(self) -> list:
        """Per cell, an array of fresh complex points."""
        out = []
        for _, _, _, lo, hi in self.cells:
            sig = self.rng.uniform(*SIGMA, self.per_cell)
            t = self.rng.uniform(lo, hi, self.per_cell)
            out.append(sig + 1j * t)
        return out


# The expression whose first value set-up time covers, per workload.
FIRST_EXPR = {"localize": SCAN_EXPR, "density": SCAN_EXPR,
              "family-scan": WITNESSES[0][1], "point-eval": ATOMS[0][1]}
