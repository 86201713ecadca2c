"""Zero location and counting in axis-aligned rectangles.

Winding numbers are certified, segment by segment (Ying & Katz, J. Comput.
Phys. 77, 1988).  Let G = F * prod (s - p)^k over the expression's pole
candidates p, with the orders k of expr.majorant (Mul adds them, Pow
multiplies them, Add takes the largest): G has no poles.  A contour segment
[z0, z1] of length L is accepted when the distance from 0 to the chord
[G(z0), G(z1)] exceeds L^2 M / (4 rho^2) + err(z0) + err(z1), where M bounds
|G| on the segment's box grown by rho = _RHO (the closed-form majorant of
expr.majorant) and err = abs_err * |prod (z - p)^k|.  Cauchy's estimate keeps
G that close to the chord, so G stays in an open half-plane along the
segment and its principal increment is the true one, on the segment and on
any piece of it.  F's increment is G's less each pole candidate's, k times
the exact angle the segment subtends from p.  The closed-loop total is
2*pi*(zeros - poles) counted with multiplicity.  This is a proof only while
abs_err bounds the evaluation error, which the kernel estimates rather than
proves (see the ROADMAP item on abs_err as a proven bound).

Inside a cell whose contour is certified, |G| is at most three times its
largest sample (the cell's hull, by the maximum principle).  That gives a second,
local majorant for the cuts of its splits, with rho the segment's distance
from the cell's boundary: near a multiple zero the closed-form majorant
alone would need segments shorter than rounding allows.

Every edge gets uniform samples _SAMPLES_PER_UNIT apart (at least its two
corners), evaluated in one batch; the segments that fail the test are
bisected breadth-first, one eval_batch per depth over every failing segment
of the decision.  A cell's certified contour (samples, values, errors and
increments) goes with it: zero localization cuts a cell of winding w into
w + 1 strips across its longer side, samples and certifies only the cuts,
and hands each strip the parent's nodes on its sides, cut at the strip's
ends, until each cell holds winding 1.  Strip windings must conserve the
parent's; only a fault can break that, so a failure leaves the cell
unresolved.  A density scan hands each tile's certified top edge to the
tile above as its bottom edge.

Each winding-1 cell is polished with Newton's method, whose slope at each
step is the secant through its last two iterates, so that a step costs one
evaluation.  Newton starts at the argument-principle estimate of the cell's
one zero, z_start - (1/2 pi i) * contour integral of log F dz, taken by the
trapezoid rule over the certified contour, with the phase continued along
its increments; an estimate outside the cell is projected onto it, and the
centre is taken only when the increments do not make one turn.

Contours are numpy arrays from sampling to the Newton start point.
eval_batch takes at most _BATCH_POINTS points a call.  Every evaluation a
cell makes counts against its evaluation budget, and a contour of more
points than that budget is refused before its points are made; a density
scan is refused before its first tile when its tiles' contours together
hold more points than that budget.

A contour meets a zero when the error bounds cannot tell its values from
0, and the certifier says so by one of two rules, each raising
NearZeroOnContour: a node (a sample or a bisection midpoint) whose |F| is
at most its abs_err, the first in polyline order, since no segment from it
can pass; or a segment still failing at _MAX_DEPTH, named by its end of
smaller |F|, since at that length (2^-40 of a sample spacing) a failing
chord lies, as far as the bounds tell, within its end errors of 0.  Either
hit is retried by one rule, _jittered: attempt k of at most
_JITTER_RETRIES + 1 pushes the scanned rectangle or the density scan
outward by k * _JITTER, or moves a split's cuts by k jitters, and the last
attempt's hit is raised.  DepthExceeded means only an exhausted evaluation
budget.

The engine's settings are the module constants below (_SAMPLES_PER_UNIT,
_RHO, _MAX_DEPTH, _MIN_CELL, _JITTER and the budgets); a caller sets only
ContourConfig.zero_tol, Newton's residual tolerance.  Scans run in the
calling thread.  The ``threads`` keyword of the scan functions is accepted
for compatibility and has no effect.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .config import ComplexValue, EvalConfig, DEFAULT_CONFIG
from .errors import (
    ContourError,
    DepthExceeded,
    NearZeroOnContour,
    PoleProximity,
    ZetaError,
)
from .expr import eval_batch, eval_expr, majorant, pole_set

_SAMPLES_PER_UNIT = 8.0      # uniform contour samples per unit of edge length
_RHO = 0.4                   # growth of a segment's box for its majorant
_MAX_DEPTH = 40              # segment bisection depth
_MIN_CELL = 1e-9             # a cell this small is reported, not split
_JITTER = 1e-7               # near-zero retry step
_TILE_HEIGHT = 25.0          # density-scan strip height
_NEWTON_MAX_STEPS = 60
_JITTER_RETRIES = 8
_CELL_EVAL_BUDGET = 4_000_000
_BATCH_POINTS = 2048         # most points per eval_batch call
T_FLOOR = 1e-3               # bottom edge that scans start at, above the real poles


@dataclass(frozen=True)
class Rectangle:
    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not (self.sigma_lo < self.sigma_hi and self.t_lo < self.t_hi):
            raise ValueError(f"degenerate rectangle {self}")
        if not all(map(math.isfinite, self.as_list())):
            raise ValueError(f"non-finite rectangle {self}")

    @property
    def width(self) -> float:
        return self.sigma_hi - self.sigma_lo

    @property
    def height(self) -> float:
        return self.t_hi - self.t_lo

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.sigma_lo + self.sigma_hi),
                       0.5 * (self.t_lo + self.t_hi))

    def corners(self) -> list[complex]:
        return [
            complex(self.sigma_lo, self.t_lo),
            complex(self.sigma_hi, self.t_lo),
            complex(self.sigma_hi, self.t_hi),
            complex(self.sigma_lo, self.t_hi),
        ]

    def contains(self, z: complex) -> bool:
        return (self.sigma_lo <= z.real <= self.sigma_hi
                and self.t_lo <= z.imag <= self.t_hi)

    def strictly_contains(self, z: complex) -> bool:
        return (self.sigma_lo < z.real < self.sigma_hi
                and self.t_lo < z.imag < self.t_hi)

    def expand(self, d: float) -> "Rectangle":
        return Rectangle(self.sigma_lo - d, self.sigma_hi + d,
                         self.t_lo - d, self.t_hi + d)

    def boundary_distance(self, z: complex) -> float:
        dx = max(self.sigma_lo - z.real, 0.0, z.real - self.sigma_hi)
        dy = max(self.t_lo - z.imag, 0.0, z.imag - self.t_hi)
        if dx > 0.0 or dy > 0.0:
            return math.hypot(dx, dy)
        return min(z.real - self.sigma_lo, self.sigma_hi - z.real,
                   z.imag - self.t_lo, self.t_hi - z.imag)

    def as_list(self) -> list[float]:
        return [self.sigma_lo, self.sigma_hi, self.t_lo, self.t_hi]


@dataclass(frozen=True)
class ContourConfig:
    """The residual tolerance of Newton's method (CLI --zero-tol); the
    engine's other settings are module constants."""

    zero_tol: float = 1e-8

    def __post_init__(self):
        if not self.zero_tol > 0:
            raise ValueError("zero_tol must be > 0")


DEFAULT_CONTOUR = ContourConfig()


@dataclass(frozen=True)
class ZeroRecord:
    location: ComplexValue
    residual: float
    winding_mult: int
    rect: Rectangle
    refine_steps: int


@dataclass(frozen=True)
class UnresolvedCell:
    rect: Rectangle
    winding: int
    reason: str


@dataclass(frozen=True)
class LocalizeResult:
    records: tuple[ZeroRecord, ...]
    unresolved: tuple[UnresolvedCell, ...]

    @property
    def complete(self) -> bool:
        return not self.unresolved


@dataclass(frozen=True)
class DensityScan:
    sigma0: float
    sigma_cap: float
    t_floor: float
    T_values: tuple[float, ...]
    counts: tuple[int, ...]
    fit_slope: float
    complete: bool


@dataclass(frozen=True)
class CriticalLineReport:
    records: tuple[ZeroRecord, ...]
    unresolved: tuple[UnresolvedCell, ...]
    max_offline: float
    tol: float
    passed: bool


# ---------------------------------------------------------------------------
# Certified phase tracking
# ---------------------------------------------------------------------------

def _edge_samples(length: float) -> int:
    """The number of uniform segments of an edge: its points sit at the
    fractions k/n of it, k = 0, ..., n."""
    return max(1, math.ceil(length * _SAMPLES_PER_UNIT))


def _contour_size(width: float, height: float) -> int:
    """The samples of a width x height contour, the closing repeat included."""
    return 1 + sum(_edge_samples(d) for d in (width, height) * 2)


def _edge(lo: complex, hi: complex) -> np.ndarray:
    """The uniform points of the edge from lo to hi, both ends included and
    exact: lo + (hi - lo) * k/n, measured from lo whichever way a walk runs
    the edge, so that cells sharing an edge share its points bit for bit."""
    n = _edge_samples(abs(hi - lo))
    return np.concatenate(([lo], lo + (hi - lo) * (np.arange(1, n) / n), [hi]))


def _on_contour(rect: Rectangle, pts: np.ndarray, *arrays) -> list:
    """The points of pts in the closed rect, all on its boundary, in contour
    order from the lower-left corner and closed, with the same entries of
    each of arrays: ordered by their distance along the boundary."""
    x, y, w, h = pts.real, pts.imag, rect.width, rect.height
    arc = np.select([y == rect.t_lo, x == rect.sigma_hi, y == rect.t_hi],
                    [x - rect.sigma_lo, w + (y - rect.t_lo), (w + h) + (rect.sigma_hi - x)],
                    (w + h + w) + (rect.t_hi - y))
    inside = np.flatnonzero((x >= rect.sigma_lo) & (x <= rect.sigma_hi)
                            & (y >= rect.t_lo) & (y <= rect.t_hi))
    order = inside[np.argsort(arc[inside], kind="stable")]
    return [a[np.append(order, order[0])] for a in (pts, *arrays)]


class _Walker:
    """Contour sampler and winding certifier for one decision; counts evaluations.

    ``fn`` comes from expression_fn: fn(z) evaluates one point (Newton),
    fn.batch(zs) an array of points, as (values, abs_errs); fn.poles maps the
    expression's pole candidates p to orders k (none when fn has no such
    attribute) and fn.bound is the majorant of G = F * prod (s - p)^k, an
    entire function (expr.majorant).  Every evaluation counts against one
    budget.
    """

    def __init__(self, fn):
        self.fn, self.evals = fn, 0
        self.poles = getattr(fn, "poles", {})

    def _count(self, n: int) -> None:
        self.evals += n
        if self.evals > _CELL_EVAL_BUDGET:
            raise DepthExceeded("per-cell evaluation budget exhausted")

    def __call__(self, z: complex) -> complex:
        self._count(1)
        return self.fn(z)

    def sample(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F and its abs_err at every point of the array pts, in one batch."""
        self._count(len(pts))
        return tuple(np.asarray(x) for x in self.fn.batch(pts))

    def boundary_points(self, rect: Rectangle) -> np.ndarray:
        """Counter-clockwise contour samples from the lower-left corner, closed
        by repeating it: each edge's _edge points, corners exact.  A contour
        of more points than the evaluation budget is refused before any point
        is made."""
        if _contour_size(rect.width, rect.height) > _CELL_EVAL_BUDGET:
            raise DepthExceeded("per-cell evaluation budget exhausted")
        c = rect.corners()
        return np.concatenate([_edge(c[0], c[1])[:-1], _edge(c[1], c[2])[:-1],
                               _edge(c[3], c[2])[:0:-1], _edge(c[0], c[3])[:0:-1], c[:1]])

    def _regular(self, z):
        """prod (z - p)^k over the pole candidates: G = F times this."""
        return math.prod(((z - p) ** k for p, k in self.poles.items()), start=1.0)

    def _certified(self, z0, z1, v0, v1, e0, e1, hulls=()) -> np.ndarray:
        """The segment test, over arrays of segments [z0, z1] with F and
        abs_err at their ends: G's values a and b and errors ea and eb there,
        and M bounding |G| on the segment's box grown by rho = _RHO.  Cauchy's
        estimate |G''| <= 2M/rho^2 keeps G within L^2 M / (4 rho^2) of the
        chord from a to b, so a segment whose value chord keeps a larger
        distance than that plus ea + eb from 0 keeps G in an open half-plane:
        its principal increment is the true one.  Each (rect, H) of
        ``hulls`` (a cell holding the segments and its hull) gives the same
        estimate with M = H and rho the segment's distance from rect's
        boundary; the smallest is taken."""
        q0, q1 = self._regular(z0), self._regular(z1)
        a, u = v0 * q0, v1 * q1 - v0 * q0
        tau = np.clip(-(a * u.conjugate()).real / np.maximum(np.abs(u) ** 2, 1e-300), 0.0, 1.0)
        gap = np.abs(a + tau * u) - e0 * np.abs(q0) - e1 * np.abs(q1)
        sl, sh = np.minimum(z0.real, z1.real), np.maximum(z0.real, z1.real)
        tl, th = np.minimum(z0.imag, z1.imag), np.maximum(z0.imag, z1.imag)
        m = self.fn.bound(sl - _RHO, sh + _RHO, tl - _RHO, th + _RHO) / _RHO**2
        for rect, h in hulls:
            eta = np.minimum(np.minimum(sl - rect.sigma_lo, rect.sigma_hi - sh),
                             np.minimum(tl - rect.t_lo, rect.t_hi - th))
            m = np.minimum(m, np.where(eta > 0, h / np.where(eta > 0, eta, 1.0) ** 2, np.inf))
        return gap > 0.25 * np.abs(z1 - z0) ** 2 * m

    def certify(self, pts, vals, errs, todo=None, hulls=()):
        """The polyline pts, with F and abs_err at each point, refined until
        every segment flagged in the boolean array todo (every segment for
        None) passes the test (_certified, with ``hulls``): the segments that
        fail are bisected breadth-first, their midpoints evaluated in one
        batch per depth, and their halves tested in turn.  The contour meets
        a zero, and NearZeroOnContour is raised, at the first node in
        polyline order (of pts, then of each depth's midpoints) whose |F| is
        at most its abs_err, and at a segment still failing at _MAX_DEPTH,
        named by its end of smaller |F|.  Returns the refined (pts, vals,
        errs)."""
        todo = np.ones(len(pts) - 1, bool) if todo is None else todo
        zm, vm, em = pts, vals, errs        # the nodes to check: all, then the midpoints
        for depth in range(_MAX_DEPTH + 1):
            for j in np.flatnonzero(np.abs(vm) <= em)[:1]:
                raise _near_zero(zm[j], vm[j])
            i = np.flatnonzero(todo)
            ends = (x[j] for x in (pts, vals, errs) for j in (i, i + 1))
            b = i[~self._certified(*ends, hulls)]
            if not b.size:
                return pts, vals, errs
            if depth == _MAX_DEPTH:
                j = b[0] + (abs(vals[b[0] + 1]) < abs(vals[b[0]]))
                raise _near_zero(pts[j], vals[j])
            zm = 0.5 * (pts[b] + pts[b + 1])
            vm, em = self.sample(zm)
            todo = np.zeros(len(pts) + len(b) - 1, bool)
            halves = b + np.arange(len(b))          # where each left half starts
            todo[halves] = todo[halves + 1] = True
            pts, vals, errs = (np.insert(x, b + 1, y)
                               for x, y in ((pts, zm), (vals, vm), (errs, em)))

    def increments(self, pts, vals) -> np.ndarray:
        """Phase increments of F along certified contour samples: G's
        principal increment less each pole candidate's, k times the exact
        angle its segment subtends from p; they sum to 2*pi times the
        winding number."""
        z = np.asarray(pts)
        g = np.asarray(vals) * self._regular(z)
        return np.angle(g[1:] / g[:-1]) - sum(k * np.angle((z[1:] - p) / (z[:-1] - p))
                                              for p, k in self.poles.items())

    def wind(self, pts, vals, errs, todo=None):
        """The winding of F around the closed contour samples and the
        certified contour (pts, vals, errs, dphi) it came from; todo as for
        certify."""
        pts, vals, errs = self.certify(pts, vals, errs, todo)
        dphi = self.increments(pts, vals)
        return _turns(dphi), (pts, vals, errs, dphi)


def _near_zero(z, v) -> NearZeroOnContour:
    """The error naming the contour point z, where F = v."""
    return NearZeroOnContour(f"|F|={abs(v):.3g} at {z:.8g}", point=complex(z))


def _turns(dphi: np.ndarray) -> int:
    """The winding number whose phase increments are dphi."""
    return round(float(dphi.sum()) / (2.0 * math.pi))


def expression_fn(e, cfg: EvalConfig):
    """z -> F(z) through eval_expr; ``fn.batch`` maps a point array to its
    values and abs_errs through eval_batch, _BATCH_POINTS points a call, which
    bounds the arrays a large contour allocates (eval_batch's values do not
    depend on how a list is cut); ``fn.poles`` and ``fn.bound`` are the pole
    orders and majorant of expr.majorant."""
    def fn(z: complex) -> complex:
        return eval_expr(e, z, cfg).z

    fn.batch = lambda zs: tuple(np.concatenate(x) for x in zip(*(
        eval_batch(e, zs[i:i + _BATCH_POINTS], cfg) for i in range(0, len(zs), _BATCH_POINTS))))
    fn.poles, fn.bound = majorant(e)
    return fn


def _certified_winding(walker: _Walker, rect: Rectangle, bottom=((), (), ())):
    """The winding of F around rect and the certified contour it came from:
    rect's uniform samples, evaluated in one batch (the closing corner once),
    then refined by _Walker.certify.  ``bottom``, the certified (pts, vals,
    errs) of rect's bottom edge from left to right, when given, replaces
    that edge's samples, and its segments are not tested again."""
    pts = walker.boundary_points(rect)
    fresh = pts[_edge_samples(rect.width) + 1 if len(bottom[0]) else 0:-1]
    body = [np.concatenate((h, x)) for h, x in zip(bottom, (fresh, *walker.sample(fresh)))]
    todo = np.arange(len(body[0])) >= len(bottom[0]) - 1
    return walker.wind(*(np.append(x, x[0]) for x in body), todo)


def winding_number(e, rect: Rectangle, cfg: EvalConfig = DEFAULT_CONFIG) -> int:
    """(#zeros - #poles) inside rect, counted with multiplicity.

    Poles strictly inside are permitted (they count -1 each per order); a pole
    candidate within jitter of the boundary is rejected up front.
    """
    for cand in pole_set(e):
        if rect.boundary_distance(cand.location) < _JITTER:
            raise PoleProximity(
                f"pole candidate {cand.location:.6g} within jitter of the contour",
                location=cand.location, source=cand.source,
            )
    return _certified_winding(_Walker(expression_fn(e, cfg)), rect)[0]


# ---------------------------------------------------------------------------
# Zero localization
# ---------------------------------------------------------------------------

def _effective_jitter(rect: Rectangle) -> float:
    return min(_JITTER, min(rect.width, rect.height) / 100.0)


def _jittered(attempt):
    """attempt(k) for k = 0, 1, ..., _JITTER_RETRIES until one raises no
    NearZeroOnContour; the last attempt's hit is raised."""
    for k in range(_JITTER_RETRIES):
        with contextlib.suppress(NearZeroOnContour):
            return attempt(k)
    return attempt(_JITTER_RETRIES)


def _winding_with_expansion(fn, rect: Rectangle):
    """_certified_winding's (winding, contour) and the rectangle they were
    measured on: rect, pushed outward by k jitters on the k-th attempt."""
    jit = _effective_jitter(rect)

    def attempt(k):
        cur = rect.expand(jit * k) if k else rect
        return (*_certified_winding(_Walker(fn), cur), cur)
    return _jittered(attempt)


_SPLIT_FRAC = (math.sqrt(5.0) - 1.0) / 2.0   # avoids cuts along symmetry lines


def _split_cell(walker: _Walker, rect: Rectangle, w_par: int, contour, hulls=()):
    """Cut the cell into m = w_par + 1 strips across its longer side (t when
    the height is at least the width, else sigma), with deterministically
    jittered, asymmetric cuts.

    One zero per strip is usual, so most cells resolve after one split.  Cut
    j (1 <= j < m) sits at lo + L * (j - 1 + _SPLIT_FRAC) / m along the side
    [lo, lo + L], off the centre so that zeros on natural symmetry lines
    (e.g. Re = 1/2) stay strictly inside one strip.  Only the cuts are
    sampled, in one batch, and certified together, one batch per depth, with
    the ``hulls`` (rect, H) of the cell and of the cells it was cut from,
    which keep the cost of a cut near a multiple zero in check; each
    strip takes the parent's certified ``contour`` (pts, vals, errs, dphi) on
    its sides, cut at the strip's ends, since a piece of a certified segment
    is certified (_on_contour).  A cut that meets a zero (NearZeroOnContour)
    moves every cut by one more jitter (_jittered).  Strip windings must
    conserve w_par; with every segment certified only a fault can break
    that, so a failure is raised at once as ContourError, as are cuts that
    leave the cell.  Every
    evaluation counts against ``walker``'s budget.  Returns (strip, winding,
    (pts, vals, errs, dphi)) triples, bottom to top or left to right.
    """
    jit = max(_effective_jitter(rect), 1e-12 * max(rect.width, rect.height))
    across_t = rect.height >= rect.width
    lo, hi = (rect.t_lo, rect.t_hi) if across_t else (rect.sigma_lo, rect.sigma_hi)
    cuts = [lo + (hi - lo) * (j - 1 + _SPLIT_FRAC) / (w_par + 1) for j in range(1, w_par + 1)]
    pool = [x[:-1] for x in contour[:3]]       # the parent's nodes, the closing one once

    def attempt(k):
        ends = [lo, *(c + jit * k for c in cuts), hi]
        if not all(a < b for a, b in zip(ends, ends[1:])):
            raise ContourError("split point exhausted the cell")
        lines = [_edge(complex(rect.sigma_lo, c), complex(rect.sigma_hi, c)) if across_t
                 else _edge(complex(c, rect.t_lo), complex(c, rect.t_hi)) for c in ends[1:-1]]
        joins = np.cumsum([len(line) for line in lines])[:-1]
        pts = np.concatenate(lines)
        vals, errs = walker.sample(pts)
        todo = ~np.isin(np.arange(len(pts) - 1), joins - 1)     # not from one cut to the next
        done = walker.certify(pts, vals, errs, todo, hulls)
        nodes = [np.concatenate(x) for x in zip(pool, done)]
        measured = []
        for a, b in zip(ends, ends[1:]):
            strip = (Rectangle(rect.sigma_lo, rect.sigma_hi, a, b) if across_t
                     else Rectangle(a, b, rect.t_lo, rect.t_hi))
            p, v, e = _on_contour(strip, *nodes)
            dphi = walker.increments(p, v)
            measured.append((strip, _turns(dphi), (p, v, e, dphi)))
        windings = [w for _, w, _ in measured]
        if sum(windings) != w_par:
            raise ContourError(f"strip windings {windings} do not conserve parent {w_par}")
        return measured

    return _jittered(attempt)


def _newton_refine(walker: _Walker, rect: Rectangle, cc: ContourConfig, scale: float,
                   z: complex):
    """Newton from z, one evaluation per step.

    The slope at each step is the secant through the last two iterates; the
    first pair is z and z + h, with h = 1e-6 times the cell size.  So a
    refinement of k steps evaluates F k + 2 times: at z, at z + h, at each
    later iterate and at the result.  z is the cell's start point from
    _start_point.  Returns (zero, residual, steps), or None when the slope
    vanishes or is too flat (a step longer than twice the cell size), a
    step leaves the expanded cell, or the result is outside rect or has a
    residual above the tolerance scaled by the contour magnitude ``scale``.
    """
    size = max(rect.width, rect.height)
    tol_resid = cc.zero_tol * min(1.0, max(scale, 1e-300))
    try:
        z_prev, f_prev, z = z, walker(z), z + 1e-6 * size
        for steps in range(1, _NEWTON_MAX_STEPS + 1):
            fz = walker(z)
            dz = fz * (z - z_prev) / (fz - f_prev)
            if abs(dz) > 2.0 * size:        # slope too flat; bail out
                return None
            z_prev, f_prev, z = z, fz, z - dz
            if not rect.expand(size).contains(z):
                return None
            if abs(dz) <= 5e-16 * max(1.0, abs(z)):
                break
        resid = abs(walker(z))
    except (ZetaError, ZeroDivisionError):     # fz == f_prev: the slope vanishes
        return None
    if resid > max(tol_resid, 1e-13 * scale) or not rect.contains(z):
        return None
    return z, resid, steps


def _boundary_scale(vals: np.ndarray) -> float:
    """Median |F| over a closed contour's samples (the closing repeat left out).
    np.hypot, unlike np.abs, rounds as abs() of a Python complex does."""
    mags = np.hypot(vals[:-1].real, vals[:-1].imag)
    return float(np.partition(mags, len(mags) // 2)[len(mags) // 2])


def _start_point(rect: Rectangle, pts: np.ndarray, vals: np.ndarray,
                 dphi: np.ndarray) -> complex:
    """Argument-principle estimate of the one zero of F inside rect.

    Integrating the moment (1/2 pi i) * contour integral of z F'/F dz by parts
    gives the zero as z_start - (1/2 pi i) * contour integral of log F dz,
    with log F continued along the contour from z_start = pts[0] (Delves &
    Lyness, Math. Comp. 21, 1967).  The integral is the trapezoid rule over
    the closed certified contour samples, with log F = log|F| + i * (phase
    unwrapped from the certified increments ``dphi``), so it costs no
    evaluation.  An estimate outside rect is projected onto it; the centre
    is returned when the increments do not make one turn.
    """
    if _turns(dphi) != 1:
        return rect.center
    log_f = np.log(np.abs(vals)) + 1j * np.concatenate(([0.0], np.cumsum(dphi)))
    moment = complex(np.sum(0.5 * (log_f[1:] + log_f[:-1]) * np.diff(pts)))
    z0 = complex(pts[0]) - moment / (2j * math.pi)
    return complex(min(max(z0.real, rect.sigma_lo), rect.sigma_hi),
                   min(max(z0.imag, rect.t_lo), rect.t_hi))


def _resolve_cell(fn, rect: Rectangle, w: int, contour, cc: ContourConfig):
    """Fully resolve one pole-free cell of known winding.  Each cell comes
    with the certified (pts, vals, errs, dphi) its winding came from: rect
    with ``contour`` (from _certified_winding), a strip with the one its
    split handed it, and the hulls (cell, H) of the cells it was cut from."""
    records: list[ZeroRecord] = []
    unresolved: list[UnresolvedCell] = []
    stack = [(rect, w, contour, ())]
    while stack:
        cell, wc, contour, hulls = stack.pop()
        if wc == 0:
            continue
        if wc < 0:
            unresolved.append(UnresolvedCell(cell, wc, "negative winding in pole-free cell"))
            continue
        walker = _Walker(fn)    # the evaluation budget is per cell
        pts, vals, _, dphi = contour
        if wc == 1:
            hit = _newton_refine(walker, cell, cc, _boundary_scale(vals),
                                 _start_point(cell, pts, vals, dphi))
            if hit is not None:
                z, resid, steps = hit
                records.append(ZeroRecord(ComplexValue.of(z, 10.0 * abs(z) * 1e-16 + resid),
                                          resid, 1, cell, steps))
                continue
        if max(cell.width, cell.height) <= _MIN_CELL:
            records.append(ZeroRecord(ComplexValue.of(cell.center, max(cell.width, cell.height)),
                                      abs(walker(cell.center)), wc, cell, 0))
            continue
        # A certified segment keeps G closer to its chord than the chord is to
        # 0, so |G| there is below twice its larger end value; on a piece of
        # the parent's segment, cut at the strip's end C, below |G(C)| + 2
        # times the inner end's.  So |G| <= 3 max |G| over the contour's
        # samples, and inside the cell by the maximum principle.
        hulls = (*hulls, (cell, 3.0 * float(np.max(np.abs(vals * walker._regular(pts))))))
        try:
            stack += [(*strip, hulls) for strip in _split_cell(walker, cell, wc, contour, hulls)]
        except (NearZeroOnContour, ContourError, DepthExceeded) as exc:
            unresolved.append(UnresolvedCell(cell, wc, f"{type(exc).__name__}: {exc}"))
    return records, unresolved


def _assert_pole_free(e, rect: Rectangle):
    inside = [c for c in pole_set(e) if rect.strictly_contains(c.location)]
    if inside:
        raise PoleProximity(
            "rect contains pole candidates (pre-split required): "
            + ", ".join(f"{c.location:.6g} from {c.source}" for c in inside),
            location=inside[0].location, source=inside[0].source,
        )


def localize_zeros(e, rect: Rectangle, cc: ContourConfig = DEFAULT_CONTOUR,
                   cfg: EvalConfig = DEFAULT_CONFIG, threads: int = 1) -> LocalizeResult:
    """Locate every zero of the expression inside a pole-free rectangle.

    Records are sorted by (Im, Re); unresolved cells are surfaced rather than
    silently dropped.  ``threads`` is accepted for compatibility and has no
    effect: the scan runs in the calling thread.
    """
    _assert_pole_free(e, rect)
    fn = expression_fn(e, cfg)
    w_root, contour, root = _winding_with_expansion(fn, rect)
    records, unresolved = _resolve_cell(fn, root, w_root, contour, cc)
    records.sort(key=lambda r: (r.location.im, r.location.re, r.winding_mult))
    unresolved.sort(key=lambda u: (u.rect.t_lo, u.rect.sigma_lo))
    return LocalizeResult(tuple(records), tuple(unresolved))


# ---------------------------------------------------------------------------
# Density scans and the critical-line contrast check
# ---------------------------------------------------------------------------

def _fit_slope(ts, counts) -> float:
    pairs = [(t, c) for t, c in zip(ts, counts) if t > 0]
    if len(pairs) < 2:
        return pairs[0][1] / pairs[0][0] if pairs else 0.0
    tm = sum(t for t, _ in pairs) / len(pairs)
    cm = sum(c for _, c in pairs) / len(pairs)
    den = sum((t - tm) ** 2 for t, _ in pairs)
    return sum((t - tm) * (c - cm) for t, c in pairs) / den if den else 0.0


def _tile_count(span: float) -> int:
    """The number of density-scan tiles a T step of height span is cut into."""
    return max(1, math.ceil(span / _TILE_HEIGHT))


def density_scan(e, sigma0: float, T_values, cfg: EvalConfig = DEFAULT_CONFIG,
                 sigma_cap: float = 2.0, threads: int = 1,
                 t_floor: float = T_FLOOR) -> DensityScan:
    """Count zeros of the expression in (sigma0, sigma_cap) x (t_floor, T] per T.

    Every implemented atom has only real pole candidates, so a positive
    t_floor keeps all scan tiles pole-free; tiles are counted by winding
    alone.  Counts are non-decreasing by construction.  ``threads`` has no
    effect and is kept for compatibility.
    """
    if not sigma0 > 0.5:
        raise ValueError("density_scan requires sigma0 > 1/2")
    if not sigma_cap > sigma0:
        raise ValueError("sigma_cap must exceed sigma0")
    if not math.isfinite(sigma_cap):
        raise ValueError("sigma_cap must be finite")
    ts = [float(t) for t in T_values]
    if not all(map(math.isfinite, ts)) or sorted(ts) != ts:
        raise ValueError("T_values must be finite and non-decreasing")
    steps = list(dict.fromkeys(t for t in ts if t > t_floor))   # a repeated T adds no cut
    need = sum(n * _contour_size(sigma_cap - sigma0, (hi - lo) / n)
               for lo, hi in zip([t_floor] + steps, steps) for n in [_tile_count(hi - lo)])
    if need > _CELL_EVAL_BUDGET:
        raise DepthExceeded("density scan evaluation budget exhausted")

    fn = expression_fn(e, cfg)
    for loc in fn.poles:
        if abs(loc.imag) > 1e-12:
            raise ValueError(f"non-real pole candidate {loc:.6g}; pre-split not supported")

    def scan(k):
        """The count at each T, with the scan pushed outward by k jitters."""
        shift = _JITTER * k
        counts_at, acc, edge = {}, 0, ((), (), ())
        t_lo = t_floor + shift
        for t in steps:
            base, span = t_lo, t + shift - t_lo
            n = _tile_count(span)
            for j in range(1, n + 1):
                t_hi = base + span * j / n if j < n else t + shift  # land exactly on T
                tile = Rectangle(sigma0 - shift, sigma_cap + shift, t_lo, t_hi)
                w, (pts, *rest) = _certified_winding(_Walker(fn), tile, edge)
                acc += w
                # This tile's certified top edge is the next one's bottom edge.
                edge = tuple(x[:-1][pts[:-1].imag == t_hi][::-1] for x in (pts, *rest[:2]))
                t_lo = t_hi
            counts_at[t] = acc
        return counts_at

    try:
        counts_at, complete = _jittered(scan), True
    except NearZeroOnContour:
        counts_at, complete = {}, False
    counts = tuple(counts_at.get(t, 0) for t in ts)
    if any(c < 0 for c in counts):
        raise ContourError("negative zero count: pole leaked into a scan tile")
    return DensityScan(
        sigma0=sigma0, sigma_cap=sigma_cap, t_floor=t_floor,
        T_values=tuple(ts), counts=counts,
        fit_slope=_fit_slope(ts, counts), complete=complete,
    )


def critical_line_check(e, t_max: float, tol: float,
                        cc: ContourConfig = DEFAULT_CONTOUR,
                        cfg: EvalConfig = DEFAULT_CONFIG, threads: int = 1,
                        t_floor: float = T_FLOOR) -> CriticalLineReport:
    """Localize zeros with 0 < Im <= t_max, 0.1 < Re < 0.9 and measure the
    largest |Re - 1/2|; PASS means every zero sits within tol of the line."""
    rect = Rectangle(0.1, 0.9, t_floor, t_max)
    result = localize_zeros(e, rect, cc, cfg, threads=threads)
    max_off = max((abs(r.location.re - 0.5) for r in result.records), default=0.0)
    return CriticalLineReport(
        records=result.records, unresolved=result.unresolved,
        max_offline=max_off, tol=tol,
        passed=(max_off < tol and not result.unresolved),
    )
