"""Zero location and counting in axis-aligned rectangles.

Winding numbers come from boundary phase tracking: walk the contour
counter-clockwise, accumulate principal-branch phase increments of F, and
bisect any segment whose increment exceeds _MAX_PHASE_STEP.  The closed-loop
total is 2*pi*(zeros - poles) counted with multiplicity.  Zero localization
cuts a cell of winding w into w + 1 strips across its longer side until each
cell holds winding 1, then polishes with Newton's method, whose slope at
each step is the secant through its last two iterates, so that a step costs
one evaluation.

Newton starts at the argument-principle estimate of the cell's one zero,
z_start - (1/2 pi i) * contour integral of log F dz, taken by the trapezoid
rule over the contour samples that also give the cell's |F| scale, with the
phase continued along the phase increments that winding uses, bisected
where a segment's principal increment exceeds the step, so that a zero
close to an edge is resolved.  Each cell takes the samples, values and
increments of the contour its winding was accepted from (a strip those its
split computed), so no cell's contour is evaluated or bisected again.
Newton starts at the cell centre instead when those increments do not make
one turn, or when the estimate falls outside the cell.

Contours are numpy arrays from sampling to the Newton start point: the
samples, their values and phase increments, the walker's value store, the
hand-off of a split to its strips, the |F| scale and the start point all
work on arrays.  A contour's samples are evaluated in one batch, which
eval_batch takes at most _BATCH_POINTS points at a time, and the near-zero
check and phase increments run over the sample array at once.  A split
evaluates all its strips' contours in one batch: each edge's points are
generated from its lower end, so strips that share a cut share its points,
and the batch evaluates each of them once.  Each strip is handed the values
and phase increments on its boundary.  Phase bisection and Newton are
sequential and evaluate single points through eval_expr; the walker keeps
each bisection midpoint's value in a dict apart from the contour samples, so
no midpoint of a decision is evaluated twice.

Each edge is sampled uniformly and, beside every pole candidate of the
expression within reach of it, at graded points (_Walker.boundary_points):
seen from the pole, no segment between consecutive samples then subtends
more than theta = _POLE_ANGLE / 2**level, so an order-k pole adds at most
k * theta to a segment's phase increment.  At level 0 poles of order up to
4 stay within the phase step, and up to 7 they cannot alias a segment.
Scans start 1e-3 above the real axis, where every implemented atom's pole
candidates sit, so this settles the windings beside them at level 0.

A winding is accepted once two consecutive sampling densities (levels)
agree.  Each decision has one walker: the level is an argument of its
sampling, and the walker keeps F at every contour sample it has evaluated or
been handed, so no contour point of the decision is evaluated twice; on long
edges the levels sample the same points (see _stable_winding).  A cell's
walker starts with the samples of the contour its winding was accepted from,
so its split knows the parent's corners.  A density scan seeds each tile's
walker with the values on its bottom edge, which the tile below sampled as
its top edge, and adds each tile's winding to the count of its T step as it
goes.  The split of the scanned rectangle starts at the coarser of its two
agreeing levels, with the accepted winding; every other split starts at
level 0.  A split whose strips fail to conserve the parent's winding goes
on to the next denser level.  Every evaluation a split makes counts against
its cell's evaluation budget, and a contour of more points than that budget
is refused before its points are made.  A density scan is refused before its
first tile when its tiles' level-0 contours together hold more points than
that budget.

A near-zero sample is retried by one rule, _jittered: attempt k of at most
_JITTER_RETRIES + 1 pushes the scanned rectangle or the density scan outward
by k * _JITTER, or moves a split's cuts by k jitters, and the last attempt's
hit is raised.  The near-zero threshold is 10 * zero_tol, scaled down by the
magnitude of the neighbouring samples when those sit below 1, so that
exponentially small functions (completed-zeta combinations at height t)
remain scannable.

The engine's settings are the module constants below (_INIT_SAMPLES_PER_EDGE,
_MAX_PHASE_STEP, _POLE_ANGLE, _MAX_DEPTH, _MIN_CELL, _JITTER and the
budgets); a caller sets only ContourConfig.zero_tol.  Scans run in the
calling thread.  The ``threads`` keyword of the scan functions is accepted
for compatibility and has no effect.
"""

from __future__ import annotations

import cmath
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
from .expr import eval_batch, eval_expr, pole_set

_INIT_SAMPLES_PER_EDGE = 64  # least samples per edge, at level 0
_SAMPLES_PER_UNIT = 8.0      # extra boundary samples per unit of edge length
_MAX_PHASE_STEP = math.pi / 2  # largest unbisected phase increment, at level 0
_POLE_ANGLE = math.pi / 8    # largest angle a segment subtends from a near pole, at level 0
_MAX_DEPTH = 40              # phase bisection depth
_MIN_CELL = 1e-9             # a cell this small is reported, not split
_JITTER = 1e-7               # near-zero retry step
_TILE_HEIGHT = 25.0          # density-scan strip height
_NEWTON_MAX_STEPS = 60
_JITTER_RETRIES = 8
_CELL_EVAL_BUDGET = 4_000_000
_BATCH_POINTS = 2048         # most points per eval_batch call


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
    """The zero residual tolerance, which also sets the near-zero threshold
    (CLI --zero-tol); the engine's other settings are module constants."""

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
# Phase tracking
# ---------------------------------------------------------------------------

def _edge_samples(length: float, level: int) -> int:
    """The uniform sample count n of an edge at ``level``: its uniform points
    sit at the fractions k/n of it, k = 1, ..., n - 1."""
    return max(_INIT_SAMPLES_PER_EDGE << level, math.ceil(length * _SAMPLES_PER_UNIT))


def _contour_size(width: float, height: float, level: int = 0, poles: int = 0) -> int:
    """An upper bound on the samples of a width x height contour at ``level``,
    the closing repeat included, with room on every edge for the graded
    samples of ``poles`` pole candidates: 2 * ceil((pi/2) / theta) + 1 each,
    where _Walker.boundary_points adds at most the foot and ceil((pi/2) /
    theta) - 1 points on each side of it."""
    graded = poles * (2 * math.ceil(math.pi / 2 / (_POLE_ANGLE / 2**level)) + 1)
    return 1 + sum(_edge_samples(d, level) + graded for d in (width, height) * 2)


class _Walker:
    """Boundary phase tracker for one winding decision; counts evaluations.

    ``fn`` comes from expression_fn: fn(z) evaluates one point (bisection
    midpoints, Newton), fn.batch(zs) a point list (contour samples), and
    fn.poles holds the expression's pole candidates (none when fn has no
    such attribute), which boundary_points grades its samples around.
    The value store is two arrays, the points ``zs`` and F at each of them
    ``vs``: every contour sample the walker has evaluated or been handed
    (``seen``, a pair of point and value arrays).  sample consults it, so no
    contour point of the decision is evaluated twice, and leaves it sorted
    and distinct.  ``midpoints`` holds F at every phase-bisection midpoint,
    apart from the store so that a contour sample keeps its batch value;
    bisection is scalar, so it is a dict.  Every evaluation counts against
    one budget.  ``level`` k samples with _INIT_SAMPLES_PER_EDGE
    << k, graded points at most theta = _POLE_ANGLE / 2**k apart as seen
    from a pole candidate within reach, and a phase step of _MAX_PHASE_STEP
    / 2**k.  A segment that subtends at most theta from an order-m pole gets
    at most m * theta of its phase increment from it: within the step
    (pi/2 / 2**k = 4 * theta) for m <= 4, so the pole forces no bisection,
    and below pi for m <= 7, so it cannot alias the segment.
    """

    def __init__(self, fn, cc: ContourConfig, seen=((), ())):
        self.fn = fn
        self.poles = getattr(fn, "poles", ())
        self.cc = cc
        self.zs, self.vs = (np.asarray(a, dtype=complex) for a in seen)
        self.midpoints = {}
        self.evals = 0

    def _count(self, n: int) -> None:
        self.evals += n
        if self.evals > _CELL_EVAL_BUDGET:
            raise DepthExceeded("per-cell evaluation budget exhausted")

    def __call__(self, z: complex) -> complex:
        self._count(1)
        return self.fn(z)

    def sample(self, pts: np.ndarray) -> np.ndarray:
        """F at every point of the array pts, as an array.  One np.unique over
        the store and pts finds the distinct points of pts not in the store;
        they are evaluated in one batch, in the order they first appear in pts
        (the order in which fn.batch cuts a long batch), and added to it."""
        known = self.zs.size
        buf = np.concatenate([self.zs, pts])
        uniq, first, inv = np.unique(buf, return_index=True, return_inverse=True)
        new = np.sort(first[first >= known])      # where the unknown points first appear
        if new.size:
            self._count(new.size)
            buf[new] = self.fn.batch(buf[new])
        buf[:known] = self.vs       # buf now holds F wherever a point of uniq first appears
        self.zs, self.vs = uniq, buf[first]
        return self.vs[inv[known:]]

    def boundary_points(self, rect: Rectangle, level: int = 0) -> np.ndarray:
        """Counter-clockwise contour samples from the lower-left corner, closed
        by repeating it, as an array.  Each edge's points are lo + (hi - lo) * f
        for fractions f of the edge measured from its lower end lo (left to
        right, bottom to top) whichever way the walk runs it, so cells that
        share an edge sample bitwise-identical points on it; corners are
        exact.  An edge of uniform spacing h gets the fractions k/n and, for
        each pole candidate at distance 0 < d < h / tan(theta) from its line,
        graded points at the foot x of the pole on that line and at x +- d *
        tan(j * theta), j = 1, 2, ..., while the gap between them is below h,
        where theta = _POLE_ANGLE / 2**level.
        Each segment then subtends at most theta from the pole (see _Walker).
        A contour of more points than the evaluation budget is refused before
        any point is made."""
        if _contour_size(rect.width, rect.height, level, len(self.poles)) > _CELL_EVAL_BUDGET:
            raise DepthExceeded("per-cell evaluation budget exhausted")
        theta = _POLE_ANGLE / 2**level
        corners = rect.corners()
        edges = []
        for i in range(4):
            z0, z1 = corners[i], corners[(i + 1) % 4]
            lo, hi = (z0, z1) if i < 2 else (z1, z0)
            n = _edge_samples(abs(hi - lo), level)
            fracs = np.arange(1, n) / n
            graded = self._graded(lo, hi, n, theta)
            if graded:
                fracs = np.unique(np.concatenate([fracs, graded]))
            inner = lo + (hi - lo) * fracs
            if graded:      # two fractions may round to one point, or onto a corner
                keep = np.append(inner[1:] != inner[:-1], True)     # equal points are adjacent
                inner = inner[keep & (inner != lo) & (inner != hi)]
            edges += [[z0], inner if i < 2 else inner[::-1]]
        return np.concatenate(edges + [[corners[0]]])

    def _graded(self, lo: complex, hi: complex, n: int, theta: float) -> list[float]:
        """The graded fractions, strictly between 0 and 1, that the pole
        candidates within reach add to the edge from lo to hi of n uniform
        steps."""
        length = abs(hi - lo)
        h = length / n
        out = []
        for p in self.poles:
            rel = p - lo
            x, d = (rel.real, abs(rel.imag)) if lo.imag == hi.imag else (rel.imag, abs(rel.real))
            # On the edge's line the pole is on the contour or sees the edge
            # at angle 0; far from it the uniform spacing is fine enough.
            if d == 0.0 or d * math.tan(theta) >= h:
                continue
            offsets = [0.0]
            for j in range(1, math.ceil(math.pi / 2 / theta)):
                o = d * math.tan(j * theta)
                if o - offsets[-1] >= h:
                    break
                offsets.append(o)
            out.extend(f for o in offsets for f in ((x - o) / length, (x + o) / length)
                       if 0.0 < f < 1.0)
        return out

    def _near_zero_floor(self, neighbour_mag):
        # Relative to the local magnitude so that exponentially small but
        # smooth stretches of |F| (completed-zeta combinations) do not trip.
        # neighbour_mag may be a float or an array.
        return 10.0 * self.cc.zero_tol * np.minimum(1.0, neighbour_mag)

    def boundary(self, rect: Rectangle, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The contour samples of rect and F at each of them."""
        pts = self.boundary_points(rect, level)
        return pts, self.sample(pts)

    def increments(self, pts: np.ndarray, vals: np.ndarray, level: int = 0) -> np.ndarray:
        """Phase increments of F along the closed contour samples, summing to
        2*pi times the winding number.

        The near-zero check and the principal phase increments are computed
        over the whole sample array, a sample's neighbours taken from two
        slices of the closed array (the first sample's are the second and the
        last but one); only the segments whose increment exceeds the step are
        bisected, in contour order, and their increments are the bisected
        sums.  The principal increments multiply out to vals[-1] /
        vals[0] = 1, and a bisected sum differs from the increment it replaces
        by 2*pi*k, so the total is a multiple of 2*pi up to rounding."""
        z, v = np.asarray(pts), np.asarray(vals)
        mag = np.abs(v)               # v[-1] == v[0]: the contour is closed
        local = np.concatenate(([max(mag[1], mag[-2])], np.maximum(mag[:-2], mag[2:])))
        for i in np.flatnonzero(mag[:-1] <= self._near_zero_floor(local))[:1]:
            raise NearZeroOnContour(f"|F|={mag[i]:.3g} at {z[i]:.8g}", point=complex(z[i]))

        dphi = np.angle(v[1:] / v[:-1])
        step = _MAX_PHASE_STEP / 2**level
        for i in np.flatnonzero(np.abs(dphi) > step).tolist():
            (z0, z1), (v0, v1) = z[i:i + 2].tolist(), v[i:i + 2].tolist()
            dphi[i] = self._segment_phase(z0, v0, z1, v1, step, 0)
        return dphi

    def _segment_phase(self, z0, v0, z1, v1, step, depth) -> float:
        dphi = cmath.phase(v1 / v0)
        if abs(dphi) <= step:
            return dphi
        if depth >= _MAX_DEPTH:
            raise DepthExceeded(f"phase bisection depth > {_MAX_DEPTH} at {z0:.8g}")
        zm = 0.5 * (z0 + z1)
        vm = self.midpoints.get(zm)
        if vm is None:
            vm = self.midpoints[zm] = self(zm)
        if abs(vm) <= self._near_zero_floor(max(abs(v0), abs(v1))):
            raise NearZeroOnContour(f"|F|={abs(vm):.3g} at {zm:.8g}", point=zm)
        return (self._segment_phase(z0, v0, zm, vm, step, depth + 1)
                + self._segment_phase(zm, vm, z1, v1, step, depth + 1))


def _turns(dphi: np.ndarray) -> int:
    """The winding number whose phase increments are dphi."""
    return round(float(dphi.sum()) / (2.0 * math.pi))


def expression_fn(e, cfg: EvalConfig):
    """z -> F(z) through eval_expr; ``fn.batch`` maps a point list to its
    values through eval_batch, _BATCH_POINTS points a call, which bounds the
    arrays a large split allocates (eval_batch's values do not depend on how
    a list is cut), and ``fn.poles`` holds the distinct locations of
    pole_set(e), which _Walker.boundary_points grades its samples around."""
    def fn(z: complex) -> complex:
        return eval_expr(e, z, cfg).z
    fn.batch = lambda zs: np.concatenate([eval_batch(e, zs[i:i + _BATCH_POINTS], cfg)[0]
                                          for i in range(0, len(zs), _BATCH_POINTS)])
    fn.poles = tuple(dict.fromkeys(c.location for c in pole_set(e)))
    return fn


def _stable_winding(walker: _Walker, rect: Rectangle):
    """Winding accepted only once two consecutive sampling levels agree.

    Guards against phase aliasing from zeros hugging the contour from either
    side; each level doubles the samples per edge and halves the phase step
    and the angle of the graded samples beside pole candidates.
    The walker keeps every value it samples, so a level evaluates only the
    points the walker does not already know (the values of the levels below,
    and any it was handed).  An edge longer than _INIT_SAMPLES_PER_EDGE /
    _SAMPLES_PER_UNIT gets ceil(length * _SAMPLES_PER_UNIT) samples at every
    level whose own count is below that, so those levels sample the same
    points there and the second level checks nothing new on that edge (the
    100-unit edges of the c12 rectangle get 800 samples at levels 0 to 3).
    Returns (winding, level, contour): level is the coarser of the two
    agreeing levels, and contour the (pts, vals, dphi) the winding came from
    there: the samples, F at each of them and the bisected phase increments.
    """
    prev = None, None
    for level in range(4):
        pts, vals = walker.boundary(rect, level)
        dphi = walker.increments(pts, vals, level)
        w = _turns(dphi)
        if w == prev[0]:
            return w, level - 1, prev[1]
        prev = w, (pts, vals, dphi)
    raise ContourError(f"winding did not stabilize under refinement on {rect}")


def winding_number(e, rect: Rectangle, cc: ContourConfig = DEFAULT_CONTOUR,
                   cfg: EvalConfig = DEFAULT_CONFIG) -> int:
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
    return _stable_winding(_Walker(expression_fn(e, cfg), cc), rect)[0]


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


def _winding_with_expansion(fn, rect: Rectangle, cc: ContourConfig):
    """_stable_winding's (winding, level, contour) and the rectangle they were
    measured on: rect, pushed outward by k jitters on the k-th attempt."""
    jit = _effective_jitter(rect)

    def attempt(k):
        cur = rect.expand(jit * k) if k else rect
        return (*_stable_winding(_Walker(fn, cc), cur), cur)
    return _jittered(attempt)


_SPLIT_FRAC = (math.sqrt(5.0) - 1.0) / 2.0   # avoids cuts along symmetry lines


def _split_cell(walker: _Walker, rect: Rectangle, w_par: int, level: int = 0):
    """Cut the cell into m = w_par + 1 strips across its longer side (t when
    the height is at least the width, else sigma), with deterministically
    jittered, asymmetric cuts.

    One zero per strip is usual, so most cells resolve after one split.  Cut
    j (1 <= j < m) sits at lo + L * (j - 1 + _SPLIT_FRAC) / m along the side
    [lo, lo + L], off the centre so that zeros on natural symmetry lines
    (e.g. Re = 1/2) stay strictly inside one strip.  The first and last
    strips keep the parent's two edges across the cut side, but each strip
    samples its piece of the two sides along it afresh, so conservation
    compares new samples with the parent's.  Each attempt samples the strips'
    contours in one batch; strips that share a cut sample the same points on
    it, which the batch evaluates once, and the points the walker already
    knows (the parent's contour, earlier rounds) are not evaluated again.
    Strip windings must conserve the parent's.  A round makes the attempts of
    _jittered: only a near-zero hit on a strip contour moves every cut (by
    the jitter) for another attempt at the same level.  A conservation
    failure (a zero close enough to an edge to alias the phase samples, which
    a jitter-sized move cannot repair on the outer edges), or cuts that leave
    the cell, end the round.  The next round re-measures the parent's contour
    at the next denser level, as _stable_winding measures a level, and splits
    there; the split gives up after three rounds with the last failure.  The
    first round samples at ``level`` and takes w_par as measured there; the
    number of strips stays that of the w_par given.  Every evaluation counts
    against ``walker``'s budget.  Returns (strip, winding, (pts, vals, dphi))
    triples, bottom to top or left to right: the strip's contour samples at
    the accepted level, F at each of them and the bisected phase increments
    its winding came from, all arrays; pts and vals are views of the one
    sample array of the accepted attempt and of its values.  The strip's
    scale, Newton start point and own split reuse them.
    """
    jit = max(_effective_jitter(rect), 1e-12 * max(rect.width, rect.height))
    across_t = rect.height >= rect.width
    lo, hi = (rect.t_lo, rect.t_hi) if across_t else (rect.sigma_lo, rect.sigma_hi)
    m = w_par + 1
    cuts = [lo + (hi - lo) * (j - 1 + _SPLIT_FRAC) / m for j in range(1, m)]

    def attempt(lvl, w_par, k):
        ends = [lo, *(c + jit * k for c in cuts), hi]
        if not all(a < b for a, b in zip(ends, ends[1:])):
            return None
        strips = [Rectangle(rect.sigma_lo, rect.sigma_hi, a, b) if across_t
                  else Rectangle(a, b, rect.t_lo, rect.t_hi)
                  for a, b in zip(ends, ends[1:])]
        contours = [walker.boundary_points(c, lvl) for c in strips]
        cut = np.cumsum([len(pts) for pts in contours[:-1]])
        pts = np.concatenate(contours)      # each strip's samples and values are views
        contours = np.split(pts, cut)
        vals = np.split(walker.sample(pts), cut)
        measured = []
        for c, pts, v in zip(strips, contours, vals):
            dphi = walker.increments(pts, v, lvl)
            measured.append((c, _turns(dphi), (pts, v, dphi)))
        windings = [w for _, w, _ in measured]
        if sum(windings) != w_par:
            raise ContourError(f"strip windings {windings} do not conserve parent {w_par}")
        return measured

    last_exc: Exception = ContourError("split point exhausted the cell")
    try:
        for lvl in range(level, level + 3):
            if lvl > level:
                try:
                    pts, vals = walker.boundary(rect, lvl)
                    w_par = _turns(walker.increments(pts, vals, lvl))
                except (NearZeroOnContour, DepthExceeded) as exc:
                    last_exc = exc
                    continue
            try:
                measured = _jittered(lambda k: attempt(lvl, w_par, k))
                if measured is not None:
                    return measured
            except (NearZeroOnContour, ContourError) as exc:
                last_exc = exc
        raise last_exc
    finally:
        # A kept exception's traceback holds this frame, and with it the
        # walker and every contour: drop it so the cycle is not left to gc.
        del last_exc


def _newton_refine(walker: _Walker, rect: Rectangle, cc: ContourConfig, scale: float,
                   z: complex):
    """Newton from z, one evaluation per step.

    The slope at each step is the secant through the last two iterates; the
    first pair is z and z + h, with h = 1e-6 times the cell size.  So a
    refinement of k steps evaluates F k + 2 times: at z, at z + h, at each
    later iterate and at the result.  z is the cell's start point: the
    argument-principle estimate of its zero from _start_point, or the centre
    where that estimate is not usable.  Returns (zero, residual, steps), or
    None when the slope vanishes or is too flat (a step longer than twice
    the cell size), a step leaves the expanded cell, or the result is
    outside rect or has a residual above the tolerance scaled by the contour
    magnitude ``scale``.
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
    the closed contour samples, with log F = log|F| + i * (phase unwrapped
    from the increments ``dphi``, as _Walker.increments bisects them so that
    a zero close to an edge is resolved), so it costs no evaluation.  The
    centre is returned instead when the increments do not make one turn (the
    samples do not resolve one winding) or the estimate falls outside rect.
    """
    if _turns(dphi) != 1:
        return rect.center
    log_f = np.log(np.abs(vals)) + 1j * np.concatenate(([0.0], np.cumsum(dphi)))
    moment = complex(np.sum(0.5 * (log_f[1:] + log_f[:-1]) * np.diff(pts)))
    z0 = complex(pts[0]) - moment / (2j * math.pi)
    return z0 if rect.contains(z0) else rect.center


def _resolve_cell(fn, rect: Rectangle, w: int, contour, cc: ContourConfig,
                  level: int = 0):
    """Fully resolve one pole-free cell of known winding.  Each cell comes
    with the (pts, vals, dphi) its winding was accepted from: rect with
    ``contour`` (from _stable_winding, at ``level``), a strip with the one
    its split handed it.  A cell's walker starts with that contour's samples,
    and its split at the contour's level: ``level`` for rect, 0 for a strip."""
    records: list[ZeroRecord] = []
    unresolved: list[UnresolvedCell] = []
    stack = [(rect, w, level, contour)]
    while stack:
        cell, wc, lvl, (pts, vals, dphi) = stack.pop()
        if wc == 0:
            continue
        if wc < 0:
            unresolved.append(UnresolvedCell(cell, wc, "negative winding in pole-free cell"))
            continue
        walker = _Walker(fn, cc, (pts, vals))    # the evaluation budget is per cell
        size = max(cell.width, cell.height)
        if wc == 1:
            hit = _newton_refine(walker, cell, cc, _boundary_scale(vals),
                                 _start_point(cell, pts, vals, dphi))
            if hit is not None:
                z, resid, steps = hit
                records.append(ZeroRecord(
                    location=ComplexValue.of(z, 10.0 * abs(z) * 1e-16 + resid),
                    residual=resid, winding_mult=1, rect=cell, refine_steps=steps,
                ))
                continue
        if size <= _MIN_CELL:
            center = cell.center
            resid = abs(walker(center))
            records.append(ZeroRecord(
                location=ComplexValue.of(center, size),
                residual=resid, winding_mult=wc, rect=cell, refine_steps=0,
            ))
            continue
        try:
            stack.extend((strip, w_strip, 0, contour)
                         for strip, w_strip, contour in _split_cell(walker, cell, wc, lvl))
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
    w_root, level, contour, root = _winding_with_expansion(fn, rect, cc)
    records, unresolved = _resolve_cell(fn, root, w_root, contour, cc, level)
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
    if den == 0:
        return 0.0
    return sum((t - tm) * (c - cm) for t, c in pairs) / den


def _tile_count(span: float) -> int:
    """The number of density-scan tiles a T step of height span is cut into."""
    return max(1, math.ceil(span / _TILE_HEIGHT))


def density_scan(e, sigma0: float, T_values, cc: ContourConfig = DEFAULT_CONTOUR,
                 cfg: EvalConfig = DEFAULT_CONFIG, sigma_cap: float = 2.0,
                 threads: int = 1, t_floor: float = 1e-3) -> DensityScan:
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
    fn = expression_fn(e, cfg)
    need = 0
    for lo, hi in zip([t_floor] + steps, steps):
        n = _tile_count(hi - lo)
        need += n * _contour_size(sigma_cap - sigma0, (hi - lo) / n, 0, len(fn.poles))
    if need > _CELL_EVAL_BUDGET:
        raise DepthExceeded("density scan evaluation budget exhausted")

    for loc in fn.poles:
        if abs(loc.imag) > 1e-12:
            raise ValueError(f"non-real pole candidate {loc:.6g}; pre-split not supported")

    def scan(k):
        """The count at each T, with the scan pushed outward by k jitters."""
        shift = _JITTER * k
        counts_at, acc, edge = {}, 0, ((), ())
        t_lo = t_floor + shift
        for t in steps:
            base, span = t_lo, t + shift - t_lo
            n = _tile_count(span)
            for j in range(1, n + 1):
                t_hi = base + span * j / n if j < n else t + shift  # land exactly on T
                walker = _Walker(fn, cc, edge)
                tile = Rectangle(sigma0 - shift, sigma_cap + shift, t_lo, t_hi)
                acc += _stable_winding(walker, tile)[0]
                # This tile's top edge is the next one's bottom edge.
                on = walker.zs.imag == t_hi
                edge = walker.zs[on], walker.vs[on]
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
                        t_floor: float = 1e-3) -> CriticalLineReport:
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
