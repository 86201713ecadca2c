"""Zero location and counting in axis-aligned rectangles.

Winding numbers come from boundary phase tracking: walk the contour
counter-clockwise, accumulate principal-branch phase increments of F, and
bisect any segment whose increment exceeds max_phase_step.  The closed-loop
total is 2*pi*(zeros - poles) counted with multiplicity.  Zero localization
quadrisects until each cell holds winding 1, then polishes with Newton using
a central-difference derivative.

Newton starts at the argument-principle estimate of the cell's one zero,
z_start - (1/2 pi i) * contour integral of log F dz, taken by the trapezoid
rule over the contour samples that also give the cell's |F| scale (for a
child, the values its split handed down), with the phase continued along
the phase increments that winding uses, bisected where a segment's
principal increment exceeds the step, so that a zero close to an edge is
resolved.  It starts at the cell centre instead when those increments do
not sum to 2*pi, or when the estimate falls outside the cell.

A contour's samples are evaluated in one eval_batch call, and the near-zero
check and phase increments run over the sample array at once.  A split
evaluates all four children's contours in one batch: each edge's points are
generated from its lower end, so children that share an edge share its
points, and the batch evaluates each of them once.  Each child is handed the
values on its boundary.  Phase bisection and Newton are sequential and
evaluate single points through eval_expr.

A winding is accepted once two consecutive sampling densities (levels)
agree.  Within that one decision each level reuses the values of the level
below, so no contour point is evaluated twice, and the values are dropped
when the decision is made; on long edges the levels sample the same points
(see _stable_winding).  The split of the scanned rectangle starts at the
coarser of its two agreeing levels, with the accepted winding; every other
split starts at level 0.  A split whose children fail to conserve the
parent's winding goes on to the next denser level; only a near-zero hit on
a child contour moves the split point for another attempt at the same
level.  Every evaluation a split makes counts against its cell's evaluation
budget.

Near-zero samples on the outer boundary of a scan trigger a deterministic
outward jitter; the near-zero threshold is 10 * zero_tol, scaled down by the
magnitude of the neighbouring samples when those sit below 1, so that
exponentially small functions (completed-zeta combinations at height t)
remain scannable.

Scans run in the calling thread.  The ``threads`` keyword of the scan
functions is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import cmath
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

TWO_PI = 2.0 * math.pi
_SAMPLES_PER_UNIT = 8.0      # extra boundary samples per unit of edge length
_TILE_HEIGHT = 25.0          # density-scan strip height
_NEWTON_MAX_STEPS = 60
_JITTER_RETRIES = 8
_CELL_EVAL_BUDGET = 4_000_000
_PHASE_SLACK = 0.01          # a closed contour's phase total within this of 2*pi*n


@dataclass(frozen=True)
class Rectangle:
    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not (self.sigma_lo < self.sigma_hi and self.t_lo < self.t_hi):
            raise ValueError(f"degenerate rectangle {self}")

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

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (self.sigma_lo - margin <= z.real <= self.sigma_hi + margin
                and self.t_lo - margin <= z.imag <= self.t_hi + margin)

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
    init_samples_per_edge: int = 64
    max_phase_step: float = math.pi / 2
    max_depth: int = 40
    min_cell: float = 1e-9
    jitter: float = 1e-7
    zero_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.max_phase_step < math.pi:
            raise ValueError("max_phase_step must be in (0, pi)")
        if self.init_samples_per_edge < 4:
            raise ValueError("init_samples_per_edge must be >= 4")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        for name in ("min_cell", "jitter", "zero_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


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

class _Walker:
    """Boundary phase tracker for one function; counts evaluations.

    ``fn`` comes from expression_fn: fn(z) evaluates one point (bisection
    midpoints, Newton), fn.batch(zs) a point list (contour samples).  A walker
    made with ``owner`` (a split's denser sampling) also counts every
    evaluation against the owner's budget.
    """

    def __init__(self, fn, cc: ContourConfig, owner: "_Walker | None" = None):
        self.fn = fn
        self.cc = cc
        self.owner = owner
        self.evals = 0

    def _count(self, n: int) -> None:
        if self.owner is not None:
            self.owner._count(n)
        self.evals += n
        if self.evals > _CELL_EVAL_BUDGET:
            raise DepthExceeded("per-cell evaluation budget exhausted")

    def __call__(self, z: complex) -> complex:
        self._count(1)
        return self.fn(z)

    def sample(self, pts: list[complex], known: dict | None = None) -> list[complex]:
        """F at every point of pts: values in ``known`` are reused, the other
        distinct points are evaluated in one batch."""
        values = dict(known or {})
        todo = [z for z in dict.fromkeys(pts) if z not in values]
        if todo:
            self._count(len(todo))
            values.update(zip(todo, self.fn.batch(todo)))
        return [values[z] for z in pts]

    def boundary_points(self, rect: Rectangle) -> list[complex]:
        """Counter-clockwise contour samples from the lower-left corner, closed
        by repeating it.  Each edge's points are generated from its lower end
        (left to right, bottom to top) whichever way the walk runs it, so cells
        that share an edge sample bitwise-identical points on it; corners are
        exact."""
        pts: list[complex] = []
        corners = rect.corners()
        for i in range(4):
            z0, z1 = corners[i], corners[(i + 1) % 4]
            lo, hi = (z0, z1) if i < 2 else (z1, z0)
            n = max(self.cc.init_samples_per_edge,
                    int(math.ceil(abs(hi - lo) * _SAMPLES_PER_UNIT)))
            inner = [lo + (hi - lo) * (k / n) for k in range(1, n)]
            pts.append(z0)
            pts.extend(inner if i < 2 else reversed(inner))
        pts.append(corners[0])
        return pts

    def _near_zero_floor(self, neighbour_mag):
        # Relative to the local magnitude so that exponentially small but
        # smooth stretches of |F| (completed-zeta combinations) do not trip.
        # neighbour_mag may be a float or an array.
        return 10.0 * self.cc.zero_tol * np.minimum(1.0, neighbour_mag)

    def winding(self, rect: Rectangle) -> int:
        return self.wind(rect, *self.boundary(rect))

    def boundary(self, rect: Rectangle, known: dict | None = None
                 ) -> tuple[list[complex], list[complex]]:
        """The contour samples of rect and F at each of them; ``known`` values
        are reused."""
        pts = self.boundary_points(rect)
        return pts, self.sample(pts, known)

    def wind(self, rect: Rectangle, pts: list[complex], vals: list[complex]) -> int:
        """Winding number of F around rect from its contour samples."""
        return round(float(self.increments(rect, pts, vals).sum()) / TWO_PI)

    def increments(self, rect: Rectangle, pts: list[complex],
                   vals: list[complex]) -> np.ndarray:
        """Phase increments of F along the contour samples, summing to 2*pi
        times the winding number.

        The near-zero check and the principal phase increments are computed
        over the whole sample array; only the segments whose increment exceeds
        the step are bisected, in contour order, and their increments are the
        bisected sums."""
        v = np.asarray(vals)
        mag = np.abs(v[:-1])          # pts[-1] == pts[0]
        local = np.maximum(np.roll(mag, 1), np.roll(mag, -1))
        for i in np.flatnonzero(mag <= self._near_zero_floor(local))[:1]:
            raise NearZeroOnContour(f"|F|={abs(vals[i]):.3g} at {pts[i]:.8g}", point=pts[i])

        dphi = np.angle(v[1:] / v[:-1])
        step = self.cc.max_phase_step
        for attempt in range(3):
            phase = dphi.copy()
            for i in np.flatnonzero(np.abs(dphi) > step).tolist():
                phase[i] = self._segment_phase(pts[i], vals[i], pts[i + 1], vals[i + 1], step, 0)
            total = float(phase.sum())
            if abs(total - TWO_PI * round(total / TWO_PI)) <= _PHASE_SLACK:
                return phase
            step *= 0.5     # refine instead of rounding silently
        raise ContourError(
            f"phase accumulator {total:.6f} not near a multiple of 2*pi on {rect}"
        )

    def _segment_phase(self, z0, v0, z1, v1, step, depth) -> float:
        dphi = cmath.phase(v1 / v0)
        if abs(dphi) <= step:
            return dphi
        if depth >= self.cc.max_depth:
            raise DepthExceeded(f"phase bisection depth > {self.cc.max_depth} at {z0:.8g}")
        zm = 0.5 * (z0 + z1)
        vm = self(zm)
        if abs(vm) <= self._near_zero_floor(max(abs(v0), abs(v1))):
            raise NearZeroOnContour(f"|F|={abs(vm):.3g} at {zm:.8g}", point=zm)
        return (self._segment_phase(z0, v0, zm, vm, step, depth + 1)
                + self._segment_phase(zm, vm, z1, v1, step, depth + 1))


def expression_fn(e, cfg: EvalConfig):
    """z -> F(z) through eval_expr; ``fn.batch`` maps a point list to its
    values through eval_batch."""
    def fn(z: complex) -> complex:
        return eval_expr(e, z, cfg).z
    fn.batch = lambda zs: eval_batch(e, zs, cfg)[0].tolist()
    return fn


def _stable_winding(fn, rect: Rectangle, cc: ContourConfig) -> tuple[int, int]:
    """Winding accepted only once two consecutive sampling densities agree.

    Guards against phase aliasing from zeros hugging the contour from either
    side; each densification (level) doubles init_samples_per_edge and halves
    the phase step.  Each level is handed the previous level's values, so a
    point the coarser level sampled is not evaluated again; the values live
    for this call only.  An edge longer than init_samples_per_edge /
    _SAMPLES_PER_UNIT gets ceil(length * _SAMPLES_PER_UNIT) samples at every
    level whose own count is below that, so those levels sample the same
    points there and the second density checks nothing new on that edge (the
    100-unit edges of the c12 rectangle get 800 samples at levels 0 to 3).
    Returns (winding, level), level being the coarser of the two agreeing
    levels.
    """
    prev, known = None, None
    for level in range(4):
        wk = _Walker(fn, _tightened(cc, 2**level))
        pts, vals = wk.boundary(rect, known)
        w = wk.wind(rect, pts, vals)
        if w == prev:
            return w, level - 1
        prev, known = w, dict(zip(pts, vals))
    raise ContourError(f"winding did not stabilize under refinement on {rect}")


def winding_number(e, rect: Rectangle, cc: ContourConfig = DEFAULT_CONTOUR,
                   cfg: EvalConfig = DEFAULT_CONFIG) -> int:
    """(#zeros - #poles) inside rect, counted with multiplicity.

    Poles strictly inside are permitted (they count -1 each per order); a pole
    candidate within jitter of the boundary is rejected up front.
    """
    for cand in pole_set(e):
        if rect.boundary_distance(cand.location) < cc.jitter:
            raise PoleProximity(
                f"pole candidate {cand.location:.6g} within jitter of the contour",
                location=cand.location, source=cand.source,
            )
    return _stable_winding(expression_fn(e, cfg), rect, cc)[0]


# ---------------------------------------------------------------------------
# Zero localization
# ---------------------------------------------------------------------------

def _effective_jitter(rect: Rectangle, cc: ContourConfig) -> float:
    return min(cc.jitter, min(rect.width, rect.height) / 100.0)


def _winding_with_expansion(fn, rect: Rectangle, cc: ContourConfig):
    """Stable winding with the outer boundary pushed outward on near-zero hits:
    (winding, level, rectangle), level as from _stable_winding."""
    jit = _effective_jitter(rect, cc)
    cur = rect
    for attempt in range(_JITTER_RETRIES + 1):
        try:
            return (*_stable_winding(fn, cur, cc), cur)
        except NearZeroOnContour:
            if attempt == _JITTER_RETRIES:
                raise
            cur = rect.expand(jit * (attempt + 1))
    raise AssertionError("unreachable")


_SPLIT_FRAC = (math.sqrt(5.0) - 1.0) / 2.0   # avoids cuts along symmetry lines


def _tightened(cc: ContourConfig, factor: int) -> ContourConfig:
    if factor == 1:
        return cc
    return ContourConfig(
        init_samples_per_edge=cc.init_samples_per_edge * factor,
        max_phase_step=cc.max_phase_step / factor,
        max_depth=cc.max_depth,
        min_cell=cc.min_cell,
        jitter=cc.jitter,
        zero_tol=cc.zero_tol,
    )


def _split_cell(walker: _Walker, rect: Rectangle, w_parent: int, cc: ContourConfig,
                samples: dict | None = None, level: int = 0, known: dict | None = None):
    """Quadrisect with a deterministically jittered, asymmetric split point.

    The split sits at the golden-ratio point rather than the center so that
    zeros on natural symmetry lines (e.g. Re = 1/2) stay strictly inside one
    child.  Each attempt samples the four children's contours in one batch;
    children that share an edge sample the same points on it, which the batch
    evaluates once.  Children windings must conserve the parent's.  Only a
    near-zero hit on a child contour moves the split point (by the jitter) for
    another attempt at the same density; a child's ContourError or a
    conservation failure (a zero close enough to an edge to alias the phase
    samples, which a jitter-sized move cannot repair on the outer edges) ends
    the round, and the next round re-measures parent and children at the next
    denser level (as in _stable_winding) before giving up after three.  The
    first round samples at ``level`` and takes w_parent as measured there;
    each parent re-measure reuses the values of the parent contour from the
    round before (``known`` for the first re-measure).  Every evaluation counts
    against ``walker``'s budget.  Returns (child, winding) pairs;
    ``samples``, when given, receives {child: {z: F(z)}} for the contour
    samples of each returned child, from which the child's scale and Newton
    start point are computed.
    """
    jit = max(_effective_jitter(rect, cc), 1e-12 * max(rect.width, rect.height))
    cx = rect.sigma_lo + _SPLIT_FRAC * rect.width
    cy = rect.t_lo + _SPLIT_FRAC * rect.height
    last_exc: Exception | None = None
    w_par = w_parent
    for lvl in range(level, level + 3):
        wk = _Walker(walker.fn, _tightened(cc, 2**lvl), walker)
        if lvl > level:
            try:
                pts, vals = wk.boundary(rect, known)
                known = dict(zip(pts, vals))
                w_par = wk.wind(rect, pts, vals)
            except (NearZeroOnContour, ContourError, DepthExceeded) as exc:
                last_exc = exc
                continue
        for attempt in range(_JITTER_RETRIES + 1):
            sx = cx + jit * attempt
            sy = cy + jit * attempt
            if not (rect.sigma_lo < sx < rect.sigma_hi and rect.t_lo < sy < rect.t_hi):
                break
            children = [
                Rectangle(rect.sigma_lo, sx, rect.t_lo, sy),
                Rectangle(sx, rect.sigma_hi, rect.t_lo, sy),
                Rectangle(sx, rect.sigma_hi, sy, rect.t_hi),
                Rectangle(rect.sigma_lo, sx, sy, rect.t_hi),
            ]
            contours = [wk.boundary_points(c) for c in children]
            vals = wk.sample([z for pts in contours for z in pts])
            windings, measured, k = [], [], 0
            try:
                for c, pts in zip(children, contours):
                    v = vals[k:k + len(pts)]
                    k += len(pts)
                    windings.append(wk.wind(c, pts, v))
                    measured.append(dict(zip(pts, v)))
            except NearZeroOnContour as exc:
                last_exc = exc
                continue
            except ContourError as exc:
                last_exc = exc
                break
            if sum(windings) != w_par:
                last_exc = ContourError(
                    f"child windings {windings} do not conserve parent {w_par}"
                )
                break
            if samples is not None:
                samples.update(zip(children, measured))
            return list(zip(children, windings))
    if last_exc is None:
        last_exc = ContourError("split point exhausted the cell")
    raise last_exc


def _newton_refine(walker: _Walker, rect: Rectangle, cc: ContourConfig, scale: float,
                   z: complex):
    """Newton from z with a central-difference derivative.

    z is the cell's start point: the argument-principle estimate of its zero
    from _start_point, or the centre where that estimate is not usable.
    Returns (zero, residual, steps), or None when a step leaves the expanded
    cell, the derivative is flat, or the result is outside rect or has a
    residual above the tolerance scaled by the contour magnitude ``scale``.
    """
    size = max(rect.width, rect.height)
    h = 1e-6 * size
    tol_resid = cc.zero_tol * min(1.0, max(scale, 1e-300))
    steps = 0
    try:
        for steps in range(1, _NEWTON_MAX_STEPS + 1):
            fz = walker(z)
            d = (walker(z + h) - walker(z - h)) / (2.0 * h)
            if d == 0:
                return None
            dz = fz / d
            if abs(dz) > 2.0 * size:        # derivative too flat; bail out
                return None
            z = z - dz
            if not rect.expand(size).contains(z):
                return None
            if abs(dz) <= 5e-16 * max(1.0, abs(z)):
                break
        resid = abs(walker(z))
    except ZetaError:
        return None
    if resid > max(tol_resid, 1e-13 * scale) or not rect.contains(z):
        return None
    return z, resid, steps


def _boundary_scale(vals: list[complex]) -> float:
    """Median |F| over a closed contour's samples (the closing repeat left out)."""
    mags = sorted(abs(v) for v in vals[:-1])
    return mags[len(mags) // 2]


def _start_point(rect: Rectangle, pts: list[complex], vals: list[complex],
                 dphi=None) -> complex:
    """Argument-principle estimate of the one zero of F inside rect.

    Integrating the moment (1/2 pi i) * contour integral of z F'/F dz by parts
    gives the zero as z_start - (1/2 pi i) * contour integral of log F dz,
    with log F continued along the contour from z_start = pts[0] (Delves &
    Lyness, Math. Comp. 21, 1967).  The integral is the trapezoid rule over
    the closed contour samples, with log F = log|F| + i * (phase unwrapped
    from the increments ``dphi``: _Walker.increments, whose bisected segments
    resolve a zero close to an edge, or else the principal increments of
    vals), so it costs no evaluation.  The centre is returned instead when the
    increments do not sum to 2*pi within _PHASE_SLACK (the samples do not
    resolve one winding) or the estimate falls outside rect.
    """
    z = np.asarray(pts)
    v = np.asarray(vals)
    if dphi is None:
        dphi = np.angle(v[1:] / v[:-1])
    if not abs(dphi.sum() - TWO_PI) <= _PHASE_SLACK:
        return rect.center
    log_f = np.log(np.abs(v)) + 1j * np.concatenate(([0.0], np.cumsum(dphi)))
    moment = complex(np.sum(0.5 * (log_f[1:] + log_f[:-1]) * np.diff(z)))
    z0 = pts[0] - moment / (2j * math.pi)
    return z0 if rect.contains(z0) else rect.center


def _resolve_cell(fn, rect: Rectangle, w: int, cc: ContourConfig, level: int = 0):
    """Fully resolve one pole-free cell of known winding; a split of rect
    itself starts at sampling ``level``, a split of any child at level 0."""
    records: list[ZeroRecord] = []
    unresolved: list[UnresolvedCell] = []
    stack = [(rect, w, None, level)]
    while stack:
        cell, wc, known, lvl = stack.pop()
        walker = _Walker(fn, cc)      # the evaluation budget is per cell
        if wc == 0:
            continue
        if wc < 0:
            unresolved.append(UnresolvedCell(cell, wc, "negative winding in pole-free cell"))
            continue
        size = max(cell.width, cell.height)
        if wc == 1:
            pts, vals = walker.boundary(cell, known)
            try:
                dphi = walker.increments(cell, pts, vals)
            except (NearZeroOnContour, ContourError, DepthExceeded):
                dphi = None
            hit = _newton_refine(walker, cell, cc, _boundary_scale(vals),
                                 _start_point(cell, pts, vals, dphi))
            if hit is not None:
                z, resid, steps = hit
                records.append(ZeroRecord(
                    location=ComplexValue.of(z, 10.0 * abs(z) * 1e-16 + resid),
                    residual=resid, winding_mult=1, rect=cell, refine_steps=steps,
                ))
                continue
        if size <= cc.min_cell:
            center = cell.center
            resid = abs(walker(center))
            records.append(ZeroRecord(
                location=ComplexValue.of(center, size),
                residual=resid, winding_mult=wc, rect=cell, refine_steps=0,
            ))
            continue
        samples: dict = {}
        try:
            for child, w_child in _split_cell(walker, cell, wc, cc, samples, lvl, known):
                if w_child != 0:
                    stack.append((child, w_child, samples[child], 0))
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
    w_root, level, root = _winding_with_expansion(fn, rect, cc)
    records, unresolved = _resolve_cell(fn, root, w_root, cc, level)
    records.sort(key=lambda r: (r.location.im, r.location.re, r.winding_mult))
    unresolved.sort(key=lambda u: (u.rect.t_lo, u.rect.sigma_lo))
    return LocalizeResult(tuple(records), tuple(unresolved))


# ---------------------------------------------------------------------------
# Density scans and the critical-line contrast check
# ---------------------------------------------------------------------------

def _fit_slope(ts, counts) -> float:
    pairs = [(t, c) for t, c in zip(ts, counts) if t > 0]
    if len(pairs) == 1:
        t, c = pairs[0]
        return c / t
    if not pairs:
        return 0.0
    tm = sum(t for t, _ in pairs) / len(pairs)
    cm = sum(c for _, c in pairs) / len(pairs)
    den = sum((t - tm) ** 2 for t, _ in pairs)
    if den == 0:
        return 0.0
    return sum((t - tm) * (c - cm) for t, c in pairs) / den


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
    ts = [float(t) for t in T_values]
    if sorted(ts) != ts:
        raise ValueError("T_values must be increasing")
    active = [t for t in ts if t > t_floor]

    for cand in pole_set(e):
        if abs(cand.location.imag) > 1e-12:
            raise ValueError(
                f"non-real pole candidate {cand.location:.6g}; pre-split not supported"
            )

    fn = expression_fn(e, cfg)
    counts_at: dict[float, int] = {}
    complete = True
    if active:
        jit = cc.jitter
        for attempt in range(_JITTER_RETRIES + 1):
            lo = sigma0 - jit * attempt
            hi = sigma_cap + jit * attempt
            shift = jit * attempt
            cuts = [t_floor + shift]
            for t in active:
                lo_t = cuts[-1]
                span = t + shift - lo_t
                n = max(1, int(math.ceil(span / _TILE_HEIGHT)))
                cuts.extend(lo_t + span * (k + 1) / n for k in range(n))
                cuts[-1] = t + shift           # land exactly on the cut
            tiles = [Rectangle(lo, hi, cuts[i], cuts[i + 1])
                     for i in range(len(cuts) - 1)]
            try:
                tile_w = [_stable_winding(fn, r, cc)[0] for r in tiles]
            except NearZeroOnContour:
                if attempt == _JITTER_RETRIES:
                    complete = False
                    break
                continue
            acc = 0
            k = 0
            for t in active:
                while k < len(tiles) and tiles[k].t_hi <= t + shift + 1e-15:
                    acc += tile_w[k]
                    k += 1
                counts_at[t] = acc
            break
        else:
            complete = False
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
    offsets = [abs(r.location.re - 0.5) for r in result.records]
    max_off = max(offsets) if offsets else 0.0
    return CriticalLineReport(
        records=result.records, unresolved=result.unresolved,
        max_offline=max_off, tol=tol,
        passed=(max_off < tol and not result.unresolved),
    )
