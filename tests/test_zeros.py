import cmath
import gc
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zetazeros.config import EvalConfig, DEFAULT_CONFIG
from zetazeros.errors import DepthExceeded, NearZeroOnContour, PoleProximity
from zetazeros.expr import eval_batch, eval_expr, parse_expr
import zetazeros.zeros as zeros
from zetazeros.zeros import (
    ContourConfig,
    DEFAULT_CONTOUR,
    Rectangle,
    _boundary_scale,
    _split_cell,
    _stable_winding,
    _start_point,
    _Walker,
    critical_line_check,
    density_scan,
    expression_fn,
    localize_zeros,
    winding_number,
)

ZETA = parse_expr("zeta(s)")


def _winding(walker, rect, level=0):
    """The winding of F around rect's contour samples at ``level``."""
    pts, vals = walker.boundary(rect, level)
    return zeros._turns(walker.increments(pts, vals, level))


def test_rectangle_validation():
    with pytest.raises(ValueError, match="degenerate"):
        Rectangle(1.0, 0.5, 0, 1)
    for bounds in ((0.5, math.inf, 1, 2), (-math.inf, 0, 0, 1), (0, 1, 0, math.inf)):
        with pytest.raises(ValueError, match="non-finite rectangle"):
            Rectangle(*bounds)
    r = Rectangle(0, 1, 2, 4)
    assert r.center == 0.5 + 3j
    assert r.boundary_distance(0.5 + 3j) == 0.5
    assert r.boundary_distance(2.0 + 3j) == 1.0


def test_winding_first_zero_cell():
    # Coarse |zeta| scan over (0.4,0.6) x (14,14.3) puts the minimum near
    # t = 14.13; the cell must contain exactly one zero.
    assert winding_number(ZETA, Rectangle(0.4, 0.6, 14.0, 14.3)) == 1


def test_winding_zero_free_cell():
    assert winding_number(ZETA, Rectangle(2.0, 3.0, 1.0, 2.0)) == 0


def test_winding_pole_cell():
    assert winding_number(ZETA, Rectangle(0.8, 1.2, -0.2, 0.2)) == -1


def test_winding_rejects_pole_near_contour():
    with pytest.raises(PoleProximity):
        winding_number(ZETA, Rectangle(1.0 - 5e-8, 2.0, -1.0, 1.0))


def test_subdivision_conservation():
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG), DEFAULT_CONTOUR)
    w = _winding(walker, rect)
    kids = _split_cell(walker, rect, w)
    assert sum(wc for _, wc, _ in kids) == w
    assert w >= 1


def test_localize_first_zeta_zero():
    res = localize_zeros(ZETA, Rectangle(0.4, 0.6, 14.0, 15.0))
    assert len(res.records) == 1 and not res.unresolved
    rec = res.records[0]
    assert rec.winding_mult == 1
    assert rec.residual < 1e-10
    assert abs(rec.location.re - 0.5) < 1e-9
    assert abs(rec.location.im - 14.134725141734693) < 1e-8
    assert rec.rect.contains(rec.location.z)


def test_localize_double_zero_multiplicity():
    res = localize_zeros(parse_expr("zeta(s)^2"), Rectangle(0.4, 0.6, 14.0, 15.0))
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.winding_mult == 2
    assert abs(rec.location.z - (0.5 + 14.134725141734693j)) < 1e-6
    assert rec.residual < 1e-8


def test_record_reverification():
    # The isolating box around each record must reproduce its multiplicity.
    for text in ("zeta(s)", "zeta(s)^2"):
        e = parse_expr(text)
        res = localize_zeros(e, Rectangle(0.4, 0.6, 14.0, 15.0))
        for rec in res.records:
            r = max(1e-9, 100 * rec.location.abs_err)
            z = rec.location.z
            box = Rectangle(z.real - r, z.real + r, z.imag - r, z.imag + r)
            assert winding_number(e, box) == rec.winding_mult


def test_conjugate_pairing():
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    upper = localize_zeros(e, Rectangle(0.55, 2.0, 20.0, 45.0))
    lower = localize_zeros(e, Rectangle(0.55, 2.0, -45.0, -20.0))
    assert len(upper.records) == len(lower.records) >= 2
    for u, l in zip(upper.records, reversed(lower.records)):
        assert abs(u.location.z - l.location.z.conjugate()) < 1e-9


def test_near_zero_on_contour_jitter():
    # 1 - 2^{-s} vanishes at s = 0; a rectangle with the zero on its edge
    # must be jittered outward and still produce the record.
    e = parse_expr("dirichlet[(1,0),(-1,0.6931471805599453)]")
    res = localize_zeros(e, Rectangle(0.0, 1.0, -1.0, 1.0))
    assert len(res.records) == 1
    assert abs(res.records[0].location.z) < 1e-10


def test_localize_requires_pole_free_rect():
    with pytest.raises(PoleProximity):
        localize_zeros(ZETA, Rectangle(0.5, 1.5, -0.5, 0.5))


def test_first_offline_zero_of_zeta_plus_zeta2s():
    # The lowest zero of zeta(s)+zeta(2s) strictly right of the critical line
    # (located by a coarse |F| scan during development, then Newton-polished).
    e = parse_expr("zeta(s)+zeta(2*s)")
    res = localize_zeros(e, Rectangle(0.505, 1.0, 100.0, 120.0))
    assert len(res.records) == 1 and not res.unresolved
    rec = res.records[0]
    assert abs(rec.location.z - (0.5140997687 + 110.7767800j)) < 1e-6
    assert rec.residual < 1e-10


def test_thread_determinism_small():
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 60.0, 80.0)
    assert localize_zeros(e, rect, threads=1) == localize_zeros(e, rect, threads=8)


def test_density_scan_basic():
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    scan = density_scan(e, 0.55, (50.0, 100.0))
    assert scan.counts[0] <= scan.counts[1]
    assert scan.counts == (3, 13)
    assert scan.complete
    assert scan.fit_slope == pytest.approx((13 - 3) / 50.0)


def test_density_scan_evaluates_each_point_once(monkeypatch):
    # Each tile's top edge is the next tile's bottom edge; its values are
    # handed on, so no point of the scan is evaluated twice (11,248 batched
    # points for 9,313 distinct ones while each tile sampled its own edges;
    # 9,313 while the first tile's level 0 aliased the phase beside the pole
    # at s = 1, so its winding waited for levels 1 and 2 to agree).
    batched = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batched.extend(zs) or eval_batch(e, zs, cfg))
    scan = density_scan(parse_expr("zeta(s)^2-zeta(2*s)"), 0.55, (100.0, 200.0, 400.0),
                        t_floor=1e-3)
    assert scan.counts == (13, 34, 86)
    assert len(batched) == len(set(batched)) == 8_585


def test_density_scan_repeated_T(monkeypatch):
    # A repeated T adds no cut: the tiles, and so the points, are those of
    # the scan without the repeat, and the repeat gets the same count.
    batched = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batched.append(zs.tolist()) or eval_batch(e, zs, cfg))
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    assert density_scan(e, 0.55, (50.0, 50.0, 100.0)).counts == (3, 3, 13)
    repeated, batched[:] = batched[:], []
    assert density_scan(e, 0.55, (50.0, 100.0)).counts == (3, 13)
    assert repeated == batched
    assert density_scan(e, 0.55, (50.0, 50.0)).counts == (3, 3)


def test_density_scan_over_the_budget_raises_before_evaluating(monkeypatch):
    # About 4e10 tiles of 528 level-0 samples each: refused before any
    # evaluation.  The c9 scan, 16 tiles to T = 400, is far below the budget.
    def fail(*args):
        raise AssertionError("evaluated")
    monkeypatch.setattr(zeros, "eval_batch", fail)
    monkeypatch.setattr(zeros, "eval_expr", fail)
    with pytest.raises(DepthExceeded, match="density scan evaluation budget exhausted"):
        density_scan(ZETA, 0.55, (1e12,))
    with pytest.raises(DepthExceeded, match="density scan"):
        density_scan(ZETA, 0.55, (100.0, 1e12))
    assert 16 * zeros._contour_size(1.45, 25.0) < zeros._CELL_EVAL_BUDGET


def test_density_scan_zeta_is_zero_free():
    scan = density_scan(ZETA, 0.55, (50.0,))
    assert scan.counts == (0,)


def test_density_scan_trivial_T():
    scan = density_scan(ZETA, 0.55, (0.0,))
    assert scan.counts == (0,)
    assert scan.fit_slope == 0.0


def test_density_scan_validation():
    with pytest.raises(ValueError):
        density_scan(ZETA, 0.4, (10.0,))
    for T in ((100.0, 50.0), (math.inf,), (math.nan,), (10.0, math.inf)):
        with pytest.raises(ValueError, match="T_values must be finite and non-decreasing"):
            density_scan(ZETA, 0.55, T)
    with pytest.raises(ValueError, match="sigma_cap must be finite"):
        density_scan(ZETA, 0.55, (10.0,), sigma_cap=math.inf)


def test_contour_beyond_the_budget_is_refused_before_it_is_made(monkeypatch):
    # 20,000 units high: 320,000 contour points against a budget of 10,000.
    # Nothing is evaluated, and the point list is never built.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", 10_000)
    batched = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batched.extend(zs) or eval_batch(e, zs, cfg))
    tracemalloc.start()
    try:
        with pytest.raises(DepthExceeded, match="per-cell evaluation budget exhausted"):
            winding_number(ZETA, Rectangle(2.0, 3.0, 1.0, 20_001.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not batched
    assert peak < 1_000_000


def test_critical_line_check_vacuous():
    e = parse_expr("dirichlet[(1,0)]")       # constant 1: no zeros anywhere
    rep = critical_line_check(e, 10.0, 1e-6)
    assert rep.passed and not rep.records and rep.max_offline == 0.0


def test_exact_zero_count_dirichlet_polynomial():
    # 1 - 2^{-s} vanishes exactly at s = 2 pi i k / ln 2; three zeros have
    # 0 < t < 30 (t = 9.0647, 18.1294, 27.1941).
    e = parse_expr("dirichlet[(1,0),(-1,0.6931471805599453)]")
    assert winding_number(e, Rectangle(-1.0, 1.0, 1.0, 30.0)) == 3
    res = localize_zeros(e, Rectangle(-1.0, 1.0, 1.0, 30.0))
    assert len(res.records) == 3
    ln2 = math.log(2.0)
    for k, rec in enumerate(res.records, start=1):
        expected = complex(0.0, 2 * math.pi * k / ln2)
        assert abs(rec.location.z - expected) < 1e-9


def test_near_zero_error_carries_point():
    # A sample placed exactly on a zero must raise rather than wind silently.
    e = parse_expr("dirichlet[(1,0),(-1,0.6931471805599453)]")
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG), DEFAULT_CONTOUR)
    with pytest.raises(NearZeroOnContour):
        _winding(walker, Rectangle(0.0, 1.0, -1.0, 1.0))


def test_wind_names_first_near_zero_and_bisects_wide_segments():
    walker = _Walker(lambda z: z, DEFAULT_CONTOUR)
    rect = Rectangle(-1.0, 1.0, -1.0, 1.0)
    # F(z) = z on a triangle around 0: every increment is 2pi/3, above the
    # pi/2 step, so each segment is bisected with fresh evaluations.
    pts = [cmath.exp(2j * math.pi * k / 3) for k in (0, 1, 2, 0)]
    assert zeros._turns(walker.increments(pts, pts)) == 1
    assert walker.evals >= 3
    # Two samples below the near-zero floor: the error names the first in
    # contour order, not the smaller one.
    pts = walker.boundary_points(rect)
    vals = [1 + 0j] * len(pts)
    vals[9], vals[5] = 1e-15, 1e-12
    with pytest.raises(NearZeroOnContour) as exc:
        walker.increments(pts, vals)
    assert exc.value.point == pts[5]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(logs=st.lists(st.floats(-12.0, 1.0), min_size=3, max_size=40))
def test_near_zero_check_matches_the_pointwise_definition(logs):
    # Sample i of the closed contour is near zero when |F_i| <= 10 * zero_tol
    # * min(1, max(|F_{i-1}|, |F_{i+1}|)), its neighbours taken cyclically.
    # The check raises at the first such sample in contour order, or not at
    # all.  The values are positive reals, so no segment is bisected.
    mags = [10.0**x for x in logs]
    pts = [complex(k, 1.0) for k in range(len(mags))] + [1j]
    vals = mags + mags[:1]
    n, floor = len(mags), 10.0 * DEFAULT_CONTOUR.zero_tol
    first = next((i for i in range(n)
                  if mags[i] <= floor * min(1.0, max(mags[i - 1], mags[(i + 1) % n]))), None)
    walker = _Walker(None, DEFAULT_CONTOUR)
    if first is None:
        assert not walker.increments(pts, vals).any()
    else:
        with pytest.raises(NearZeroOnContour) as exc:
            walker.increments(pts, vals)
        assert exc.value.point == pts[first]
    assert walker.evals == 0


# A coordinate relative to the rectangle, off its edges at 0 and 1.
UNIT = st.floats(-0.5, 1.5).filter(lambda u: abs(u) > 1e-3 and abs(u - 1.0) > 1e-3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=6),
       poles=st.lists(st.tuples(UNIT, UNIT), max_size=3), scale=st.floats(0.1, 10.0),
       sigma=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0),
       width=st.floats(0.1, 2.0), height=st.floats(0.1, 2.0), level=st.integers(0, 2))
def test_increments_total_a_multiple_of_two_pi(roots, poles, scale, sigma, t, width, height,
                                               level):
    # Principal and bisected phase increments around a closed contour of a
    # polynomial or rational F add up to 2*pi*n up to rounding, so the
    # winding needs no check that the total is near a multiple of 2*pi.
    rect = Rectangle(sigma, sigma + width, t, t + height)
    zs, ps = ([complex(sigma + u * width, t + v * height) for u, v in uv]
              for uv in (roots, poles))
    fn = lambda z: scale * math.prod(z - a for a in zs) / math.prod(z - b for b in ps)
    fn.batch = lambda zs: [fn(z) for z in zs]
    walker = _Walker(fn, DEFAULT_CONTOUR)
    with mock.patch.object(zeros, "_INIT_SAMPLES_PER_EDGE", 4):
        pts, vals = walker.boundary(rect, level)
    assume(all(v != 0 and cmath.isfinite(v) for v in vals))
    total = float(walker.increments(pts, vals, level).sum())
    assert abs(total - 2 * math.pi * round(total / (2 * math.pi))) <= 1e-9


def _pole_walker(*poles):
    fn = lambda z: z
    fn.poles = poles
    return _Walker(fn, DEFAULT_CONTOUR)


def _edges(rect, pts):
    """rect's contour samples pts cut at its corners: four runs, each from
    one corner to the next in contour order, both corners included."""
    pts = pts.tolist()
    idx = [pts.index(c) for c in rect.corners()] + [len(pts) - 1]
    return [pts[a:b + 1] for a, b in zip(idx, idx[1:])]


def _within_reach(run, i, pole, level):
    """Whether the pole is within reach of the graded samples on edge run i:
    off the edge's line, and closer to it than h / tan(theta)."""
    d = abs(pole.imag - run[0].imag) if i % 2 == 0 else abs(pole.real - run[0].real)
    length = abs(run[-1] - run[0])
    h = length / zeros._edge_samples(length, level)
    return 0.0 < d and d * math.tan(zeros._POLE_ANGLE / 2**level) < h


@st.composite
def _near_pole(draw):
    """A rectangle, and the fraction u along one of its edges and the
    distance 1e-6 <= d <= 1 of a pole candidate from it, u running from half
    an edge before the edge to half an edge after it."""
    sigma, t = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    rect = Rectangle(sigma, sigma + draw(st.floats(0.01, 4.0)),
                     t, t + draw(st.floats(0.01, 4.0)))
    return rect, draw(st.floats(-0.5, 1.5)), 10.0 ** draw(st.floats(-6.0, 0.0))


def _outside(rect, edge, u, d):
    """The point at fraction u along rect's edge (0 bottom, then
    counter-clockwise), d outside it."""
    c = rect.corners()
    return c[edge] + (c[(edge + 1) % 4] - c[edge]) * u + (-1j, 1, 1j, -1)[edge] * d


@settings(derandomize=True, max_examples=300, deadline=None)
@given(geometry=_near_pole(), edge=st.integers(0, 3), level=st.integers(0, 2))
def test_graded_samples_bound_the_angle_a_near_pole_sees(geometry, edge, level):
    # On every edge within reach of the pole, each segment between
    # consecutive samples subtends at most theta from it, so an order-k pole
    # adds at most k * theta to the segment's phase increment.  The 1e-8
    # allows for the rounding of the points, which moves an angle seen from
    # 1e-6 away by about 1e-9.  An edge out of reach gets the uniform points
    # alone.
    rect, u, d = geometry
    pole = _outside(rect, edge, u, d)
    theta = zeros._POLE_ANGLE / 2**level
    graded = _edges(rect, _pole_walker(pole).boundary_points(rect, level))
    uniform = _edges(rect, _pole_walker().boundary_points(rect, level))
    for i, (run, plain) in enumerate(zip(graded, uniform)):
        if not _within_reach(run, i, pole, level):
            assert run == plain
            continue
        seen = [abs(cmath.phase((b - pole) / (a - pole))) for a, b in zip(run, run[1:])]
        assert max(seen) <= theta + 1e-8


def _reference_points(walker, rect, level):
    """boundary_points built point by point with Python complex arithmetic."""
    theta = zeros._POLE_ANGLE / 2**level
    pts, corners = [], rect.corners()
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        lo, hi = (z0, z1) if i < 2 else (z1, z0)
        n = zeros._edge_samples(abs(hi - lo), level)
        fracs = [k / n for k in range(1, n)]
        graded = walker._graded(lo, hi, n, theta)
        if graded:
            fracs = sorted(set(fracs).union(graded))
        inner = [lo + (hi - lo) * f for f in fracs]
        if graded:
            inner = [z for z in dict.fromkeys(inner) if z != lo and z != hi]
        pts += [z0, *(inner if i < 2 else reversed(inner))]
    return pts + [corners[0]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(geometry=_near_pole(), edge=st.integers(0, 3), level=st.integers(0, 2),
       offset=st.floats(-200.0, 200.0))
@example(geometry=(Rectangle(0.0, 1.0, 1e6, 1e6 + 1e-9), 0.5, 1e-11), edge=1, level=0,
         offset=0.0)
def test_boundary_points_match_the_pointwise_construction(geometry, edge, level, offset):
    # The array construction gives bitwise the points that Python complex
    # arithmetic gives one by one, graded or not.  In the example the right
    # edge spans a few ulps of t, so graded fractions round onto one point
    # and onto its corners.
    rect, u, d = geometry
    rect = Rectangle(rect.sigma_lo, rect.sigma_hi, rect.t_lo + offset, rect.t_hi + offset)
    for walker in (_pole_walker(_outside(rect, edge, u, d)), _pole_walker()):
        pts = walker.boundary_points(rect, level)
        assert [(z.real.hex(), z.imag.hex()) for z in pts.tolist()] == \
            [(z.real.hex(), z.imag.hex()) for z in _reference_points(walker, rect, level)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rounds=st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=40),
                       min_size=1, max_size=4),
       seen=st.lists(st.integers(0, 30), max_size=10))
def test_sample_evaluates_each_new_point_once_in_first_appearance_order(rounds, seen):
    # Against a dict store: each sample returns F at every point, and its one
    # batch holds the points not seen before, each once, in the order they
    # first appear.
    pool = [complex(k % 7, k // 7) * 0.25 for k in range(31)]
    fn = lambda z: complex(z) ** 2 + 1j
    batches = []
    fn.batch = lambda zs: batches.append(zs.tolist()) or [fn(z) for z in zs]
    start = [pool[k] for k in seen]
    walker = _Walker(fn, DEFAULT_CONTOUR, (start, [fn(z) for z in start]))
    known = dict.fromkeys(start)
    for ks in rounds:
        pts = [pool[k] for k in ks]
        batches.clear()
        vals = walker.sample(np.array(pts))
        assert vals.tolist() == [fn(z) for z in pts]
        new = [z for z in dict.fromkeys(pts) if z not in known]
        assert batches == ([new] if new else [])
        known.update(dict.fromkeys(new))
    assert walker.evals == len(known) - len(set(start))
    assert sorted(walker.zs.tolist(), key=lambda z: (z.real, z.imag)) == \
        sorted(known, key=lambda z: (z.real, z.imag))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(geometry=_near_pole(), edge=st.integers(0, 3), level=st.integers(0, 2))
def test_graded_samples_lie_inside_their_edges(geometry, edge, level):
    # Each sample is a corner or lies strictly inside its edge: every run
    # from one corner to the next stays on the edge's line and moves strictly
    # along it, and the contour is no longer than _contour_size says.
    rect, u, d = geometry
    pole = _outside(rect, edge, u, d)
    pts = _pole_walker(pole).boundary_points(rect, level)
    assert len(pts) <= zeros._contour_size(rect.width, rect.height, level, 1)
    assert pts[0] == pts[-1] and len(set(pts)) == len(pts) - 1
    for i, run in enumerate(_edges(rect, pts)):
        along = [z.real if i % 2 == 0 else z.imag for z in run]
        across = {z.imag if i % 2 == 0 else z.real for z in run}
        assert len(across) == 1
        assert along == sorted(set(along), reverse=i >= 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(geometry=_near_pole(), cut=st.floats(0.05, 0.95), across_t=st.booleans(),
       side=st.sampled_from((-1.0, 1.0)), level=st.integers(0, 2))
def test_graded_samples_are_shared_by_strips_on_a_cut(geometry, cut, across_t, side, level):
    # Two strips that share a cut sample bitwise-identical points on it,
    # with the pole d from the cut on either side of it, since each edge's
    # points are fractions of it measured from its lower end.
    rect, u, d = geometry
    if across_t:
        cut_at = rect.t_lo + cut * rect.height
        a = Rectangle(rect.sigma_lo, rect.sigma_hi, rect.t_lo, cut_at)
        b = Rectangle(rect.sigma_lo, rect.sigma_hi, cut_at, rect.t_hi)
        edge_a, edge_b = 2, 0
    else:
        cut_at = rect.sigma_lo + cut * rect.width
        a = Rectangle(rect.sigma_lo, cut_at, rect.t_lo, rect.t_hi)
        b = Rectangle(cut_at, rect.sigma_hi, rect.t_lo, rect.t_hi)
        edge_a, edge_b = 1, 3
    # Outside a's cut edge is inside b, and the other way round.
    pole = _outside(a, edge_a, u, d) if side > 0 else _outside(b, edge_b, u, d)
    walker = _pole_walker(pole)
    first = _edges(a, walker.boundary_points(a, level))[edge_a]
    second = _edges(b, walker.boundary_points(b, level))[edge_b]
    first, second = (first[::-1], second) if across_t else (first, second[::-1])
    assert [(z.real.hex(), z.imag.hex()) for z in first] == \
        [(z.real.hex(), z.imag.hex()) for z in second]


def test_contour_size_bounds_a_contour_beside_a_pole():
    # A rectangle 1e-3 above the pole of zeta at s = 1, and the c12 root
    # rectangle 1e-3 above the poles at s = 1/2 and 1: the graded points
    # beside the poles keep the contour within _contour_size at every level.
    for text, rect in (("zeta(s)", Rectangle(0.5, 1.5, 1e-3, 1.001)),
                       ("zeta(s)^2-zeta(2*s)", Rectangle(0.55, 2.0, 1e-3, 100.0))):
        fn = expression_fn(parse_expr(text), DEFAULT_CONFIG)
        for level in range(4):
            pts = _Walker(fn, DEFAULT_CONTOUR).boundary_points(rect, level)
            plain = _Walker(None, DEFAULT_CONTOUR).boundary_points(rect, level)
            assert len(plain) < len(pts)
            assert len(pts) <= zeros._contour_size(rect.width, rect.height, level,
                                                   len(fn.poles))


def test_contour_config_rejects_nonpositive_tolerances():
    for zero_tol in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError):
            ContourConfig(zero_tol=zero_tol)
    ContourConfig(zero_tol=1e-12)


def test_eval_batch_split_invariance():
    # The distinct contour samples of the c12 root rectangle at all four
    # sampling levels: a value must not depend on the order or grouping of
    # the batch it is evaluated in.
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 1e-3, 100.0)
    walker = _Walker(None, DEFAULT_CONTOUR)
    zs = np.array(list(dict.fromkeys(
        z for k in range(4) for z in walker.boundary_points(rect, k))))
    values, errs = eval_batch(e, zs)
    rev_values, rev_errs = eval_batch(e, zs[::-1])
    assert rev_values[::-1].tobytes() == values.tobytes()
    assert rev_errs[::-1].tobytes() == errs.tobytes()
    for size in (1, 7, 64):
        parts = [eval_batch(e, zs[i:i + size]) for i in range(0, len(zs), size)]
        assert np.concatenate([v for v, _ in parts]).tobytes() == values.tobytes()
        assert np.concatenate([r for _, r in parts]).tobytes() == errs.tobytes()


def test_split_cell_hands_children_their_samples():
    # Each child gets its contour samples, values and bisected increments,
    # equal to a fresh evaluation and bisection of its contour.
    fn = expression_fn(parse_expr("zeta(s)^2-zeta(2*s)"), DEFAULT_CONFIG)
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    w = _winding(walker, rect)
    kids = _split_cell(walker, rect, w)
    assert len(kids) == w + 1
    for child, w, (pts, vals, dphi) in kids:
        fresh = _Walker(fn, DEFAULT_CONTOUR)
        fresh_pts, fresh_vals = fresh.boundary(child)
        assert pts.tobytes() == fresh_pts.tobytes()
        assert vals.tobytes() == fresh_vals.tobytes()
        assert dphi.tobytes() == fresh.increments(fresh_pts, fresh_vals).tobytes()
        assert zeros._turns(dphi) == w
        assert _boundary_scale(vals) == _boundary_scale(fresh_vals)
        # The median is the element that sorting the magnitudes puts there.
        mags = sorted(abs(v) for v in vals.tolist()[:-1])
        assert _boundary_scale(vals) == mags[len(mags) // 2]


def test_split_samples_children_in_one_batch_on_shared_edges(monkeypatch):
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG), DEFAULT_CONTOUR)
    w = _winding(walker, rect)
    known = set(walker.zs.tolist())
    batches = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batches.append(len(zs)) or eval_batch(e, zs, cfg))
    split = _split_cell(walker, rect, w)
    kids = [child for child, _, _ in split]
    measured = {child: dict(zip(pts, vals)) for child, _, (pts, vals, _) in split}
    # The cell is taller than wide: w + 1 strips stacked in t, cut across
    # the whole width.
    assert len(kids) == w + 1 >= 3
    assert all((k.sigma_lo, k.sigma_hi) == (rect.sigma_lo, rect.sigma_hi) for k in kids)
    assert [k.t_lo for k in kids[1:]] == [k.t_hi for k in kids[:-1]]
    # The bottom and top edges are the parent's, whose samples the walker
    # knows; every other strip point is evaluated once, in one batch.
    ends = {z for z in known if z.imag in (rect.t_lo, rect.t_hi)}
    assert set().union(*measured.values()) & known == ends
    assert batches == [len(set().union(*measured.values()) - known)]
    # Neighbouring strips share their cut: both hold the same points and
    # values there.
    for a, b in zip(kids, kids[1:]):
        shared = {z: v for z, v in measured[a].items() if b.contains(z)}
        assert len(shared) > 2
        assert shared == {z: v for z, v in measured[b].items() if a.contains(z)}


def _principal(vals):
    """The principal phase increments along vals, bisecting no segment."""
    v = np.asarray(vals)
    return np.angle(v[1:] / v[:-1])


def test_start_point_of_linear_function():
    rect = Rectangle(-1.0, 2.0, -0.5, 1.5)
    pts = _Walker(None, DEFAULT_CONTOUR).boundary_points(rect)
    size = max(rect.width, rect.height)
    for z0 in (0.3 + 0.2j, -0.9 + 1.4j, 0.5 + 0.5j):
        vals = [z - z0 for z in pts]
        assert abs(_start_point(rect, pts, vals, _principal(vals)) - z0) <= 1e-3 * size


def test_start_point_falls_back_to_centre():
    rect = Rectangle(-1.0, 2.0, -0.5, 1.5)
    pts = _Walker(None, DEFAULT_CONTOUR).boundary_points(rect)
    # Increments summing to 4pi (a double zero) or to 0 (no zero inside).
    for vals in ([(z - 0.3) ** 2 for z in pts], [z - 5.0 for z in pts]):
        assert _start_point(rect, pts, vals, _principal(vals)) == rect.center
    # Winding 1 from two zeros and a pole inside: the moment a + b - c lies
    # outside the rectangle.
    a, b, c = 1.8 + 1.3j, 1.7 + 1.2j, -0.8 - 0.3j
    assert not rect.contains(a + b - c)
    vals = [(z - a) * (z - b) / (z - c) for z in pts]
    assert _start_point(rect, pts, vals, _principal(vals)) == rect.center


def _count_evaluations(monkeypatch):
    """Batched points and scalar evaluations of the engine, counted as they go."""
    counts = {"batched": 0, "scalar": 0}

    def eval_batch_counted(e, zs, cfg):
        counts["batched"] += len(zs)
        return eval_batch(e, zs, cfg)

    def eval_expr_counted(e, z, cfg):
        counts["scalar"] += 1
        return eval_expr(e, z, cfg)

    monkeypatch.setattr(zeros, "eval_batch", eval_batch_counted)
    monkeypatch.setattr(zeros, "eval_expr", eval_expr_counted)
    return counts


def test_c12_evaluation_counts(monkeypatch):
    # Deterministic work counts of the c12 localisation, so that a lost saving
    # shows without timing.  Measured: 6,044 batched points and 108 scalar
    # evaluations (172 scalar while Newton took a central-difference
    # derivative, three evaluations a step; 8,869 and 276 while the uniform samples aliased the phase
    # on the bottom edge, 1e-3 above the pole at s = 1, so the root winding
    # and its split were accepted only at level 1; 13,425 and 397 while a split quadrisected its cell, which
    # re-sampled the outer edges once per split level, and phase bisection
    # evaluated a midpoint again at each level; 13,461 batched while a split
    # evaluated its parent's corners again; 412 scalar while a winding-1 cell bisected its contour
    # again instead of taking its split's increments; 46,813 and 658 while each
    # winding level, split round and jitter attempt evaluated its contours
    # afresh, the root split started at level 0 and the start point used the
    # principal increments; 82,260 and 1,574 before Newton started at the
    # argument-principle estimate and splits were sampled in one batch).
    counts = _count_evaluations(monkeypatch)
    res = localize_zeros(parse_expr("zeta(s)^2-zeta(2*s)"), Rectangle(0.55, 2.0, 1e-3, 100.0))
    assert len(res.records) == 13 and not res.unresolved
    assert counts == {"batched": 6_044, "scalar": 108}


def test_c11_evaluation_counts(monkeypatch):
    # The c11 critical-line check: 3,939 batched points and 52 scalar
    # evaluations (96 scalar while Newton took a central-difference
    # derivative, 3,917 and 102 before the graded samples, 9,938 and 145
    # while a split quadrisected its cell).  The batched count is 22 higher
    # than without graded samples: the simple pole at s = 1/2 sits 1e-3
    # below the window and adds graded points to its bottom edges, although
    # it never aliased the phase there.
    counts = _count_evaluations(monkeypatch)
    rep = critical_line_check(parse_expr("xi(s+1/2)-xi(s-1/2)"), 50.0, 1e-6)
    assert len(rep.records) == 9 and rep.passed
    assert counts == {"batched": 3_939, "scalar": 52}


def test_window_below_a_triple_pole_is_never_complete_without_its_zero():
    # zeta(s)^3 - 2 zeta(3s) vanishes at 0.80491628+23.12524294i (mpmath at
    # 40 digits: 0.80491628230602+23.12524293569138i, |F| < 1e-40).  The
    # order-3 pole at s = 1, 1e-3 below the window, aliased the uniform
    # samples of the root winding to 15, one short, at levels 0 and 1: a
    # quadrisecting split then reported 15 zeros without this one and called
    # the window complete, and a strip split reported its bottom strip
    # unresolved.  The graded samples beside the pole give the window's 16.
    z0 = 0.80491628230602 + 23.12524293569138j
    res = localize_zeros(parse_expr("zeta(s)^3-2*zeta(3*s)"), Rectangle(0.55, 2.5, 1e-3, 100.0))
    assert res.complete and len(res.records) == 16
    assert any(abs(r.location.z - z0) < 1e-12 for r in res.records)


def test_one_zero_window_evaluates_each_point_once(monkeypatch):
    # A rectangle of winding 1 is resolved from the contour its winding was
    # accepted from (level 0 here), so its contour is neither evaluated nor
    # bisected again, and Newton from that contour's start point finds the
    # zero in the rectangle itself: 760 batched points and 13 scalar
    # evaluations.  19 scalar while Newton took a central-difference
    # derivative; 1,472 batched and 57 scalar while the phase aliased beside
    # the pole at s = 1 at level 0, so the winding was accepted at level 1;
    # 68 scalar evaluations while phase bisection evaluated a midpoint again
    # at each level; 3,064 batched and 151 scalar while the cell bisected its
    # level-0 contour, Newton from the centre failed and the cell was split;
    # 3,676 batched while it also sampled its contour afresh.
    batched, scalar = [], []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batched.extend(zs) or eval_batch(e, zs, cfg))
    monkeypatch.setattr(zeros, "eval_expr",
                        lambda e, z, cfg: scalar.append(z) or eval_expr(e, z, cfg))
    rect = Rectangle(0.55, 2.0, 1e-3, 30.0)
    res = localize_zeros(parse_expr("zeta(s)^2-zeta(2*s)"), rect)
    assert len(res.records) == 1 and not res.unresolved
    assert res.records[0].rect == rect
    assert len(batched) == len(set(batched)) == 760
    assert len(scalar) == 13


def _poly_walker(*roots):
    fn = lambda z: 2.0 * math.prod(z - r for r in roots)
    return _Walker(fn, DEFAULT_CONTOUR)


def test_newton_takes_one_evaluation_per_step():
    # The secant through the last two iterates, the first pair being the
    # start point and start + h: one evaluation a step, one more at the start
    # and one for the residual at the result, 9 over 7 steps here.  The
    # central-difference loop took three a step and one for the residual,
    # 16 over 5 steps.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    z0 = 0.3 + 0.6j
    walker = _poly_walker(z0, -1.0 + 2.0j, 3.0)
    z, resid, steps = zeros._newton_refine(walker, rect, DEFAULT_CONTOUR, 1.0, rect.center)
    assert abs(z - z0) < 1e-15 and resid < 1e-15
    assert (steps, walker.evals) == (7, 9)


def test_newton_keeps_a_zero_close_to_an_edge_inside_the_cell():
    # A zero 1e-3 inside each edge of a unit cell, times a phase ramp that
    # makes F far from linear: Newton from 2e-3 beyond the zero across the
    # edge, or from 2e-3 short of it, returns the zero, in the cell.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    for z0, out in ((0.37 + 1e-3j, -1j), (0.999 + 0.61j, 1), (0.52 + 0.999j, 1j),
                    (1e-3 + 0.23j, -1)):
        walker = _Walker(lambda z: (z - z0) * cmath.exp(3.0 * z), DEFAULT_CONTOUR)
        for start in (z0 + 2e-3 * out, z0 - 2e-3 * out):
            z, resid, _ = zeros._newton_refine(walker, rect, DEFAULT_CONTOUR, 1.0, start)
            assert rect.contains(z) and abs(z - z0) < 1e-15


def test_newton_gives_up_on_a_zero_slope_or_a_step_out_of_the_expanded_cell():
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    flat = _Walker(lambda z: 1.0 + 0j, DEFAULT_CONTOUR)
    assert zeros._newton_refine(flat, rect, DEFAULT_CONTOUR, 1.0, rect.center) is None
    assert flat.evals == 2
    # F is linear, so the first secant step lands on its zero, 1.35 right of
    # the start and 0.3 outside the cell expanded by its size.
    far = _poly_walker(2.3 + 0.95j)
    assert zeros._newton_refine(far, rect, DEFAULT_CONTOUR, 1.0, 0.95 + 0.95j) is None
    assert far.evals == 2


def test_start_point_from_bisected_increments():
    # A zero 0.004 above the bottom edge, midway between two samples, times a
    # phase ramp exp(64iz): that segment's increment exceeds pi, so the
    # principal increments sum to 0, while wind's bisected ones resolve it.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    z0 = complex(20.5 / 64, 0.004)
    walker = _Walker(lambda z: (z - z0) * cmath.exp(64j * z), DEFAULT_CONTOUR)
    pts = walker.boundary_points(rect)
    vals = [walker.fn(z) for z in pts]
    assert _start_point(rect, pts, vals, _principal(vals)) == rect.center
    start = _start_point(rect, pts, vals, walker.increments(pts, vals))
    assert rect.contains(start) and abs(start - z0) < 1e-3


def test_stable_winding_evaluates_each_distinct_point_once(monkeypatch):
    # The c12 root contour: the walker keeps the values of the levels below,
    # so the levels together evaluate only their distinct points, and the
    # winding equals that of fresh walkers at every level.  The contour
    # returned is the one at the accepted level, here level 0 (2,112 points
    # while the bottom edge's phase aliased at level 0, beside the pole at
    # s = 1, and the winding was accepted at level 1).
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 1e-3, 100.0)
    fn = expression_fn(e, DEFAULT_CONFIG)
    batched = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batched.extend(zs) or eval_batch(e, zs, cfg))
    walker = _Walker(fn, DEFAULT_CONTOUR)
    w, level, (pts, vals, dphi) = _stable_winding(walker, rect)
    distinct = set().union(*(walker.boundary_points(rect, k) for k in range(level + 2)))
    assert level == 0
    assert len(batched) == len(distinct) == 1_880
    assert set(walker.zs.tolist()) == distinct
    assert [_winding(_Walker(fn, DEFAULT_CONTOUR), rect, k)
            for k in range(level + 2)][-2:] == [w, w]
    fresh = _Walker(fn, DEFAULT_CONTOUR)
    fresh_pts, fresh_vals = fresh.boundary(rect, level)
    assert pts.tobytes() == fresh_pts.tobytes() and vals.tobytes() == fresh_vals.tobytes()
    assert dphi.tobytes() == fresh.increments(fresh_pts, fresh_vals, level).tobytes()
    assert zeros._turns(dphi) == w


def _linear_fn(z0):
    fn = lambda z: z - z0
    fn.batch = lambda zs: [z - z0 for z in zs]
    return fn


def test_split_near_zero_hit_moves_the_split_point():
    # F = z - z0 with z0 on a sample of the one cut of a winding-1 square
    # (across t, at the golden fraction of half the side): both strip
    # contours pass through the zero, so the cut moves by one jitter step.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    cut = zeros._SPLIT_FRAC / 2
    kids = _split_cell(_Walker(_linear_fn(complex(0.5, cut)), DEFAULT_CONTOUR), rect, 1)
    assert [k.t_hi for k, _, _ in kids] == [cut + zeros._JITTER, rect.t_hi]
    assert [w for _, w, _ in kids] == [1, 0]


def test_split_conservation_failure_densifies_at_once():
    # A parent winding of 2 that the three strips (one zero) cannot conserve:
    # the round ends after one attempt, and the next re-measures the parent
    # at the denser level and splits at the same cuts without jitter.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    fn = _linear_fn(0.3 + 0.3j)
    batches = []
    batch = fn.batch
    fn.batch = lambda zs: batches.append(len(zs)) or batch(zs)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    dead = weakref.ref(walker)
    gc.disable()
    try:
        kids = _split_cell(walker, rect, 2)
        del walker
        # The caught conservation failure keeps no reference to the split's
        # frame, so the walker and its contours go without a gc pass.
        assert dead() is None
    finally:
        gc.enable()
    assert len(batches) == 3        # strips, then parent and strips denser
    frac = zeros._SPLIT_FRAC
    assert [k.t_hi for k, _, _ in kids] == [frac / 3, (1 + frac) / 3, rect.t_hi]
    assert [w for _, w, _ in kids] == [0, 1, 0]


def test_resolve_cell_takes_the_split_increments(monkeypatch):
    # Two zeros in different strips: the split bisects the three strip
    # contours once, and each winding-1 strip starts Newton from the handed
    # increments instead of bisecting its contour again.
    z1, z2 = 0.3 + 0.3j, 0.8 + 0.8j
    fn = lambda z: (z - z1) * (z - z2)
    fn.batch = lambda zs: [fn(z) for z in zs]
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    w, level, contour = _stable_winding(walker, rect)
    assert w == 2
    calls = []
    increments = _Walker.increments
    monkeypatch.setattr(_Walker, "increments",
                        lambda self, *args: calls.append(args[0]) or increments(self, *args))
    records, unresolved = zeros._resolve_cell(fn, rect, w, contour, DEFAULT_CONTOUR, level)
    assert not unresolved
    assert sorted(abs(r.location.z - z1) < 1e-12 for r in records) == [False, True]
    assert len(calls) == 3


def test_split_counts_against_the_cell_budget(monkeypatch):
    fn = expression_fn(parse_expr("zeta(s)^2-zeta(2*s)"), DEFAULT_CONFIG)
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    pts, vals = walker.boundary(rect)
    contour = pts, vals, walker.increments(pts, vals)
    w = zeros._turns(contour[2])
    before, known = walker.evals, set(walker.zs.tolist())
    split = _split_cell(walker, rect, w)
    split_evals = walker.evals - before
    assert split_evals >= len(set().union(*(pts for _, _, (pts, _, _) in split)) - known)
    # The split alone fits this budget, but not on top of the cell's contour.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", walker.evals - 1)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    _winding(walker, rect)
    with pytest.raises(DepthExceeded, match="budget"):
        _split_cell(walker, rect, w)
    # A cell whose split exhausts the budget is reported, with the reason.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", split_evals - 1)
    records, unresolved = zeros._resolve_cell(fn, rect, w, contour, DEFAULT_CONTOUR)
    assert not records
    assert [(u.rect, u.winding) for u in unresolved] == [(rect, w)]
    assert unresolved[0].reason == "DepthExceeded: per-cell evaluation budget exhausted"


# F = 0 everywhere: every contour sample is a near-zero hit.
ZERO = parse_expr("dirichlet[(1,0),(-1,0)]")


def test_density_scan_gives_up_after_the_jitter_retries(monkeypatch):
    # Each attempt shifts the scan outward by one more jitter and fails on
    # its first tile; after the last the scan is reported incomplete.
    calls = []
    stable = zeros._stable_winding
    monkeypatch.setattr(zeros, "_stable_winding",
                        lambda walker, rect: calls.append(rect) or stable(walker, rect))
    scan = density_scan(ZERO, 0.6, (10.0, 60.0))
    assert scan.counts == (0, 0) and not scan.complete
    assert len(calls) == zeros._JITTER_RETRIES + 1 == 9
    jit = zeros._JITTER
    assert [r.sigma_lo for r in calls] == [0.6 - jit * k for k in range(9)]


def test_localize_raises_the_last_near_zero_hit():
    # The root rectangle is pushed outward by k jitters on the k-th hit; the
    # hit on the last attempt, at its lower-left corner, is raised.
    rect = Rectangle(0.6, 2.0, 1.0, 10.0)
    with pytest.raises(NearZeroOnContour) as exc:
        localize_zeros(ZERO, rect)
    assert exc.value.point == rect.expand(8 * zeros._JITTER).corners()[0]
    assert str(exc.value) == "|F|=0 at 0.5999992+0.9999992j"


def test_split_gives_up_when_every_split_point_is_a_zero():
    # Nine roots, one on a sample of each of the nine jittered positions of
    # the lowest of the ten strips' cuts: every attempt of each of the three
    # rounds hits one on a strip contour, and the cell is reported with the
    # last hit.
    c = zeros._SPLIT_FRAC
    roots = [complex(0.5, c / 10 + 1e-7 * k) for k in range(9)]
    fn = lambda z: math.prod(z - r for r in roots)
    batches = []
    fn.batch = lambda zs: batches.append(len(zs)) or [fn(z) for z in zs]
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    pts, vals = walker.boundary(rect)
    contour = pts, vals, walker.increments(pts, vals)
    assert zeros._turns(contour[2]) == 9
    batches.clear()
    records, unresolved = zeros._resolve_cell(fn, rect, 9, contour, DEFAULT_CONTOUR)
    assert not records
    assert [(u.rect, u.winding) for u in unresolved] == [(rect, 9)]
    assert unresolved[0].reason == "NearZeroOnContour: |F|=0 at 0.5+0.061804199j"
    # Nine attempts in the first round; a re-measure and nine attempts in
    # each of the other two.
    assert len(batches) == 29


def test_stable_winding_raises_when_no_two_levels_agree(monkeypatch):
    turns = iter(range(4))
    monkeypatch.setattr(zeros, "_turns", lambda dphi: next(turns))
    walker = _Walker(expression_fn(ZETA, DEFAULT_CONFIG), DEFAULT_CONTOUR)
    with pytest.raises(zeros.ContourError, match="did not stabilize"):
        _stable_winding(walker, Rectangle(2.0, 3.0, 1.0, 2.0))


def test_split_gives_up_when_the_re_measure_fails(monkeypatch):
    # The children (one zero) cannot conserve a parent winding of 2, and the
    # denser re-measures of the parent exceed the cell's budget: each ends
    # its round, and the split gives up with the budget failure after one
    # batch, the first round's children.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", 1_000)
    fn = _linear_fn(0.3 + 0.3j)
    batches = []
    batch = fn.batch
    fn.batch = lambda zs: batches.append(len(zs)) or batch(zs)
    with pytest.raises(DepthExceeded, match="per-cell evaluation budget exhausted"):
        _split_cell(_Walker(fn, DEFAULT_CONTOUR), Rectangle(0.0, 1.0, 0.0, 1.0), 2)
    assert len(batches) == 1


def test_split_point_outside_a_one_ulp_wide_cell():
    # A cell one ulp wide and less tall is cut across sigma; its cut rounds
    # onto its left edge, so no round can split it; the two re-measures
    # still run.
    fn = _linear_fn(-5.0)
    batches = []
    batch = fn.batch
    fn.batch = lambda zs: batches.append(len(zs)) or batch(zs)
    rect = Rectangle(1.0, math.nextafter(1.0, 2.0), 0.0, 1e-16)
    with pytest.raises(zeros.ContourError, match="^split point exhausted the cell$"):
        _split_cell(_Walker(fn, DEFAULT_CONTOUR), rect, 1)
    assert len(batches) == 2
