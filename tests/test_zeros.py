import cmath
import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zetazeros.config import EvalConfig, DEFAULT_CONFIG
from zetazeros.errors import (
    BudgetExceeded, ContourError, DepthExceeded, NearZeroOnContour, PoleProximity,
)
from zetazeros.expr import eval_batch, eval_expr, parse_expr
import zetazeros.zeros as zeros
from zetazeros.zeros import (
    ContourConfig,
    DEFAULT_CONTOUR,
    Rectangle,
    _boundary_scale,
    _certified_winding,
    _split_cell,
    _start_point,
    _Walker,
    critical_line_check,
    density_scan,
    expression_fn,
    localize_zeros,
    winding_number,
)

ZETA = parse_expr("zeta(s)")


def _far(sl, sh, tl, th, p):
    """The largest distance from p to the box [sl, sh] x [tl, th]."""
    return np.hypot(np.maximum(abs(sl - p.real), abs(sh - p.real)),
                    np.maximum(abs(tl - p.imag), abs(th - p.imag)))


def _poly_fn(*roots, scale=1.0, poles=()):
    """F = scale * prod (z - r) / prod (z - p), with the batch, pole orders and
    majorant of expression_fn: G = scale * prod (z - r) is bounded on a box
    by scale * prod of each root's largest distance from it."""
    fn = lambda z: scale * math.prod(z - r for r in roots) / math.prod(z - p for p in poles)
    fn.batch = lambda zs: ([fn(z) for z in zs], [0.0] * len(zs))
    fn.poles = {}
    for p in poles:
        fn.poles[p] = fn.poles.get(p, 0) + 1
    fn.bound = lambda *box: abs(scale) * math.prod(_far(*box, r) for r in roots) + 0.0 * box[0]
    return fn


def _winding(walker, rect):
    """The certified winding of F around rect."""
    return _certified_winding(walker, rect)[0]


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


def test_winding_refuses_a_majorant_past_the_bernoulli_table():
    # Every sample sits near Re w = -10, but the segment box, grown by 0.4 and
    # scaled by 200, reaches Re w = -90, where the majorant needs B_92.
    with pytest.raises(BudgetExceeded, match="needs B_92; the Bernoulli table stops at B_68"):
        winding_number(parse_expr("zeta(200*s)"), Rectangle(-0.05, -0.04, 0.001, 0.002))


def test_subdivision_conservation():
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG))
    w, contour = _certified_winding(walker, rect)
    kids = _split_cell(walker, rect, w, contour)
    assert sum(wc for _, wc, _ in kids) == w
    assert w >= 1
    # Strips of certified contours conserve the winding, so a parent winding
    # they cannot conserve is a fault, raised at once, not retried.
    with pytest.raises(ContourError, match="do not conserve"):
        _split_cell(walker, rect, w + 1, contour)


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
    # Each tile's certified top edge is the next tile's bottom edge; its
    # values are handed on, so no point of the scan is evaluated twice.
    # 18,821 points, certified: the majorant sum |(n+a)^-s| overstates |zeta|
    # on the left edge, so its segments are refined.  22,084 while every
    # failing segment was halved, one round per depth; 8,585 while two
    # sampling levels had to agree; 11,248 batched for 9,313 distinct ones
    # while each tile sampled its own edges; 9,313 while the first tile's
    # level 0 aliased the phase beside the pole at s = 1.
    batched = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batched.extend(zs) or eval_batch(e, zs, cfg))
    scan = density_scan(parse_expr("zeta(s)^2-zeta(2*s)"), 0.55, (100.0, 200.0, 400.0),
                        t_floor=1e-3)
    assert scan.counts == (13, 34, 86)
    assert len(batched) == len(set(batched)) == 18_821


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
    # About 4e10 tiles of 425 samples each: refused before any
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
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG))
    with pytest.raises(NearZeroOnContour):
        _winding(walker, Rectangle(0.0, 1.0, -1.0, 1.0))


def test_wind_names_first_near_zero_and_bisects_wide_segments():
    walker = _Walker(_poly_fn(0j))
    rect = Rectangle(-1.0, 1.0, -1.0, 1.0)
    # F(z) = z on a triangle around 0: each chord keeps 1/2 from 0, within
    # L^2 M / (4 rho^2) of a side of length sqrt(3), so each segment is
    # cut with fresh evaluations until its pieces pass.
    pts = np.array([cmath.exp(2j * math.pi * k / 3) for k in (0, 1, 2, 0)])
    w, (refined, *_) = walker.wind(pts, pts, np.zeros(4))
    assert w == 1
    assert walker.evals == len(refined) - len(pts) >= 3
    # Two samples whose |F| is within their abs_err: the error names the
    # first in contour order, not the smaller one, before any evaluation.
    pts = walker.boundary_points(rect)
    vals, errs = np.ones(len(pts), dtype=complex), np.zeros(len(pts))
    vals[9], vals[5] = 1e-15, 1e-12
    errs[9], errs[5] = 1e-15, 2e-12
    before = walker.evals
    with pytest.raises(NearZeroOnContour) as exc:
        walker.wind(pts, vals, errs)
    assert exc.value.point == pts[5]
    assert walker.evals == before


def _const_fn(value):
    """F = value, exact, with majorant 0: a segment passes when its chord
    keeps more than its end errors from 0."""
    fn = lambda z: value
    fn.batch = lambda zs: (np.full(len(zs), complex(value)), np.zeros(len(zs)))
    fn.bound = lambda sl, sh, tl, th: 0.0 * sl
    return fn


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(-12.0, 0.0), st.floats(-3.0, 1.0)),
                      min_size=2, max_size=40))
@example(cells=[(0.0, -1.0), (-3.0, 0.0), (-9.0, 0.5), (0.0, -1.0)])
def test_node_rule_raises_at_the_first_sample_within_its_error(cells):
    # Node i of a polyline holds |F_i| = 10^a and abs_err 10^a * 10^b: it
    # meets a zero when |F_i| <= abs_err, that is b >= 0.  certify raises at
    # the first such node in polyline order, before any evaluation, or not
    # at all.  The values are positive reals at most 1, and a midpoint gets
    # F = 1 exactly, so a segment that fails is certified after one
    # bisection and no midpoint is a hit.
    mags = np.array([10.0**a for a, _ in cells])
    errs = np.array([10.0**a * 10.0**b for a, b in cells])
    pts = np.arange(len(cells)) + 1j
    first = next((i for i in range(len(cells)) if mags[i] <= errs[i]), None)
    walker = _Walker(_const_fn(1.0))
    if first is None:
        refined, vals, _ = walker.certify(pts, mags.astype(complex), errs)
        assert walker.evals == len(refined) - len(pts)
        assert not walker.increments(refined, vals).any()
    else:
        with pytest.raises(NearZeroOnContour) as exc:
            walker.certify(pts, mags.astype(complex), errs)
        assert exc.value.point == pts[first]
        assert walker.evals == 0


def test_node_rule_names_the_first_midpoint_within_its_error():
    # The midpoints of one depth are checked in polyline order.  F = 1 at
    # the nodes 0, 1, 2, 3 with abs_err 0, 0.6, 0.6, 0.6: the first segment
    # keeps 0.4 from 0 and passes, the other two fail.  Their midpoints, in
    # one batch, hold F = 0: the first, 1.5, is named.
    walker = _Walker(_const_fn(0.0))
    pts, vals = np.arange(4) + 0j, np.ones(4, dtype=complex)
    with pytest.raises(NearZeroOnContour) as exc:
        walker.certify(pts, vals, np.array([0.0, 0.6, 0.6, 0.6]))
    assert exc.value.point == 1.5 and walker.evals == 2


def _sized_fn(ratio):
    """F = 1, exact, with a constant majorant that makes need = ratio on a
    segment of length 1: need / gap = ratio L^2 where the ends carry no
    error."""
    fn = _const_fn(1.0)
    fn.bound = lambda sl, sh, tl, th: 0.0 * sl + 4.0 * ratio * zeros._RHO**2
    return fn


def _recorded(fn):
    """fn, with every batch it evaluates appended to the list returned."""
    batches, batch = [], fn.batch
    fn.batch = lambda zs: batches.append(zs.tolist()) or batch(zs)
    return fn, batches


def test_failing_segment_is_cut_into_as_many_pieces_as_its_certificate_needs():
    # need / gap = 50 on the two unit segments, so each is cut into
    # ceil(sqrt(50)) = 8 pieces, whose need / gap is 50/64, and passes; the
    # short last segment passes as it is.  The round makes one batch of
    # 2 * 7 points, in polyline order, each at z0 + (z1 - z0) * k/8, and
    # the edge's fixed coordinate stays exact.
    fn, batches = _recorded(_sized_fn(50.0))
    walker = _Walker(fn)
    pts = np.array([0.0, 1.0, 2.0, 2.1]) + 0.7j
    refined, _, _ = walker.certify(pts, np.ones(4, complex), np.zeros(4))
    cut = [z0 + (z1 - z0) * (k / 8) for z0, z1 in ((0.7j, 1 + 0.7j), (1 + 0.7j, 2 + 0.7j))
           for k in range(1, 8)]
    assert batches == [cut] and walker.evals == 14
    assert (refined.imag == 0.7).all()
    assert refined.tolist() == sorted([*pts.tolist(), *cut], key=lambda z: z.real)


def test_meeting_the_error_discs_or_a_late_round_halves_a_segment():
    # The middle segment's end errors, 0.6 each, swallow its chord at
    # distance 1 (gap <= 0): it is halved, while the first segment (gap 0.4,
    # need 50) is cut into ceil(sqrt(125)) = 12 pieces in the same batch.
    # The halves (gap 0.4, need 12.5) take 6 pieces each in the next round.
    fn, batches = _recorded(_sized_fn(50.0))
    errs = np.array([0.0, 0.6, 0.6])
    _Walker(fn).certify(np.array([0.0, 1.0, 2.0]) + 0j, np.ones(3, complex), errs)
    assert batches[0] == [k / 12 + 0j for k in range(1, 12)] + [1.5 + 0j]
    assert [len(b) for b in batches] == [12, 10]
    # After round _SIZED_DEPTH every failing segment is halved: with that
    # round at -1, the unit segments of need 50 are halved down to pieces of
    # 1/8, one midpoint each a round.
    fn, batches = _recorded(_sized_fn(50.0))
    with mock.patch.object(zeros, "_SIZED_DEPTH", -1):
        _Walker(fn).certify(np.array([0.0, 1.0, 2.0]) + 0j, np.ones(3, complex), np.zeros(3))
    assert batches[0] == [0.5 + 0j, 1.5 + 0j]
    assert [len(b) for b in batches] == [2, 4, 8]


def test_pieces_sizes_the_cut_between_two_and_sixteen():
    gap = np.array([1.0, 1.0, 1.0, 1.0, 0.0, -1.0])
    need = np.array([1.0, 1.5, 50.0, 1e300, 50.0, 50.0])
    assert zeros._pieces(gap, need, 0).tolist() == [2, 2, 8, 16, 2, 2]
    assert zeros._pieces(gap, need, zeros._SIZED_DEPTH).tolist() == [2, 2, 8, 16, 2, 2]
    assert zeros._pieces(gap, need, zeros._SIZED_DEPTH + 1).tolist() == [2] * 6


def test_segment_rule_names_a_root_on_an_edge_off_every_dyadic_point():
    # F = z - 1/3 on the unit square: the root lies on the bottom edge, and
    # no sample or midpoint, all dyadic, is on it: a chord through 0 is
    # halved.  The segment holding it fails at every depth; at _MAX_DEPTH
    # its chord, 1/8 * 2^-40 long, passes through 0, and its end nearer the
    # root is named.
    # (Before the segment rule the scan raised DepthExceeded there.)  The
    # jitter retries push the rectangle outward by one step, which then
    # holds the root: winding 1.
    root, rect = 1 / 3 + 0j, Rectangle(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(NearZeroOnContour) as exc:
        _certified_winding(_Walker(_poly_fn(root)), rect)
    assert abs(exc.value.point - root) < 0.125 / 2**41 and exc.value.point.imag == 0.0
    w, _, moved = zeros._winding_with_expansion(_poly_fn(root), rect)
    assert w == 1 and moved == rect.expand(zeros._JITTER)


# A coordinate relative to the rectangle, off its edges at 0 and 1.
UNIT = st.floats(-0.5, 1.5).filter(lambda u: abs(u) > 1e-3 and abs(u - 1.0) > 1e-3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=6),
       poles=st.lists(st.tuples(UNIT, UNIT), max_size=3), scale=st.floats(0.1, 10.0),
       sigma=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0),
       width=st.floats(0.1, 2.0), height=st.floats(0.1, 2.0))
def test_increments_total_a_multiple_of_two_pi(roots, poles, scale, sigma, t, width, height):
    # Certified phase increments around a closed contour of a polynomial or
    # rational F (G's principal increments less the poles' exact angles) add
    # up to 2*pi*n up to rounding, so the winding needs no check that the
    # total is near a multiple of 2*pi.
    rect = Rectangle(sigma, sigma + width, t, t + height)
    zs, ps = ([complex(sigma + u * width, t + v * height) for u, v in uv]
              for uv in (roots, poles))
    walker = _Walker(_poly_fn(*zs, scale=scale, poles=ps))
    with mock.patch.object(zeros, "_SAMPLES_PER_UNIT", 2.0):
        pts = walker.boundary_points(rect)
    vals, errs = walker.sample(pts)
    assume(all(v != 0 and cmath.isfinite(v) for v in vals))
    total = float(walker.wind(pts, vals, errs)[1][3].sum())
    assert abs(total - 2 * math.pi * round(total / (2 * math.pi))) <= 1e-9


def _edges(rect, pts):
    """rect's contour samples pts cut at its corners: four runs, each from
    one corner to the next in contour order, both corners included."""
    pts = pts.tolist()
    idx = [pts.index(c) for c in rect.corners()] + [len(pts) - 1]
    return [pts[a:b + 1] for a, b in zip(idx, idx[1:])]


@st.composite
def _rects(draw):
    """A rectangle 0.01 to 4 wide and high near the origin."""
    sigma, t = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    return Rectangle(sigma, sigma + draw(st.floats(0.01, 4.0)),
                     t, t + draw(st.floats(0.01, 4.0)))


def _reference_points(rect):
    """boundary_points built point by point with Python complex arithmetic."""
    pts, corners = [], rect.corners()
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        lo, hi = (z0, z1) if i < 2 else (z1, z0)
        n = zeros._edge_samples(abs(hi - lo))
        inner = [lo + (hi - lo) * (k / n) for k in range(1, n)]
        pts += [z0, *(inner if i < 2 else reversed(inner))]
    return pts + [corners[0]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rect=_rects(), offset=st.floats(-200.0, 200.0))
@example(rect=Rectangle(0.0, 1.0, 1e6, 1e6 + 1e-9), offset=0.0)
def test_boundary_points_match_the_pointwise_construction(rect, offset):
    # The array construction gives bitwise the points that Python complex
    # arithmetic gives one by one.  Each sample is a corner or lies strictly
    # inside its edge: every run from one corner to the next stays on the
    # edge's line and moves strictly along it, and the contour holds
    # _contour_size points.  In the example the right edge spans a few ulps
    # of t, so it has no inner points.
    rect = Rectangle(rect.sigma_lo, rect.sigma_hi, rect.t_lo + offset, rect.t_hi + offset)
    pts = _Walker(None).boundary_points(rect)
    assert [(z.real.hex(), z.imag.hex()) for z in pts.tolist()] == \
        [(z.real.hex(), z.imag.hex()) for z in _reference_points(rect)]
    assert len(pts) == zeros._contour_size(rect.width, rect.height)
    assert pts[0] == pts[-1] and len(set(pts)) == len(pts) - 1
    for i, run in enumerate(_edges(rect, pts)):
        along = [z.real if i % 2 == 0 else z.imag for z in run]
        across = {z.imag if i % 2 == 0 else z.real for z in run}
        assert len(across) == 1
        assert along == sorted(set(along), reverse=i >= 2)


def test_contour_size_bounds_a_contour_beside_a_pole():
    # A rectangle 1e-3 above the pole of zeta at s = 1, and the c12 root
    # rectangle 1e-3 above the poles at s = 1/2 and 1: G = F * prod (s - p)^k
    # has no pole, so the contour beside them is the plain uniform one, of
    # _contour_size points, and its certification keeps them in order.
    for text, rect in (("zeta(s)", Rectangle(0.5, 1.5, 1e-3, 1.001)),
                       ("zeta(s)^2-zeta(2*s)", Rectangle(0.55, 2.0, 1e-3, 100.0))):
        fn = expression_fn(parse_expr(text), DEFAULT_CONFIG)
        pts = _Walker(fn).boundary_points(rect)
        plain = _Walker(None).boundary_points(rect)
        assert pts.tobytes() == plain.tobytes()
        assert len(pts) == zeros._contour_size(rect.width, rect.height)
        refined = _certified_winding(_Walker(fn), rect)[1][0]
        assert np.isin(pts, refined).all()
        assert np.flatnonzero(np.isin(refined, pts)).tolist() == \
            sorted(np.flatnonzero(np.isin(refined, pts)).tolist())


def test_contour_config_rejects_nonpositive_tolerances():
    for zero_tol in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError):
            ContourConfig(zero_tol=zero_tol)
    ContourConfig(zero_tol=1e-12)


def test_eval_batch_split_invariance():
    # The distinct samples of the c12 root rectangle's certified contour,
    # bisection midpoints included: a value must not depend on the order or
    # grouping of the batch it is evaluated in.
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 1e-3, 100.0)
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG))
    zs = _certified_winding(walker, rect)[1][0][:-1]
    assert len(zs) == len(set(zs.tolist())) > zeros._contour_size(rect.width, rect.height)
    values, errs = eval_batch(e, zs)
    rev_values, rev_errs = eval_batch(e, zs[::-1])
    assert rev_values[::-1].tobytes() == values.tobytes()
    assert rev_errs[::-1].tobytes() == errs.tobytes()
    for size in (1, 7, 64):
        parts = [eval_batch(e, zs[i:i + size]) for i in range(0, len(zs), size)]
        assert np.concatenate([v for v, _ in parts]).tobytes() == values.tobytes()
        assert np.concatenate([r for _, r in parts]).tobytes() == errs.tobytes()


def test_split_cell_hands_children_their_samples():
    # Each child gets its contour samples, values, errors and increments:
    # its corners in contour order, the cuts' certified nodes and, elsewhere,
    # the parent's nodes on its sides.  Values and errors equal a fresh
    # evaluation, and the increments a fresh computation from them.
    fn = expression_fn(parse_expr("zeta(s)^2-zeta(2*s)"), DEFAULT_CONFIG)
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(fn)
    w, contour = _certified_winding(walker, rect)
    kids = _split_cell(walker, rect, w, contour)
    assert len(kids) == w + 1
    parent = set(contour[0].tolist())
    for child, w, (pts, vals, errs, dphi) in kids:
        fresh_vals, fresh_errs = fn.batch(pts)
        assert vals.tobytes() == fresh_vals.tobytes()
        assert errs.tobytes() == fresh_errs.tobytes()
        assert dphi.tobytes() == walker.increments(pts, vals).tobytes()
        assert zeros._turns(dphi) == w
        corners = [pts.tolist().index(c) for c in child.corners()]
        assert corners == sorted(corners) and pts[0] == pts[-1] == child.corners()[0]
        assert all(child.boundary_distance(z) == 0.0 for z in pts.tolist())
        off_cuts = (pts.imag != child.t_lo) & (pts.imag != child.t_hi)
        assert set(pts[off_cuts].tolist()) <= parent
        # The median is the element that sorting the magnitudes puts there.
        mags = sorted(abs(v) for v in vals.tolist()[:-1])
        assert _boundary_scale(vals) == mags[len(mags) // 2]


def test_split_samples_children_in_one_batch_on_shared_edges(monkeypatch):
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG))
    w, contour = _certified_winding(walker, rect)
    known = set(contour[0].tolist())
    batches = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batches.append(zs.tolist()) or eval_batch(e, zs, cfg))
    split = _split_cell(walker, rect, w, contour)
    kids = [child for child, _, _ in split]
    measured = {child: dict(zip(pts.tolist(), vals.tolist()))
                for child, _, (pts, vals, _, _) in split}
    # The cell is taller than wide: w + 1 strips stacked in t, cut across
    # the whole width.
    assert len(kids) == w + 1 >= 3
    assert all((k.sigma_lo, k.sigma_hi) == (rect.sigma_lo, rect.sigma_hi) for k in kids)
    assert [k.t_lo for k in kids[1:]] == [k.t_hi for k in kids[:-1]]
    # Only the cuts are evaluated: their uniform points in the first batch,
    # then their bisection midpoints, each once; the strips take the rest of
    # their nodes from the parent's contour.
    cut_points = [z for k in kids[1:] for z in zeros._edge(complex(rect.sigma_lo, k.t_lo),
                                                             complex(rect.sigma_hi, k.t_lo)).tolist()]
    assert batches[0] == cut_points
    batched = [z for b in batches for z in b]
    assert len(batched) == len(set(batched))
    assert set().union(*measured.values()) - known == set(batched)
    # Neighbouring strips share their cut: both hold the same points and
    # values there.
    for a, b in zip(kids, kids[1:]):
        shared = {z: v for z, v in measured[a].items() if b.contains(z)}
        assert len(shared) > 2
        assert shared == {z: v for z, v in measured[b].items() if a.contains(z)}


def test_cut_ends_on_the_parents_nodes_keep_their_values():
    # A cell 0.1 wide, winding 1: its one cut is its two ends, and its
    # certified contour holds both already.  The split evaluates nothing
    # and each strip holds each end once, with the parent's values.  (Both
    # were evaluated again, and held twice, before a cut's end took a node's
    # values.)
    rect, z0 = Rectangle(0.0, 0.1, 0.0, 0.1), 0.05 + 0.01j
    walker = _Walker(_linear_fn(z0))
    pts, vals, errs, _ = _certified_winding(walker, rect)[1]
    c = rect.t_lo + rect.height * zeros._SPLIT_FRAC / 2
    ends = np.array([complex(rect.sigma_lo, c), complex(rect.sigma_hi, c)])
    pts, vals, errs = zeros._on_contour(rect, np.concatenate((pts[:-1], ends)),
                                        np.concatenate((vals[:-1], ends - z0)),
                                        np.concatenate((errs[:-1], [0.0, 0.0])))
    before = walker.evals
    split = _split_cell(walker, rect, 1, (pts, vals, errs, walker.increments(pts, vals)))
    assert walker.evals == before
    assert [(k.t_hi, w) for k, w, _ in split] == [(c, 1), (rect.t_hi, 0)]
    for _, _, (p, v, _, _) in split:
        held = p[:-1][np.isin(p[:-1], ends)]
        assert sorted(held.tolist(), key=lambda z: z.real) == ends.tolist()
        assert (v[:-1][np.isin(p[:-1], ends)] == held - z0).all()


def _principal(vals):
    """The principal phase increments along vals, bisecting no segment."""
    v = np.asarray(vals)
    return np.angle(v[1:] / v[:-1])


def test_start_point_of_linear_function():
    rect = Rectangle(-1.0, 2.0, -0.5, 1.5)
    pts = _Walker(None).boundary_points(rect)
    size = max(rect.width, rect.height)
    for z0 in (0.3 + 0.2j, -0.9 + 1.4j, 0.5 + 0.5j):
        vals = [z - z0 for z in pts]
        assert abs(_start_point(rect, pts, vals, _principal(vals)) - z0) <= 1e-3 * size


def test_start_point_falls_back_to_centre():
    rect = Rectangle(-1.0, 2.0, -0.5, 1.5)
    pts = _Walker(None).boundary_points(rect)
    # Increments summing to 4pi (a double zero) or to 0 (no zero inside).
    for vals in ([(z - 0.3) ** 2 for z in pts], [z - 5.0 for z in pts]):
        assert _start_point(rect, pts, vals, _principal(vals)) == rect.center


def test_start_point_projects_an_estimate_outside_the_cell():
    # Winding 1 from two zeros and a pole inside: the moment a + b - c =
    # 4.3+2.8i lies outside the rectangle, and is projected onto its nearest
    # point, the upper-right corner, instead of falling back to the centre.
    rect = Rectangle(-1.0, 2.0, -0.5, 1.5)
    pts = _Walker(None).boundary_points(rect)
    a, b, c = 1.8 + 1.3j, 1.7 + 1.2j, -0.8 - 0.3j
    vals = [(z - a) * (z - b) / (z - c) for z in pts]
    assert _start_point(rect, pts, vals, _principal(vals)) == 2.0 + 1.5j
    # The moment of two zeros and a pole inside, -0.95 + 1.0 - 1.1 + 0.5i,
    # lies just left of the cell: the start point moves onto its left edge.
    a, b, c = -0.95 + 0.5j, 1.0 + 0.2j, 1.1 + 0.2j
    vals = [(z - a) * (z - b) / (z - c) for z in pts]
    start = _start_point(rect, pts, vals, _principal(vals))
    assert start.real == rect.sigma_lo and abs(start - (-1.0 + 0.5j)) < 1e-2


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
    # shows without timing.  Measured: 2,765 batched points and 79 scalar
    # evaluations with certified windings, failing segments cut into as many
    # pieces as their certificate needs, splits that sample only their cuts
    # and start points projected onto the cell (2,896 and 79 while every
    # failing segment was halved; 6,044 and 108 while two
    # sampling levels had to agree and strips sampled their sides afresh;
    # 172 scalar while Newton took a central-difference
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
    assert counts == {"batched": 2_765, "scalar": 79}


def test_c11_evaluation_counts(monkeypatch):
    # The c11 critical-line check: 1,716 batched points and 54 scalar
    # evaluations with certified windings, failing segments cut into as many
    # pieces as their certificate needs (1,757 and 55 while every failing
    # segment was halved; 3,939 and 52 with graded samples
    # beside the pole at s = 1/2 and two agreeing sampling levels; 96 scalar
    # while Newton took a central-difference derivative, 3,917 and 102
    # before the graded samples, 9,938 and 145 while a split quadrisected its
    # cell).
    counts = _count_evaluations(monkeypatch)
    rep = critical_line_check(parse_expr("xi(s+1/2)-xi(s-1/2)"), 50.0, 1e-6)
    assert len(rep.records) == 9 and rep.passed
    assert counts == {"batched": 1_716, "scalar": 54}


def test_window_below_a_triple_pole_is_never_complete_without_its_zero():
    # zeta(s)^3 - 2 zeta(3s) vanishes at 0.80491628+23.12524294i (mpmath at
    # 40 digits: 0.80491628230602+23.12524293569138i, |F| < 1e-40).  The
    # order-3 pole at s = 1, 1e-3 below the window, aliased the uniform
    # samples of the root winding to 15, one short, at levels 0 and 1: a
    # quadrisecting split then reported 15 zeros without this one and called
    # the window complete, and a strip split reported its bottom strip
    # unresolved.  Graded samples beside the pole gave the window's 16; the
    # certified winding of G = F * (s - 1)^3 * (s - 1/3) gives them with
    # uniform samples.
    z0 = 0.80491628230602 + 23.12524293569138j
    res = localize_zeros(parse_expr("zeta(s)^3-2*zeta(3*s)"), Rectangle(0.55, 2.5, 1e-3, 100.0))
    assert res.complete and len(res.records) == 16
    assert any(abs(r.location.z - z0) < 1e-12 for r in res.records)


def test_one_zero_window_evaluates_each_point_once(monkeypatch):
    # A rectangle of winding 1 is resolved from the contour its winding was
    # certified on, so its contour is neither evaluated nor refined again,
    # and Newton from that contour's start point finds the zero in the
    # rectangle itself: 601 batched points and 8 scalar evaluations, in 3
    # batches.  595 in 6 while every failing segment was halved, one round
    # per depth: equal pieces are as short at a segment's easy end as at its
    # hard end, where halving went on cutting the failing half only.  760
    # and 13 while two sampling levels had to agree; 19 scalar while Newton
    # took a central-difference
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
    assert len(batched) == len(set(batched)) == 601
    assert len(scalar) == 8


def _poly_walker(*roots):
    fn = lambda z: 2.0 * math.prod(z - r for r in roots)
    return _Walker(fn)


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
        walker = _Walker(lambda z: (z - z0) * cmath.exp(3.0 * z))
        for start in (z0 + 2e-3 * out, z0 - 2e-3 * out):
            z, resid, _ = zeros._newton_refine(walker, rect, DEFAULT_CONTOUR, 1.0, start)
            assert rect.contains(z) and abs(z - z0) < 1e-15


def test_newton_gives_up_on_a_zero_slope_or_a_step_out_of_the_expanded_cell():
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    flat = _Walker(lambda z: 1.0 + 0j)
    assert zeros._newton_refine(flat, rect, DEFAULT_CONTOUR, 1.0, rect.center) is None
    assert flat.evals == 2
    # F is linear, so the first secant step lands on its zero, 1.35 right of
    # the start and 0.3 outside the cell expanded by its size.
    far = _poly_walker(2.3 + 0.95j)
    assert zeros._newton_refine(far, rect, DEFAULT_CONTOUR, 1.0, 0.95 + 0.95j) is None
    assert far.evals == 2


def test_start_point_from_bisected_increments():
    # A zero 0.004 above the bottom edge, midway between two of 16 samples
    # per unit, times a phase ramp exp(16iz): that segment's increment
    # exceeds pi, so the principal increments sum to 0, while the certified
    # ones resolve it.  |(z - z0) exp(16iz)| is at most the largest |z - z0|
    # times exp(-16 t_lo) on a box.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    z0 = complex(5.5 / 16, 0.004)
    fn = lambda z: (z - z0) * cmath.exp(16j * z)
    fn.batch = lambda zs: ([fn(z) for z in zs], [0.0] * len(zs))
    fn.bound = lambda sl, sh, tl, th: _far(sl, sh, tl, th, z0) * np.exp(-16.0 * tl)
    walker = _Walker(fn)
    with mock.patch.object(zeros, "_SAMPLES_PER_UNIT", 16.0):
        pts = walker.boundary_points(rect)
    vals, errs = walker.sample(pts)
    assert _start_point(rect, pts, vals, _principal(vals)) == rect.center
    _, (pts, vals, _, dphi) = walker.wind(pts, vals, errs)
    start = _start_point(rect, pts, vals, dphi)
    assert rect.contains(start) and abs(start - z0) < 1e-3


def _linear_fn(z0):
    """F = z - z0, bounded on a box by its largest distance from z0."""
    return _poly_fn(z0)


def test_split_near_zero_hit_moves_the_split_point():
    # F = z - z0 with z0 on a sample of the one cut of a winding-1 square
    # (across t, at the golden fraction of half the side): both strip
    # contours pass through the zero, so the cut moves by one jitter step.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    cut = zeros._SPLIT_FRAC / 2
    walker = _Walker(_linear_fn(complex(0.5, cut)))
    kids = _split_cell(walker, rect, 1, _certified_winding(walker, rect)[1])
    assert [k.t_hi for k, _, _ in kids] == [cut + zeros._JITTER, rect.t_hi]
    assert [w for _, w, _ in kids] == [1, 0]


def test_resolve_cell_takes_the_split_increments(monkeypatch):
    # Two zeros in different strips: the split certifies its cuts once and
    # takes the three strips' increments, and each winding-1 strip starts
    # Newton from the handed increments instead of certifying its contour
    # again.
    z1, z2 = 0.3 + 0.3j, 0.8 + 0.8j
    fn = _poly_fn(z1, z2)
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    w, contour = _certified_winding(_Walker(fn), rect)
    assert w == 2
    calls = []
    for name in ("increments", "certify"):
        method = getattr(_Walker, name)
        monkeypatch.setattr(_Walker, name, lambda self, *args, name=name, method=method:
                            calls.append(name) or method(self, *args))
    records, unresolved = zeros._resolve_cell(fn, rect, w, contour, DEFAULT_CONTOUR)
    assert not unresolved
    assert sorted(abs(r.location.z - z1) < 1e-12 for r in records) == [False, True]
    assert calls == ["certify"] + ["increments"] * 3


def test_split_counts_against_the_cell_budget(monkeypatch):
    fn = expression_fn(parse_expr("zeta(s)^2-zeta(2*s)"), DEFAULT_CONFIG)
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(fn)
    w, contour = _certified_winding(walker, rect)
    before, known = walker.evals, set(contour[0].tolist())
    # The cell's hull, as _resolve_cell splits it.
    hulls = ((rect, 3.0 * float(np.max(np.abs(contour[1] * walker._regular(contour[0]))))),)
    split = _split_cell(walker, rect, w, contour, hulls)
    split_evals = walker.evals - before
    assert split_evals == len(set().union(*(pts.tolist() for _, _, (pts, *_) in split)) - known)
    # The split alone fits this budget, but not on top of the cell's contour.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", walker.evals - 1)
    walker = _Walker(fn)
    _winding(walker, rect)
    with pytest.raises(DepthExceeded, match="budget"):
        _split_cell(walker, rect, w, contour, hulls)
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
    certified = zeros._certified_winding
    monkeypatch.setattr(zeros, "_certified_winding",
                        lambda walker, rect, *rest: calls.append(rect) or certified(walker, rect, *rest))
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
    # the lowest of the ten strips' cuts: every attempt hits one on a cut,
    # and the cell is reported with the last hit.
    c = zeros._SPLIT_FRAC
    roots = [complex(0.5, c / 10 + 1e-7 * k) for k in range(9)]
    fn = _poly_fn(*roots)
    batches = []
    batch = fn.batch
    fn.batch = lambda zs: batches.append(len(zs)) or batch(zs)
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    w, contour = _certified_winding(_Walker(fn), rect)
    assert w == 9
    batches.clear()
    records, unresolved = zeros._resolve_cell(fn, rect, 9, contour, DEFAULT_CONTOUR)
    assert not records
    assert [(u.rect, u.winding) for u in unresolved] == [(rect, 9)]
    assert unresolved[0].reason == "NearZeroOnContour: |F|=0 at 0.5+0.061804199j"
    # One batch of cut samples per attempt, nine attempts; the near-zero
    # check runs before any cut is certified.  (29 while a conservation
    # failure re-measured the parent at two denser levels.)
    assert len(batches) == 9


def test_split_point_outside_a_one_ulp_wide_cell():
    # A cell one ulp wide and less tall is cut across sigma; its cut rounds
    # onto its left edge, so it cannot be split, and nothing is evaluated.
    # (Two batches while a conservation failure re-measured the parent.)
    fn = _linear_fn(-5.0)
    rect = Rectangle(1.0, math.nextafter(1.0, 2.0), 0.0, 1e-16)
    walker = _Walker(fn)
    contour = _certified_winding(walker, rect)[1]
    before = walker.evals
    with pytest.raises(zeros.ContourError, match="^split point exhausted the cell$"):
        _split_cell(walker, rect, 1, contour)
    assert walker.evals == before


@pytest.mark.parametrize("text, sigma0", [
    ("zeta(s)^3", 0.51), ("zeta(s)^2", 0.501), ("zeta(s)^2", 0.5001),
    ("zeta(s)*zeta(s+1/10000)", 0.501),
])
def test_density_scan_beside_the_critical_line_counts_no_zero(text, sigma0):
    # Every zero of these lies on Re s = 1/2 or just left of it, so none is
    # in (sigma0, 2) x (1e-3, 30].  Two agreeing sampling levels counted 3
    # here: a 30-unit edge passing k zeros closely turns the phase by about
    # k*pi, and both levels aliased alike.
    scan = density_scan(parse_expr(text), sigma0, (30.0,))
    assert scan.counts == (0,) and scan.complete


def test_double_zeros_beside_an_edge_keep_their_multiplicity():
    # zeta(s)^2 on [0.499, 2] x [1e-3, 30]: three double zeros 1e-3 inside
    # the left edge, winding 6.  Two agreeing sampling levels gave winding 3
    # and three zeros of multiplicity 1, complete.
    e, rect = parse_expr("zeta(s)^2"), Rectangle(0.499, 2.0, 1e-3, 30.0)
    assert winding_number(e, rect) == 6
    res = localize_zeros(e, rect)
    if res.complete:
        assert [r.winding_mult for r in res.records] == [2, 2, 2]
        assert all(abs(r.location.z - _zeta_zero(n)) < 1e-8
                   for n, r in enumerate(res.records, start=1))
    else:
        assert all(r.winding_mult == 2 for r in res.records)


def test_double_zeros_beside_an_edge_take_few_batches(monkeypatch):
    # The segments of the left edge beside the three double zeros need many
    # rounds of refinement.  Cut into as many pieces as their certificate
    # needs, they take 319 eval_batch calls for 4,628 points; halved, one
    # round per depth, 645 calls for 4,263.  A split's cut whose end was
    # already a node of its cell's side took that node's values: evaluated
    # again, it made 4,629 batched points for 4,628 distinct ones.
    batches = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batches.append(zs.tolist()) or eval_batch(e, zs, cfg))
    res = localize_zeros(parse_expr("zeta(s)^2"), Rectangle(0.499, 2.0, 1e-3, 30.0))
    assert res.complete and [r.winding_mult for r in res.records] == [2, 2, 2]
    batched = [z for b in batches for z in b]
    assert len(batched) == len(set(batched))
    assert len(batches) <= 320


@lru_cache(maxsize=None)
def _zeta_zero(n: int) -> complex:
    return complex(mpmath.zetazero(n))


@settings(derandomize=True, max_examples=24, deadline=None)
@given(n=st.integers(1, 10), k=st.integers(1, 3), pair=st.booleans(),
       log_d=st.floats(-6.0, -1.0), side=st.sampled_from((-1.0, 1.0)), vertical=st.booleans())
# Two sampling levels gave one zero of multiplicity 1 here, and two of four.
@example(n=5, k=2, pair=False, log_d=-4.0, side=-1.0, vertical=True)
@example(n=9, k=1, pair=True, log_d=-3.0, side=-1.0, vertical=True)
def test_planted_zero_beside_an_edge_is_found_with_its_multiplicity(n, k, pair, log_d, side,
                                                                    vertical):
    # An edge 1e-6 <= d <= 0.1 from the n-th zero rho of zeta, on either side
    # of it: the left edge at Re s = 1/2 + side*d, or the bottom edge at
    # Im s = Im rho + side*d (d >= 1e-3 for zeta(s)^3), of a window 4.5 high
    # or 0.8 wide, whose edges two sampling levels sampled coarsely enough to
    # alias.  F is zeta(s)^k, or zeta(s)*zeta(s+1/10000), whose zeros are
    # those of zeta and the same less 1/10000.  A complete result holds
    # exactly the zeros inside, with their multiplicities.  Otherwise a cell
    # is unresolved, or the scan stops where its contour meets a zero as far
    # as the error bounds tell; a zero it reports is still a true one.
    if k == 3 and not pair:
        log_d = -3.0 + (log_d + 6.0) * 0.4
    d, rho = 10.0 ** log_d, _zeta_zero(n)
    rect = (Rectangle(0.5 + side * d, 1.5, rho.imag - 0.5, rho.imag + 4.0) if vertical
            else Rectangle(0.1, 0.9, rho.imag + side * d, rho.imag + 4.0))
    zeros_of_zeta = [_zeta_zero(m) for m in range(1, 13)]      # Im up to 56.4
    planted = ([(z - shift, 1) for z in zeros_of_zeta for shift in (0.0, 1e-4)] if pair
               else [(z, k) for z in zeros_of_zeta])
    text = "zeta(s)*zeta(s+1/10000)" if pair else f"zeta(s)^{k}"
    # A zero within the jitter retries' reach of the edge is on it, to the
    # scan: either answer is right.
    assume(all(rect.boundary_distance(z) > 1e-6 for z, _ in planted))
    inside = [(z, m) for z, m in planted if rect.strictly_contains(z)]
    try:
        res = localize_zeros(parse_expr(text), rect)
    except NearZeroOnContour:
        return
    for r in res.records:
        assert any(abs(r.location.z - z) < 1e-8 and r.winding_mult == m for z, m in inside)
    if res.complete:
        assert len(res.records) == len(inside)


def test_zeta_zeros_on_the_left_edge_are_found_after_a_jitter(monkeypatch):
    # The left edge Re s = 1/2 runs through zeros of zeta.  The segment
    # holding each fails at every bisection depth, so the segment rule says
    # the contour meets a zero, and the jitter retries push the rectangle
    # outward until the zeros are inside.  (Before the segment rule both
    # scans raised DepthExceeded: phase bisection depth > 40.)
    res = localize_zeros(ZETA, Rectangle(0.5, 2.0, 10.0, 20.0))
    assert res.complete and len(res.records) == 1
    assert abs(res.records[0].location.z - _zeta_zero(1)) < 1e-12
    # An edge through three zeros: 1,437 batched points and 18 scalar
    # evaluations (1,248 and 18 while every failing segment was halved: the
    # segments beside the zeros on the edge are cut into up to 16 pieces a
    # round before the segment rule halves them, so they take more points in
    # fewer rounds).
    counts = _count_evaluations(monkeypatch)
    res = localize_zeros(ZETA, Rectangle(0.5, 2.0, 1e-3, 30.0))
    assert res.complete and len(res.records) == 3
    assert all(abs(r.location.z - _zeta_zero(n)) < 1e-12
               for n, r in enumerate(res.records, start=1))
    assert counts == {"batched": 1_437, "scalar": 18}


@pytest.mark.parametrize("text", ["zeta(s)^2", "zeta(s)*zeta(s+1/10000)"])
def test_multiple_zero_just_below_the_bottom_edge_is_not_counted(text):
    # A double zero, or a pair 1e-4 apart, 1e-6 below the bottom edge of
    # [0.25, 0.75] x [g1 + 1e-6, g1 + 3], g1 = Im of zetazero(1): no zero is
    # inside.  |F| at a midpoint beside it fell below the near-zero floor of
    # 10 * zero_tol, and the scan raised NearZeroOnContour after its
    # jitters; the segments are certified now.
    g1 = _zeta_zero(1).imag
    res = localize_zeros(parse_expr(text), Rectangle(0.25, 0.75, g1 + 1e-6, g1 + 3.0))
    assert res.complete and not res.records


def test_sphere16_samples_within_their_error_meet_a_zero(monkeypatch):
    # sphere(16) on [0.6, 0.9] x [20, 25]: most contour samples have |F| (up
    # to about 1e15) within their abs_err, so the contour meets a zero as
    # far as the bounds tell, and each jitter attempt raises at its first
    # such sample after one batch of about 90 points.  Bisecting segments
    # that cannot pass exhausted the evaluation budget instead (2.75M
    # evaluations, 233 s on a 2-core machine), so the budget is lowered
    # here to keep that failure quick.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", 1_000)
    e = parse_expr("sphere(16)")
    with pytest.raises(NearZeroOnContour) as exc:
        localize_zeros(e, Rectangle(0.6, 0.9, 20.0, 25.0))
    v = eval_expr(e, exc.value.point)
    assert abs(v.z) <= v.abs_err
