import cmath
import math

import numpy as np
import pytest

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
    _tightened,
    _Walker,
    critical_line_check,
    density_scan,
    expression_fn,
    localize_zeros,
    winding_number,
)

ZETA = parse_expr("zeta(s)")


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(1.0, 0.5, 0, 1)
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
    w = walker.winding(rect)
    kids = _split_cell(walker, rect, w, DEFAULT_CONTOUR)
    assert sum(wc for _, wc in kids) == w
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
    with pytest.raises(ValueError):
        density_scan(ZETA, 0.55, (100.0, 50.0))


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
        walker.winding(Rectangle(0.0, 1.0, -1.0, 1.0))


def test_wind_names_first_near_zero_and_bisects_wide_segments():
    walker = _Walker(lambda z: z, DEFAULT_CONTOUR)
    rect = Rectangle(-1.0, 1.0, -1.0, 1.0)
    # F(z) = z on a triangle around 0: every increment is 2pi/3, above the
    # pi/2 step, so each segment is bisected with fresh evaluations.
    pts = [cmath.exp(2j * math.pi * k / 3) for k in (0, 1, 2, 0)]
    assert walker.wind(rect, pts, pts) == 1
    assert walker.evals >= 3
    # Two samples below the near-zero floor: the error names the first in
    # contour order, not the smaller one.
    pts = walker.boundary_points(rect)
    vals = [1 + 0j] * len(pts)
    vals[9], vals[5] = 1e-15, 1e-12
    with pytest.raises(NearZeroOnContour) as exc:
        walker.wind(rect, pts, vals)
    assert exc.value.point == pts[5]


def test_contour_config_rejects_nonpositive_tolerances():
    for kwargs in ({"zero_tol": -1.0}, {"zero_tol": 0.0}, {"zero_tol": math.nan},
                   {"jitter": 0.0}, {"jitter": -1e-7}, {"min_cell": 0.0},
                   {"min_cell": -1e-9}, {"max_depth": 0}):
        with pytest.raises(ValueError):
            ContourConfig(**kwargs)
    ContourConfig(zero_tol=1e-12, jitter=1e-9, min_cell=1e-12, max_depth=1)


def test_eval_batch_split_invariance():
    # The distinct contour samples of the c12 root rectangle at all four
    # tightening levels: a value must not depend on the order or grouping of
    # the batch it is evaluated in.
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 1e-3, 100.0)
    zs = np.array(list(dict.fromkeys(
        z for k in range(4)
        for z in _Walker(None, _tightened(DEFAULT_CONTOUR, 2**k)).boundary_points(rect))))
    values, errs = eval_batch(e, zs)
    rev_values, rev_errs = eval_batch(e, zs[::-1])
    assert rev_values[::-1].tobytes() == values.tobytes()
    assert rev_errs[::-1].tobytes() == errs.tobytes()
    for size in (1, 7, 64):
        parts = [eval_batch(e, zs[i:i + size]) for i in range(0, len(zs), size)]
        assert np.concatenate([v for v, _ in parts]).tobytes() == values.tobytes()
        assert np.concatenate([r for _, r in parts]).tobytes() == errs.tobytes()


def test_split_cell_hands_children_their_samples():
    fn = expression_fn(parse_expr("zeta(s)^2-zeta(2*s)"), DEFAULT_CONFIG)
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    samples = {}
    kids = _split_cell(walker, rect, walker.winding(rect), DEFAULT_CONTOUR, samples)
    assert set(samples) == {child for child, _ in kids}
    for child, _ in kids:
        reused = _Walker(fn, DEFAULT_CONTOUR)
        pts, vals = reused.boundary(child, samples[child])
        assert reused.evals == 0
        fresh_pts, fresh_vals = _Walker(fn, DEFAULT_CONTOUR).boundary(child)
        assert pts == fresh_pts
        assert vals == fresh_vals
        assert _boundary_scale(vals) == _boundary_scale(fresh_vals)


def test_split_samples_children_in_one_batch_on_shared_edges(monkeypatch):
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(expression_fn(e, DEFAULT_CONFIG), DEFAULT_CONTOUR)
    w = walker.winding(rect)
    batches = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batches.append(len(zs)) or eval_batch(e, zs, cfg))
    samples = {}
    kids = [child for child, _ in _split_cell(walker, rect, w, DEFAULT_CONTOUR, samples)]
    assert batches == [len(set().union(*samples.values()))]
    # Children 0|1 and 3|2 share part of the vertical cut, 0/3 and 1/2 part
    # of the horizontal one: both sides hold the same points and values there.
    for a, b in ((0, 1), (3, 2), (0, 3), (1, 2)):
        shared = {z: v for z, v in samples[kids[a]].items() if kids[b].contains(z)}
        assert len(shared) > 2
        assert shared == {z: v for z, v in samples[kids[b]].items() if kids[a].contains(z)}


def test_start_point_of_linear_function():
    rect = Rectangle(-1.0, 2.0, -0.5, 1.5)
    pts = _Walker(None, DEFAULT_CONTOUR).boundary_points(rect)
    size = max(rect.width, rect.height)
    for z0 in (0.3 + 0.2j, -0.9 + 1.4j, 0.5 + 0.5j):
        assert abs(_start_point(rect, pts, [z - z0 for z in pts]) - z0) <= 1e-3 * size


def test_start_point_falls_back_to_centre():
    rect = Rectangle(-1.0, 2.0, -0.5, 1.5)
    pts = _Walker(None, DEFAULT_CONTOUR).boundary_points(rect)
    # Increments summing to 4pi (a double zero) or to 0 (no zero inside).
    assert _start_point(rect, pts, [(z - 0.3) ** 2 for z in pts]) == rect.center
    assert _start_point(rect, pts, [z - 5.0 for z in pts]) == rect.center
    # Winding 1 from two zeros and a pole inside: the moment a + b - c lies
    # outside the rectangle.
    a, b, c = 1.8 + 1.3j, 1.7 + 1.2j, -0.8 - 0.3j
    assert not rect.contains(a + b - c)
    assert _start_point(rect, pts, [(z - a) * (z - b) / (z - c) for z in pts]) == rect.center


def test_c12_evaluation_counts(monkeypatch):
    # Deterministic work counts of the c12 localisation, so that a lost saving
    # shows without timing.  Measured: 13,461 batched points and 412 scalar
    # evaluations (46,813 and 658 while each winding level, split round and
    # jitter attempt evaluated its contours afresh, the root split started at
    # level 0 and the start point used the principal increments; 82,260 and
    # 1,574 before Newton started at the argument-principle estimate and
    # splits were sampled in one batch).
    counts = {"batched": 0, "scalar": 0}

    def eval_batch_counted(e, zs, cfg):
        counts["batched"] += len(zs)
        return eval_batch(e, zs, cfg)

    def eval_expr_counted(e, z, cfg):
        counts["scalar"] += 1
        return eval_expr(e, z, cfg)

    monkeypatch.setattr(zeros, "eval_batch", eval_batch_counted)
    monkeypatch.setattr(zeros, "eval_expr", eval_expr_counted)
    res = localize_zeros(parse_expr("zeta(s)^2-zeta(2*s)"), Rectangle(0.55, 2.0, 1e-3, 100.0))
    assert len(res.records) == 13 and not res.unresolved
    assert counts["batched"] <= int(1.1 * 13_461)
    assert counts["scalar"] <= int(1.1 * 412)


def test_start_point_from_bisected_increments():
    # A zero 0.004 above the bottom edge, midway between two samples, times a
    # phase ramp exp(64iz): that segment's increment exceeds pi, so the
    # principal increments sum to 0, while wind's bisected ones resolve it.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    z0 = complex(20.5 / 64, 0.004)
    walker = _Walker(lambda z: (z - z0) * cmath.exp(64j * z), DEFAULT_CONTOUR)
    pts = walker.boundary_points(rect)
    vals = [walker.fn(z) for z in pts]
    assert _start_point(rect, pts, vals) == rect.center
    start = _start_point(rect, pts, vals, walker.increments(rect, pts, vals))
    assert rect.contains(start) and abs(start - z0) < 1e-3


def test_stable_winding_evaluates_each_distinct_point_once(monkeypatch):
    # The c12 root contour: each level is handed the values of the level
    # below, so the levels together evaluate only their distinct points, and
    # the winding equals that of fresh walkers at every level.
    e = parse_expr("zeta(s)^2-zeta(2*s)")
    rect = Rectangle(0.55, 2.0, 1e-3, 100.0)
    fn = expression_fn(e, DEFAULT_CONFIG)
    batched = []
    monkeypatch.setattr(zeros, "eval_batch",
                        lambda e, zs, cfg: batched.extend(zs) or eval_batch(e, zs, cfg))
    w, level = _stable_winding(fn, rect, DEFAULT_CONTOUR)
    walkers = [_Walker(fn, _tightened(DEFAULT_CONTOUR, 2**k)) for k in range(level + 2)]
    distinct = set().union(*(wk.boundary_points(rect) for wk in walkers))
    assert len(batched) == len(distinct) == 2_112
    assert [wk.winding(rect) for wk in walkers][-2:] == [w, w]


def _linear_fn(z0):
    fn = lambda z: z - z0
    fn.batch = lambda zs: [z - z0 for z in zs]
    return fn


def test_split_near_zero_hit_moves_the_split_point():
    # F = z - z0 with z0 where the golden-ratio cut lines cross: every child
    # contour passes through the zero, so the split moves by one jitter step.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    cx = cy = zeros._SPLIT_FRAC
    z0 = complex(cx, cy)
    kids = _split_cell(_Walker(_linear_fn(z0), DEFAULT_CONTOUR), rect, 1, DEFAULT_CONTOUR)
    assert kids[0][0].sigma_hi == cx + DEFAULT_CONTOUR.jitter
    assert kids[0][0].t_hi == cy + DEFAULT_CONTOUR.jitter
    assert [w for _, w in kids] == [1, 0, 0, 0]


def test_split_conservation_failure_densifies_at_once():
    # A parent winding of 2 that the children (one zero) cannot conserve: the
    # round ends after one attempt, and the next re-measures the parent at
    # the denser level and splits at the same point without jitter.
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    fn = _linear_fn(0.3 + 0.3j)
    batches = []
    batch = fn.batch
    fn.batch = lambda zs: batches.append(len(zs)) or batch(zs)
    kids = _split_cell(_Walker(fn, DEFAULT_CONTOUR), rect, 2, DEFAULT_CONTOUR)
    assert len(batches) == 3        # children, then parent and children denser
    assert kids[0][0].sigma_hi == rect.sigma_lo + zeros._SPLIT_FRAC * rect.width
    assert [w for _, w in kids] == [1, 0, 0, 0]


def test_split_counts_against_the_cell_budget(monkeypatch):
    fn = expression_fn(parse_expr("zeta(s)^2-zeta(2*s)"), DEFAULT_CONFIG)
    rect = Rectangle(0.55, 2.0, 30.0, 60.0)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    w = walker.winding(rect)
    before = walker.evals
    samples = {}
    _split_cell(walker, rect, w, DEFAULT_CONTOUR, samples)
    split_evals = walker.evals - before
    assert split_evals >= len(set().union(*samples.values()))
    # The split alone fits this budget, but not on top of the cell's contour.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", walker.evals - 1)
    walker = _Walker(fn, DEFAULT_CONTOUR)
    walker.winding(rect)
    with pytest.raises(DepthExceeded, match="budget"):
        _split_cell(walker, rect, w, DEFAULT_CONTOUR)
    # A cell whose split exhausts the budget is reported, with the reason.
    monkeypatch.setattr(zeros, "_CELL_EVAL_BUDGET", split_evals - 1)
    records, unresolved = zeros._resolve_cell(fn, rect, w, DEFAULT_CONTOUR)
    assert not records
    assert [(u.rect, u.winding) for u in unresolved] == [(rect, w)]
    assert unresolved[0].reason == "DepthExceeded: per-cell evaluation budget exhausted"
