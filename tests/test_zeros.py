import cmath
import math

import numpy as np
import pytest

from zetazeros.config import EvalConfig, DEFAULT_CONFIG
from zetazeros.errors import NearZeroOnContour, PoleProximity
from zetazeros.expr import eval_batch, parse_expr
from zetazeros.zeros import (
    ContourConfig,
    DEFAULT_CONTOUR,
    Rectangle,
    _boundary_scale,
    _split_cell,
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
        scale = _boundary_scale(reused, child, samples[child])
        assert reused.evals == 0
        assert scale == _boundary_scale(_Walker(fn, DEFAULT_CONTOUR), child)
