import cmath
import gc
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zetazeros import (
    EvalConfig,
    completed_zeta,
    hurwitz_zeta,
    hurwitz_zeta_shifted,
    log_gamma,
    riemann_zeta,
)
from zetazeros.errors import BudgetExceeded, PoleProximity, ZetaError
from zetazeros.tables import BERNOULLI_MAX_INDEX, bernoulli_over_factorial
import zetazeros.zeta as zeta
from zetazeros.zeta import (
    EM_ORDER, MAX_TERMS, PREFIX_BLOCK, _em_cutoff, _hurwitz_em, _log_grid, hurwitz_pair, rpow,
)


@contextmanager
def _kernel(order=EM_ORDER, max_terms=MAX_TERMS):
    """The kernel at another Euler-Maclaurin order and term cap, patched where
    zeta.py reads them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta, "EM_ORDER", order)
        mp.setattr(zeta, "MAX_TERMS", max_terms)
        yield


def test_zeta_two():
    v = riemann_zeta(2)
    assert abs(v.z - math.pi**2 / 6) < 1e-10
    assert v.abs_err < 1e-12


def test_hurwitz_a1_equals_riemann():
    for s in (2.0, -0.7 + 3j, 0.5 + 21j, 3.2 - 9j):
        assert hurwitz_zeta(s, 1.0).z == riemann_zeta(s).z


def test_zeta_zero_value():
    # Independent check at two (N, M) settings, then the agreed value.
    a, _ = _hurwitz_em(0j, 1.0, 30, 10)
    b, _ = _hurwitz_em(0j, 1.0, 60, 14)
    assert abs(a - b) < 1e-14
    assert abs(a - (-0.5)) < 1e-13


def test_zeta_negative_one():
    assert abs(riemann_zeta(-1).z - (-1 / 12)) < 1e-12


def test_first_zero_small_residual():
    # Location derived by this package's own zero engine (see test_zeros).
    v = riemann_zeta(0.5 + 14.134725j)
    assert abs(v.z) < 1e-5


def test_conjugation_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = complex(rng.uniform(-2, 4), rng.uniform(0.1, 120))
        for f in (riemann_zeta, lambda z: hurwitz_zeta(z, 0.31)):
            assert f(s.conjugate()).z == f(s).z.conjugate()


def test_half_shift_identity():
    rng = np.random.default_rng(20240901)
    cfg = EvalConfig()
    for _ in range(20):
        s = complex(rng.uniform(-2, 3), rng.uniform(-50, 50))
        if abs(s - 1) < 0.05:
            s += 0.1
        lhs = hurwitz_zeta(s, 0.5, cfg).z
        rhs = (rpow(2.0, s) - 1) * riemann_zeta(s, cfg).z
        assert abs(lhs - rhs) < 10 * cfg.target_abs_err


def test_direct_sum_agreement_above_1_2():
    for s, a in ((1.25 + 3j, 1.0), (2.0 - 10j, 0.5), (1.3 + 40j, 0.3)):
        v = hurwitz_zeta(s, a)
        n = np.arange(0, 10**6, dtype=np.float64)
        direct = complex(np.exp(-s * np.log(n + a)).sum())
        tail = (10**6 + a) ** (1 - s.real) / (s.real - 1)
        assert abs(v.z - direct) <= v.abs_err + abs(tail)


def test_abs_err_honesty_two_settings():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        s = complex(rng.uniform(-2, 4), rng.uniform(-80, 80))
        if abs(s - 1) < 0.1:
            continue
        a = float(rng.choice([1.0, 0.5, 0.25, 0.8]))
        n_cut = int(_em_cutoff(s, a, EvalConfig()))
        v1, err1 = _hurwitz_em(s, a, n_cut, 12)
        v2, err2 = _hurwitz_em(s, a, 2 * n_cut, 16)
        assert abs(v1 - v2) <= max(err1, err2)
        checked += 1
    assert checked > 30


def test_shifted_entry_point():
    s = 2.3 - 4j
    direct = hurwitz_zeta(s, 0.5).z - rpow(0.5, -s) - rpow(1.5, -s)
    assert abs(hurwitz_zeta_shifted(s, 2.5).z - direct) < 1e-12
    assert hurwitz_zeta_shifted(s, 0.7).z == hurwitz_zeta(s, 0.7).z
    # integer shift: zeta(s, 3) = zeta(s) - 1 - 2^{-s}
    v = hurwitz_zeta_shifted(s, 3.0)
    assert abs(v.z - (riemann_zeta(s).z - 1 - rpow(2.0, -s))) < 1e-12


def test_shifted_against_mpmath():
    # a > 1 is summed directly at a; scaled error against a 30-digit reference.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(4)
    for a in (1.5, 2.0, 2.5, 3.7, 7.25):
        for t in (1.0, 100.0, 400.0):
            for _ in range(4):
                s = complex(rng.uniform(-2, 4), t + rng.uniform(-0.5, 0.5))
                ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), a))
                err = abs(hurwitz_zeta_shifted(s, a).z - ref)
                assert err <= 1e-10 * max(1.0, abs(ref)), (s, a)


def test_pole_guards():
    with pytest.raises(PoleProximity):
        riemann_zeta(1.0 + 1e-9j)
    with pytest.raises(PoleProximity):
        hurwitz_zeta(1.0, 0.3)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(ValueError):
        hurwitz_zeta_shifted(2.0, -1.0)


def test_budget_exceeded_unreachable_order():
    # Re(s) + 2M + 1 <= 0.5 can never converge at this order.
    with _kernel(order=2), pytest.raises(BudgetExceeded):
        riemann_zeta(-30.0 + 2j)
    with _kernel(max_terms=16), pytest.raises(BudgetExceeded):
        riemann_zeta(0.5 + 50j, EvalConfig(target_abs_err=1e-12))
    # The target needs N = 146 here, above max_terms: no cutoff past the cap.
    with _kernel(1, 100), pytest.raises(BudgetExceeded):
        riemann_zeta(2.0)


def test_em_order_bounded_by_the_bernoulli_table():
    # The remainder reads B_(2M+2); the table stops at B_68, so the constant
    # order's term is inside it, and M = 33, the largest order it allows,
    # agrees with the constant order.
    assert 2 * EM_ORDER + 2 <= BERNOULLI_MAX_INDEX == len(bernoulli_over_factorial()) - 1
    with _kernel(order=33):
        v = riemann_zeta(0.5 + 14j)
    assert abs(v.z - riemann_zeta(0.5 + 14j).z) < 1e-12


def test_log_gamma_values():
    assert abs(log_gamma(1).z) < 1e-13
    assert abs(log_gamma(5).z - math.log(24)) < 1e-13
    assert abs(log_gamma(0.5).z - math.log(math.sqrt(math.pi))) < 1e-12


def test_log_gamma_duplication_at_quarter():
    # Gamma(2z) = 2^{2z-1}/sqrt(pi) Gamma(z) Gamma(z+1/2) at z = 1/4 relates
    # log_gamma(1/2) to log_gamma(1/4) + log_gamma(3/4).
    lhs = log_gamma(0.5).z
    rhs = (log_gamma(0.25).z + log_gamma(0.75).z
           - 0.5 * math.log(2.0) - 0.5 * math.log(math.pi))
    assert abs(lhs - rhs) < 1e-12


def test_log_gamma_recurrence_consistency():
    for z in (0.3 + 2j, -0.2 + 5j, 2.5 - 7j):
        a = log_gamma(z + 1).z
        b = log_gamma(z).z + cmath.log(z)
        assert abs(a - b) < 1e-12


def test_log_gamma_pole():
    with pytest.raises(PoleProximity):
        log_gamma(0.0)
    with pytest.raises(PoleProximity):
        log_gamma(-3.0 + 1e-10j)


def test_completed_zeta_values():
    v = completed_zeta(2)
    assert abs(v.z - math.pi / 6) < 1e-10
    assert completed_zeta((0.7 + 3j).conjugate()).z == completed_zeta(0.7 + 3j).z.conjugate()


def test_completed_zeta_functional_equation():
    s = 0.3 + 5j
    assert abs(completed_zeta(s).z - completed_zeta(1 - s).z) < 1e-9


def test_completed_zeta_poles():
    for p in (0.0, 1.0):
        with pytest.raises(PoleProximity):
            completed_zeta(p + 1e-10)


def test_completed_zeta_underflow_keeps_its_error_bound():
    # pi^{-s/2} Gamma(s/2) is subnormal near t = 900 and 0 at t = 1000 and
    # 2000, where |xi| is 5e-342 and 2e-683; abs_err still covers mpmath's
    # value, and a batch gives the point's bits.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    zs = [0.7 + 900j, 0.7 + 1000j, 0.5 - 2000j, 2 + 1000j]
    values, errs = zeta.completed_zeta_pair(np.array(zs))
    for z, v, err in zip(zs, values.tolist(), errs.tolist()):
        s = mpmath.mpc(z.real, z.imag)
        ref = mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s)
        assert abs(mpmath.mpc(v) - ref) <= err <= 1e-307, z
        assert (v, err) == zeta.completed_zeta_pair(z)


def test_hurwitz_batch_matches_scalar():
    # Default and tight (order 4, target 1e-15) cutoffs, at several shifts.
    # Rows at t ~ 30000 are wider than one prefix block at every setting, so
    # each is a block of its own; at order 4 so are those at t ~ 7000.  A
    # batch value and its abs_err equal the point's bit for bit.
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(-1, 1, 6), rng.uniform(99, 101, 6),
                        rng.uniform(399, 401, 6), [7000.5, -7001.25, 30000.5, -30001.25]])
    s = rng.uniform(-0.5, 3.0, t.size) + 1j * t
    for order, cfg in ((EM_ORDER, EvalConfig()), (4, EvalConfig(target_abs_err=1e-15))):
        with _kernel(order):
            for a in (1.0, 0.5, 0.1, 2.5):
                assert (_em_cutoff(s, a, cfg)[-2:] > PREFIX_BLOCK).all()
                values, errs = hurwitz_pair(s, a, cfg)
                for z, v, err in zip(s.tolist(), values.tolist(), errs.tolist()):
                    ref = hurwitz_zeta_shifted(z, a, cfg)
                    assert (v, err) == (ref.z, ref.abs_err)


def test_log_grid_keeps_no_row_wider_than_a_block():
    # At Re(s) = -14 and t ~ 400 the cutoff is about 150,000 terms.  The
    # cache holds one PREFIX_BLOCK-long grid per shift, so these evaluations
    # may leave at most that behind, not one wide grid per distinct cutoff.
    for w in (1, 63, 64, 1000, PREFIX_BLOCK - 1, PREFIX_BLOCK, PREFIX_BLOCK + 64):
        assert _log_grid(1.0, w).tobytes() == np.log(np.arange(w, dtype=float) + 1.0).tobytes()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(400, 430):
            hurwitz_zeta_shifted(complex(-14.0, t), 1.0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _em_cutoff(complex(-14.0, 400.0), 1.0, EvalConfig()) > 10 * PREFIX_BLOCK
    assert kept <= 2 * 8 * PREFIX_BLOCK


SHIFTS = (1.0, 0.5, 0.1, 2.5, 8.5)
POINTS = st.builds(complex, st.floats(-15.0, 4.0), st.floats(-800.0, 800.0))


def _truncation_term(z, a, n):
    """2|B_{2M+2}/(2M+2)! (s)_{2M+1}| (N+a)^{-Re(s)-2M-1}, written out."""
    m = EM_ORDER
    factor = 2.0 * abs(bernoulli_over_factorial()[2 * m + 2])
    for j in range(2 * m + 1):
        factor *= abs(z + j)
    return factor * (n + a) ** -(z.real + 2 * m + 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.sampled_from(SHIFTS), zs=st.lists(POINTS, min_size=1, max_size=6))
def test_cutoff_is_smallest_meeting_target(a, zs):
    cfg = EvalConfig()
    batch = _em_cutoff(np.array(zs), a, cfg)
    for z, n in zip(zs, batch):
        assert _em_cutoff(z, a, cfg) == n
        floor = max(math.ceil(abs(z + 2 * EM_ORDER) / math.pi - a), 1)
        assert n >= floor
        assert _truncation_term(z, a, n) <= cfg.target_abs_err
        assert n == floor or _truncation_term(z, a, n - 1) > cfg.target_abs_err


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.sampled_from(SHIFTS),
       zs=st.lists(st.one_of(POINTS, st.sampled_from([1 + 0j, 1 + 1e-9j])), min_size=1, max_size=6))
@example(a=1.0, zs=[4 + 0j, -3 + 1j, 0.5 + 700j])       # order too small first
@example(a=0.5, zs=[4 + 0j, 1 + 1e-9j, -3 + 1j])        # pole guard first
@example(a=8.5, zs=[4 + 0j, 0.5 + 700j, -3 + 1j])       # max_terms first
def test_cutoff_errors_match_scalar(a, zs):
    # Order 1: Re(s) <= -2.5 is too low for the order, and large |t| needs
    # more than 100 terms.  The batch raises the scalar error of its first
    # failing point, in input order.
    with _kernel(1, 100):
        want = None
        for z in zs:
            try:
                hurwitz_zeta_shifted(z, a)
            except ZetaError as exc:
                want = exc
                break
        if want is None:
            hurwitz_pair(np.array(zs), a)
            return
        with pytest.raises(type(want)) as got:
            hurwitz_pair(np.array(zs), a)
    assert str(got.value) == str(want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=st.sampled_from(SHIFTS), order=st.sampled_from([12, 4]),
       zs=st.lists(POINTS, min_size=1, max_size=8))
# The point path rounded s + j + 1 twice in the chain, and took log(N + a)
# from the C library where the array path took numpy's (N + a = 148 + 1/3).
@example(a=1 / 3, order=12, zs=[-1.6451697434547998 + 17.34996850973232j])
@example(a=1 / 3, order=12, zs=[0.9748203624031646 + 380.09428620097094j])
def test_batch_matches_scalar_everywhere(a, order, zs):
    # max_terms keeps each draw fast; it still lets rows past PREFIX_BLOCK
    # through, which the batch sums as blocks of their own.  Points the scalar
    # path rejects are left out (test_cutoff_errors_match_scalar covers them).
    # The rest agree bit for bit, in value and in abs_err.
    with _kernel(order, 4 * PREFIX_BLOCK):
        refs = {}
        for z in zs:
            try:
                refs[z] = hurwitz_zeta_shifted(z, a)
            except ZetaError:
                pass
        assume(refs)
        values, errs = hurwitz_pair(np.array(list(refs)), a)
    for ref, v, err in zip(refs.values(), values.tolist(), errs.tolist()):
        assert (v, err) == (ref.z, ref.abs_err)


def test_pochhammer_chain_built_once_per_call(monkeypatch):
    # The cutoff and the tail share one chain, in the scalar path and in a
    # batch; the scalar cutoff stays a Python float.
    calls = []
    chain = zeta._pochhammer_chain
    monkeypatch.setattr(zeta, "_pochhammer_chain",
                        lambda s, order: calls.append(order) or chain(s, order))
    riemann_zeta(0.5 + 14j)
    assert calls == [12]
    calls.clear()
    with _kernel(order=4):
        hurwitz_pair(np.array([0.5 + 14j, 2 - 100j, -1 + 400j]), 0.5)
    assert calls == [4]
    assert type(_em_cutoff(0.5 + 14j, 1.0, EvalConfig(), chain(0.5 + 14j, 12))) is float
