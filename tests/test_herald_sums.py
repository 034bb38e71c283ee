"""p_d and the quadrature variances from the three herald sums.

``observables`` reads p_d and the variances off H[m, m], H[m - 1, m - 1]
and H[m - 2, m], the Taylor coefficients of the two-variable herald
exponent, with no Taylor box and no order cap. These tests hold them
against the Taylor boxes they replaced (m <= 12), against 40-digit sums
from the same float inputs (m up to 200), and at the edges where p_d is
exactly 0 or 1.
"""

import math

import mpmath
import numpy as np
import pytest

from mssvs import genfunc
from mssvs import observables as obs
from mssvs.circuit import CircuitParams, derived_coefficients
from mssvs.errors import CapacityError, UndefinedStateError

from conftest import columns_of
from moment_reference import box_probability, box_variances, moment_exponent
from test_genfunc import circuit_points


def herald_coefficient(c, d, i, j):
    """H[i, j] = sum_k c^k/k! (d/2)^(a + b)/(a! b!), term by term, in mpmath."""
    if min(i, j) < 0 or (i - j) % 2:
        return mpmath.mpf(0)
    total = mpmath.mpf(0)
    for k in range(i % 2, min(i, j) + 1, 2):
        a, b = (i - k) // 2, (j - k) // 2
        total += (c**k / mpmath.factorial(k)
                  * (d / 2) ** (a + b) / (mpmath.factorial(a) * mpmath.factorial(b)))
    return total


def forty_digit_observables(params):
    """(p_d, Var(X), Var(P)) from 40-digit herald sums.

    The inputs are the float c, d, alpha, beta, A23 and A22 of the moment
    exponent and the float eps4; the moments are
    <a†a> = A23 + (2 alpha beta H[m-2,m] + (alpha² + beta²) H[m-1,m-1])/H[m,m] and
    <a†²> = A22 + ((alpha² + beta²) H[m-2,m] + 2 alpha beta H[m-1,m-1])/H[m,m].
    """
    dc = derived_coefficients(params)
    a = moment_exponent(dc).a
    with mpmath.workdps(40):
        d, c, alpha, beta, a22, a23 = (
            mpmath.mpf(float(v)) for v in (a[0, 0], a[0, 1], a[0, 2], a[1, 2], a[2, 2], a[2, 3])
        )
        m = params.m
        h_mm = herald_coefficient(c, d, m, m)
        h_m1 = herald_coefficient(c, d, m - 1, m - 1)
        h_m2 = herald_coefficient(c, d, m - 2, m)
        pd = mpmath.factorial(m) * h_mm / mpmath.sqrt(mpmath.mpf(float(dc.eps4)))
        n_mean = a23 + (2 * alpha * beta * h_m2 + (alpha**2 + beta**2) * h_m1) / h_mm
        adag2 = a22 + ((alpha**2 + beta**2) * h_m2 + 2 * alpha * beta * h_m1) / h_mm
        return pd, n_mean + adag2 + mpmath.mpf(0.5), n_mean - adag2 + mpmath.mpf(0.5)


def assert_close(got, want, rel):
    assert abs(mpmath.mpf(float(got)) - want) <= rel * abs(want), (got, want)


def test_match_the_taylor_boxes():
    # p_d against the herald box, Var(X) and Var(P) against the (m, m, 2, 2)
    # moment box, on seeded points up to m = 12
    rng = np.random.default_rng(28)
    for _ in range(200):
        params = CircuitParams(rng.uniform(0, 1.5), rng.uniform(0, 0.5), rng.uniform(0, 0.5),
                               rng.uniform(0.02, 1.0), int(rng.integers(0, 13)))
        pd = obs.success_probability(params)
        assert pd == pytest.approx(box_probability(params), rel=1e-12, abs=0)
        if pd == 0.0:
            continue
        var = obs.variances(params)
        var_x, var_p = box_variances(params)
        assert var.var_x == pytest.approx(var_x, rel=1e-12, abs=0)
        assert var.var_p == pytest.approx(var_p, rel=1e-12, abs=0)


LARGE_M_CASES = [
    # lossless: an unscaled sum underflows to p_d = 0 at m = 128
    *[((0.5, 0.0, 0.0, 0.97), m) for m in (33, 64, 128)],
    *[(point, m)
      for point in [(1.0, 0.1, 0.1, 0.9), (2.0, 0.2, 0.1, 0.7), (3.0, 0.1, 0.1, 0.9)]
      for m in (33, 64, 128, 200)],
]


@pytest.mark.parametrize("point,m", LARGE_M_CASES)
def test_large_m_against_forty_digit_sums(point, m):
    params = CircuitParams(*point, m)
    pd, var_x, var_p = forty_digit_observables(params)
    assert pd > mpmath.mpf(1e-300)
    assert_close(obs.success_probability(params), pd, 1e-13)
    var = obs.variances(params)
    assert_close(var.var_x, var_x, 1e-13)
    assert_close(var.var_p, var_p, 1e-13)


@pytest.mark.parametrize("point,m", [((0.5, 0.0, 0.0, 0.97), 200), ((1e-4, 0.05, 0.05, 0.9), 64)])
def test_variances_where_p_d_leaves_the_normal_range(point, m):
    # the variances are ratios of the sums, so they keep their digits where
    # p_d itself is below the normal float range
    params = CircuitParams(*point, m)
    pd, var_x, var_p = forty_digit_observables(params)
    assert pd < mpmath.mpf(2.2e-308)
    assert obs.success_probability(params) < 2.2e-308
    var = obs.variances(params)
    assert_close(var.var_x, var_x, 1e-13)
    assert_close(var.var_p, var_p, 1e-13)


# c = d = 0: complete loss in either arm, no squeezing, or T = 1
UNCOUPLED = [(0.7, 1.0, 0.1, 0.9), (0.7, 0.1, 1.0, 0.9), (0.0, 0.1, 0.1, 0.9),
             (0.7, 0.1, 0.1, 1.0)]


@pytest.mark.parametrize("m", [1, 2, 33, 64])
@pytest.mark.parametrize("point", UNCOUPLED)
def test_p_d_is_exactly_zero_without_couplings(point, m):
    params = CircuitParams(*point, m)
    assert obs.success_probability(params) == 0.0
    batch = obs.success_probability(columns_of([params, CircuitParams(1.0, 0.3, 0.0, 0.5, m)]))
    assert batch[0] == 0.0 and batch[1] > 0.0
    with pytest.raises(UndefinedStateError):
        obs.variances(params)


@pytest.mark.parametrize("eta", [0.3, 1.0])
def test_p_d_is_exactly_one_for_vacuum_heralded_on_zero(eta):
    assert obs.success_probability(CircuitParams(0.0, eta, eta, 0.5, 0)) == 1.0


def test_no_taylor_box(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a Taylor box was built")

    monkeypatch.setattr(obs, "taylor_coefficient_box", refuse)
    monkeypatch.setattr(genfunc, "_hermite_box", refuse)
    for m in (0, 3, 12, 40):
        points = [p for p in circuit_points(m, count=6) if obs.success_probability(p) > 0]
        obs.success_probability(columns_of(points))
        obs.variances(points[0])
        obs.variances(columns_of(points))
        obs.squeezing_threshold_scan(m, 0.9, 0.05, 0.05, r_max=1.0)


def test_p_n_and_wigner_still_refuse_m_33(monkeypatch):
    boxes = []
    original = obs.taylor_coefficient_box

    def capture(exponent, caps, *args, **kwargs):
        boxes.append(caps)
        return original(exponent, caps, *args, **kwargs)

    monkeypatch.setattr(obs, "taylor_coefficient_box", capture)
    params = CircuitParams(1.0, 0.1, 0.1, 0.9, 33)
    for call in (lambda: obs.pnd_vector(params), lambda: obs.wigner(params, 0.0, 0.0)):
        with pytest.raises(CapacityError) as info:
            call()
        assert str(info.value) == "total derivative order 66 exceeds the cap 64"
    # P(n) refuses before any box; the Wigner box refuses itself
    assert boxes == [(33, 33)]
    assert math.isfinite(obs.variances(params).var_p)
