"""Closed-form observable tests: trivial limits, baselines, properties."""

import math
import warnings

import numpy as np
import pytest

from mssvs.circuit import CircuitColumns, CircuitParams, derived_coefficients
from mssvs.errors import NumericalConsistencyError, ParameterDomainError, UndefinedStateError
from mssvs.genfunc import QuadraticExponent
from mssvs import observables as obs

from conftest import columns_of
from moment_reference import moment, svs_moment
from test_genfunc import circuit_points


def assert_same_number(got, want):
    """Relative 1e-12, or absolute 1e-15 for values below 1e-3."""
    if max(abs(got), abs(want)) < 1e-3:
        assert abs(got - want) <= 1e-15, (got, want)
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0), (got, want)


def heralded(points):
    return [p for p in points if obs.success_probability(p) > 0]


def pnd_points(m):
    """Seeded points plus the T = 0, T = 1, eta1 = 1 and r = 2.5 cases."""
    rng = np.random.default_rng(90 + m)
    points = [
        CircuitParams(rng.uniform(0, 2.5), rng.uniform(0, 0.6), rng.uniform(0, 0.6),
                      rng.uniform(0.02, 1), m)
        for _ in range(5)
    ]
    edges = [(0.7, 0.1, 0.1, 0.0), (0.7, 0.1, 0.1, 1.0), (0.7, 1.0, 0.1, 0.9),
             (2.5, 0.05, 0.05, 0.9)]
    return points + [CircuitParams(*edge, m) for edge in edges]


def four_variable_pnd(dc, pd, m, n_max):
    """P(0..n_max) from the diagonal of one box over (mu, nu, s, t).

    The reference for the two-box split: the whole exponent, its (s, t)
    block put back, in a box with caps (m, m, n_max, n_max). Its s and t
    carry the exponents' factor 2, so the diagonal carries 4^n and stays
    out of the subnormal range up to n = 170; up to n = 64 the values are
    bit for bit those of the unscaled box.
    """
    coupling, photon = obs._pnd_exponents(dc)
    a = np.array(coupling.a)
    a[2:, 2:] = photon.a
    caps = (m, m, n_max, n_max)
    box = obs.taylor_coefficient_box(
        QuadraticExponent(a), caps, max_total_order=sum(caps)
    )
    raw = np.diagonal(box[m, m])
    norm = np.asarray(pd * np.sqrt(dc.eps4 * dc.kappa4))[..., None]
    scales = np.array([math.factorial(n) / 4.0**n for n in range(n_max + 1)])
    values = raw * float(math.factorial(m)) * scales / norm
    return np.where(values > 1.0, 1.0, np.where(values < 0.0, 0.0, values))


def power_table_contraction(box, b_mu, b_nu):
    """The Wigner contraction as tables of b^(m-i)/(m-i)! and one ``einsum``
    per point: the reference for the Horner pass of ``_wigner_contraction``."""
    m = box.shape[0] - 1
    powers_mu = np.ones(b_mu.shape + (m + 1,), dtype=complex)
    powers_nu = np.ones(b_nu.shape + (m + 1,), dtype=complex)
    if m:
        powers_mu[..., m - 1] = b_mu
        powers_nu[..., m - 1] = b_nu
    for d in range(2, m + 1):
        powers_mu[..., m - d] = b_mu**d / math.factorial(d)
        powers_nu[..., m - d] = b_nu**d / math.factorial(d)
    boxes = np.moveaxis(box.reshape(m + 1, m + 1, -1), -1, 0)
    rows = (-1, b_mu.shape[-1], m + 1)
    return np.array([
        np.einsum("ij,pi,pj->p", point_box, mu, nu)
        for point_box, mu, nu in zip(boxes, powers_mu.reshape(rows), powers_nu.reshape(rows))
    ]).reshape(b_mu.shape)


def doubling_length(params):
    """Length of the adaptive vector as grown 16 -> 32 -> 64 until the tail
    target is met, the way adaptive ``pnd_vector`` used to evaluate it."""
    dc = derived_coefficients(params)
    pd = obs.success_probability(params)
    size = 16
    while True:
        size = min(size, obs.PND_N_CAP)
        values = obs._pnd_values(params, dc, pd, size)
        reached = np.nonzero(np.cumsum(values) >= 1.0 - obs.PND_TAIL_TOL)[0]
        if reached.size:
            return reached[0] + 1
        if size >= obs.PND_N_CAP:
            return size + 1
        size *= 2


class TestSuccessProbability:
    def test_vacuum_heralded_on_zero(self):
        assert obs.success_probability(CircuitParams(0, 0, 0, 0.5, 0)) == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_vacuum_cannot_herald_photons(self, m):
        assert obs.success_probability(CircuitParams(0, 0, 0, 0.5, m)) == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_complete_loss_kills_heralding(self, m):
        assert obs.success_probability(CircuitParams(0.5, 1.0, 0, 0.5, m)) == 0.0
        assert obs.success_probability(CircuitParams(0.5, 0, 1.0, 0.5, m)) == 0.0

    def test_single_photon_closed_form(self):
        params = CircuitParams(0.5, 0.02, 0.02, 0.97, 1)
        dc = derived_coefficients(params)
        closed = (1.0 - dc.eps1 / dc.eps4) / math.sqrt(dc.eps4)
        assert obs.success_probability(params) == pytest.approx(closed, rel=1e-13)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            params = CircuitParams(
                r=rng.uniform(0, 1.2),
                eta1=rng.uniform(0, 1),
                eta2=rng.uniform(0, 1),
                T=rng.uniform(0, 1),
                m=int(rng.integers(0, 4)),
            )
            assert 0.0 <= obs.success_probability(params) <= 1.0

    def test_monotone_in_detection_loss(self):
        values = [
            obs.success_probability(CircuitParams(0.7, 0.05, eta2, 0.9, 1))
            for eta2 in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]) if b > 0)
        assert values[-1] == 0.0


class TestMoments:
    """The test-side moment-box reference, which ``variances`` is checked against."""

    def test_mean_displacement_vanishes(self):
        params = CircuitParams(0.7, 0.1, 0.05, 0.9, 2)
        assert abs(moment(params, 1, 0)) < 1e-14
        assert abs(moment(params, 0, 1)) < 1e-14

    def test_hermiticity(self):
        # the exponent is real, so <a†^k a^l> is real and symmetric in (k, l)
        params = CircuitParams(0.6, 0.2, 0.1, 0.8, 1)
        for k, l in [(1, 0), (2, 0), (2, 1)]:
            assert type(moment(params, k, l)) is float
            assert moment(params, k, l) == pytest.approx(moment(params, l, k), abs=1e-10)

    def test_svs_mean_photon(self):
        for r in (0.3, 0.7, 1.0):
            lam = math.tanh(r)
            assert svs_moment(r, 1, 1) == pytest.approx(lam**2 / (1 - lam**2), rel=1e-12)
            assert svs_moment(r, 1, 1) == pytest.approx(math.sinh(r) ** 2, rel=1e-12)

    def test_pipeline_svs_limit(self):
        # T = 1, m = 0, lossless reduces to the squeezed vacuum itself
        params = CircuitParams(0.8, 0, 0, 1.0, 0)
        assert moment(params, 1, 1) == pytest.approx(math.sinh(0.8) ** 2, rel=1e-12)

    def test_moment_pnd_consistency(self):
        params = CircuitParams(0.7, 0.1, 0.1, 0.9, 2)
        dist = obs.pnd_vector(params)
        mean = sum(n * p for n, p in enumerate(dist))
        assert moment(params, 1, 1) == pytest.approx(mean, abs=1e-8)

    def test_undefined_state(self):
        with pytest.raises(UndefinedStateError):
            moment(CircuitParams(0, 0, 0, 0.5, 1), 1, 1)

    def test_orders_past_170_are_a_domain_error(self):
        # float(k!) overflows from k = 171 on
        params = CircuitParams(0.5, 0.1, 0.1, 0.9, 1)
        with pytest.raises(ParameterDomainError, match="170"):
            moment(params, 171, 0)
        with pytest.raises(ParameterDomainError, match="170"):
            moment(params, 0, 171)


class TestVariances:
    def test_vacuum(self):
        var = obs.variances(CircuitParams(0, 0, 0, 0.5, 0))
        assert var.var_x == pytest.approx(0.5)
        assert var.var_p == pytest.approx(0.5)

    def test_svs_closed_form(self):
        for r in (0.5, 0.7, 1.0):
            var = obs.svs_variances(r)
            assert var.var_x == pytest.approx(0.5 * math.exp(2 * r), rel=1e-14)
            assert var.var_p == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-14)

    def test_pipeline_svs_limit(self):
        r = 0.6
        var = obs.variances(CircuitParams(r, 0, 0, 1.0, 0))
        assert var.var_x == pytest.approx(0.5 * math.exp(2 * r), rel=1e-12)
        assert var.var_p == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)

    def test_above_threshold_squeezing(self):
        var = obs.variances(CircuitParams(0.7, 0, 0, 0.9, 1))
        assert var.var_p < 0.5

    def test_heisenberg(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            params = CircuitParams(
                r=rng.uniform(0.05, 1.1),
                eta1=rng.uniform(0, 0.5),
                eta2=rng.uniform(0, 0.5),
                T=rng.uniform(0.2, 1.0),
                m=int(rng.integers(0, 4)),
            )
            var = obs.variances(params)
            assert var.var_x * var.var_p >= 0.25 - 1e-10


def bisection_threshold(m, T, eta1, eta2, r_max):
    """r_c by scalar calls: the coarse grid, then bisection of its first bracket."""

    def excess(r):
        return obs.variances(CircuitParams(r, eta1, eta2, T, m)).var_p - obs.VACUUM_VARIANCE

    step = obs.THRESHOLD_SCAN_STEP
    inner = [step * i for i in range(1, math.ceil(r_max / step) + 1)]
    grid = [obs.THRESHOLD_R_MIN, *(r for r in inner if obs.THRESHOLD_R_MIN < r < r_max), r_max]
    values = [excess(r) for r in grid]
    for lo, hi, f_lo, f_hi in zip(grid, grid[1:], values, values[1:]):
        if f_lo * f_hi < 0.0:
            break
    else:
        return None
    while hi - lo > obs.THRESHOLD_R_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


class TestSqueezingThreshold:
    @pytest.mark.parametrize(
        "m,eta,expected",
        [
            (1, 0.0, 0.626381),
            (1, 0.1, 0.609918),
            (3, 0.0, 0.396049),
            (3, 0.1, 0.387008),
        ],
    )
    def test_reported_thresholds(self, m, eta, expected):
        r_c = obs.squeezing_threshold(m, 0.9, eta, eta)
        assert r_c == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_double_subtraction_always_squeezed(self, eta):
        scan = obs.squeezing_threshold_scan(2, 0.9, eta, eta)
        assert scan.r_c is None
        assert scan.status == "always-squeezed"

    def test_threshold_is_a_root(self):
        r_c = obs.squeezing_threshold(1, 0.9, 0.0, 0.0)
        var = obs.variances(CircuitParams(r_c, 0, 0, 0.9, 1))
        assert var.var_p == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("r_max", [0.02, 0.07, 0.12, 3.0])
    def test_coarse_grid_is_one_batch_ending_at_r_max(self, monkeypatch, r_max):
        original = obs.variances
        batches = []

        def recording(params):
            if isinstance(params, CircuitColumns):
                batches.append(params.r.tolist())
            return original(params)

        monkeypatch.setattr(obs, "variances", recording)
        scan = obs.squeezing_threshold_scan(1, 0.9, 0.0, 0.0, r_max=r_max)
        grid = batches[0]
        assert grid[0] == obs.THRESHOLD_R_MIN and grid[-1] == r_max
        assert all(0 < b - a <= obs.THRESHOLD_SCAN_STEP + 1e-12 for a, b in zip(grid, grid[1:]))
        assert scan.status == ("threshold" if r_max > 0.7 else "never-squeezed")

    @pytest.mark.parametrize("m,T,eta", [(1, 0.9, 0.0), (3, 0.9, 0.1), (5, 0.9, 0.05)])
    def test_refinement_is_four_batched_passes(self, monkeypatch, m, T, eta):
        original = obs.variances
        batches = []

        def recording(params):
            assert not isinstance(params, CircuitParams), "scalar variances call"
            batches.append(len(params))
            return original(params)

        monkeypatch.setattr(obs, "variances", recording)
        scan = obs.squeezing_threshold_scan(m, T, eta, eta)
        assert scan.status == "threshold"
        assert len(batches) <= 1 + 4
        assert batches[1:] == [obs.THRESHOLD_SPLIT - 1] * (len(batches) - 1)

    @pytest.mark.parametrize(
        "m,T,eta,r_max",
        [(1, 0.9, 0.0, 3.0), (1, 0.9, 0.1, 0.73), (3, 0.9, 0.1, 2.5), (1, 0.5, 0.05, 3.0),
         (5, 0.9, 0.05, 0.41), (3, 0.8, 0.2, 0.42), (3, 0.97, 0.0, 0.41)],
    )
    def test_matches_bisection(self, m, T, eta, r_max):
        expected = bisection_threshold(m, T, eta, eta, r_max)
        r_c = obs.squeezing_threshold(m, T, eta, eta, r_max=r_max)
        assert expected is not None
        assert abs(r_c - expected) <= obs.THRESHOLD_R_TOL

    @pytest.mark.parametrize("r_max", [-1.0, 0.0, obs.THRESHOLD_R_MIN, math.nan, math.inf])
    def test_unscanned_range_is_a_domain_error(self, r_max):
        # nothing above THRESHOLD_R_MIN is searched, so no status can be reported
        with pytest.raises(ParameterDomainError, match="r_max"):
            obs.squeezing_threshold_scan(1, 0.9, 0.0, 0.0, r_max=r_max)

    def test_r_max_past_the_r_domain_is_refused_before_any_grid(self, monkeypatch):
        # tanh(1e5) rounds to 1; the refusal must not wait for a grid of
        # r_max / THRESHOLD_SCAN_STEP points to reach the domain limit
        monkeypatch.setattr(obs, "variances", lambda params: pytest.fail("variances called"))
        with pytest.raises(ParameterDomainError, match=r"^r = 100000\.0 is too large"):
            obs.squeezing_threshold_scan(1, 0.9, 0.0, 0.0, r_max=1e5)


class TestPhotonNumberDistribution:
    def test_svs_closed_form_values(self):
        for r in (0.5, 0.7, 1.0):
            lam = math.tanh(r)
            assert obs.svs_pnd(r, 0) == pytest.approx(math.sqrt(1 - lam**2), rel=1e-14)
            assert obs.svs_pnd(r, 2) == pytest.approx(
                lam**2 * math.sqrt(1 - lam**2) / 2, rel=1e-14
            )
            assert obs.svs_pnd(r, 1) == 0.0
            assert obs.svs_pnd(r, 7) == 0.0

    def test_pipeline_svs_limit(self):
        params = CircuitParams(0.7, 0, 0, 1.0, 0)
        for n in range(9):
            assert obs.pnd(params, n) == pytest.approx(obs.svs_pnd(0.7, n), abs=1e-12)
        dist = obs.pnd_vector(params, 120)
        for n in range(121):
            assert dist[n] == pytest.approx(obs.svs_pnd(0.7, n), abs=1e-12)

    def test_lossless_parity_selection(self):
        odd = obs.pnd_vector(CircuitParams(0.7, 0, 0, 0.9, 1), 9)
        even = obs.pnd_vector(CircuitParams(0.7, 0, 0, 0.9, 2), 9)
        assert all(p < 1e-12 for p in odd[0::2])
        assert all(p > 0 for p in odd[1::2])
        assert all(p < 1e-12 for p in even[1::2])

    def test_loss_populates_both_parities(self):
        dist = obs.pnd_vector(CircuitParams(0.7, 0.1, 0.1, 0.9, 1), 8)
        assert all(p > 1e-6 for p in dist)

    def test_adaptive_normalization(self):
        for params in [
            CircuitParams(0.5, 0, 0, 0.9, 1),
            CircuitParams(1.0, 0.1, 0.1, 0.8, 3),
            CircuitParams(0.3, 0.3, 0.05, 0.97, 2),
        ]:
            dist = obs.pnd_vector(params)
            assert dist.sum() >= 1.0 - 1e-8

    @pytest.mark.parametrize("m", [0, 1, 3, 8])
    def test_vector_equals_per_entry_loop(self, m):
        # the array form must keep the per-n arithmetic: equal, not close
        params = CircuitParams(1.1, 0.2, 0.05, 0.93, m)
        n_max = 60
        dc = derived_coefficients(params)
        pd = obs.success_probability(params)
        diagonal = obs._pnd_diagonal(dc, m, n_max)
        norm = pd * math.sqrt(dc.eps4 * dc.kappa4)
        expected = [
            min(max(complex(diagonal[n]).real
                    * math.factorial(m) * (math.factorial(n) / 4.0**n) / norm, 0.0), 1.0)
            for n in range(n_max + 1)
        ]
        assert obs.pnd_vector(params, n_max).tolist() == expected

    @pytest.mark.parametrize("m", range(11))
    def test_matches_the_four_variable_box(self, m):
        points = heralded(pnd_points(m))
        columns = columns_of(points)
        dc = derived_coefficients(columns)
        pd = obs.success_probability(columns)
        reference = four_variable_pnd(dc, pd, m, 64)
        for n_max in (0, 1, 3, 10, 64):
            for row, want in zip(obs.pnd_vector(columns, n_max), reference):
                for got, value in zip(row, want):
                    assert_same_number(got, value)
        # n_max = 170 at r = 2.5, where P(170) is not negligible; the
        # reference box holds (m + 1)^2 171^2 cells
        columns = columns_of(points[-1:])
        dc = derived_coefficients(columns)
        reference = four_variable_pnd(dc, obs.success_probability(columns), m, 170)
        for row, want in zip(obs.pnd_vector(columns, 170), reference):
            for got, value in zip(row, want):
                assert_same_number(got, value)

    @pytest.mark.parametrize("m", [0, 1, 3, 8])
    def test_rows_equal_per_point_calls_and_shorter_vectors(self, m):
        # an entry depends neither on its batch nor on the length asked for
        points = heralded(pnd_points(m))
        batch = obs.pnd_vector(columns_of(points), obs.PND_N_CAP)
        for point, row in zip(points, batch):
            assert obs.pnd_vector(point, obs.PND_N_CAP).tolist() == row.tolist()
            for n_max in (0, 3, 2 * m + 1, 16, 33):
                assert obs.pnd_vector(point, n_max).tolist() == row[: n_max + 1].tolist()

    @pytest.mark.parametrize("m", [0, 1, 3, 8])
    def test_adaptive_vector_is_the_capped_vector_trimmed(self, m):
        for point in heralded(pnd_points(m)):
            capped = obs.pnd_vector(point, obs.PND_N_CAP)
            reached = np.nonzero(np.cumsum(capped) >= 1.0 - obs.PND_TAIL_TOL)[0]
            length = reached[0] + 1 if reached.size else obs.PND_N_CAP + 1
            adaptive = obs.pnd_vector(point)
            assert adaptive.tolist() == capped[:length].tolist()
            assert len(adaptive) == doubling_length(point)

    def test_fixed_length(self):
        dist = obs.pnd_vector(CircuitParams(0.5, 0, 0, 0.9, 1), 12)
        assert dist.shape == (13,)

    def test_photon_numbers_past_170_are_a_domain_error(self):
        # float(n!) overflows from n = 171 on
        params = CircuitParams(1.0, 0, 0, 0.9, 1)
        assert obs.pnd_vector(params, 170).shape == (171,)
        with pytest.raises(ParameterDomainError, match="170"):
            obs.pnd_vector(params, 171)
        with pytest.raises(ParameterDomainError, match="170"):
            obs.pnd(params, 171)


class TestWigner:
    def test_svs_origin(self):
        assert obs.svs_wigner(0.7, 0, 0).w == pytest.approx(2 / math.pi, rel=1e-14)
        point = obs.wigner(CircuitParams(0.7, 0, 0, 1.0, 0), 0, 0)
        assert point.w == pytest.approx(2 / math.pi, rel=1e-12)

    def test_pipeline_svs_limit_off_origin(self):
        params = CircuitParams(0.6, 0, 0, 1.0, 0)
        for x, y in [(0.3, -0.4), (1.2, 0.8), (-2.0, 1.5)]:
            assert obs.wigner(params, x, y).w == pytest.approx(
                obs.svs_wigner(0.6, x, y).w, rel=1e-11, abs=1e-15
            )

    @pytest.mark.parametrize("m,sign", [(1, -1.0), (2, 1.0), (3, -1.0)])
    def test_lossless_parity_at_origin(self, m, sign):
        point = obs.wigner(CircuitParams(0.7, 0, 0, 0.9, m), 0, 0)
        assert point.w == pytest.approx(sign * 2 / math.pi, abs=1e-8)

    def test_grid_matches_pointwise(self):
        params = CircuitParams(0.7, 0.1, 0.1, 0.9, 2)
        grid = obs.wigner_grid(params, (-2, 2), (-2, 2), 5)
        for point in grid:
            single = obs.wigner(params, point.x, point.y)
            assert point.w == pytest.approx(single.w, rel=1e-11, abs=1e-14)

    def test_array_axes(self):
        params = CircuitParams(0.7, 0.1, 0.1, 0.9, 3)
        xs, ys = np.array([-1.5, 0.0, 0.4]), np.array([0.2, -2.0])
        w = obs.wigner_array(params, xs, ys)
        assert w.shape == (3, 2)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert w[i, j] == pytest.approx(obs.wigner(params, x, y).w, rel=1e-11, abs=1e-14)

    def test_grid_ordering(self):
        grid = obs.wigner_grid(CircuitParams(0.3, 0, 0, 0.9, 0), (-1, 1), (-1, 1), 3)
        coords = [(p.x, p.y) for p in grid]
        xs = [-1.0, 0.0, 1.0]
        assert coords == [(x, y) for x in xs for y in xs]

    def test_vacuum_quadrature(self):
        grid = obs.wigner_grid(CircuitParams(0, 0, 0, 0.5, 0), (-5, 5), (-5, 5), 201)
        assert obs.wigner_quadrature(grid, 201) == pytest.approx(1.0, abs=1e-3)

    def test_negative_region_with_loss(self):
        grid = obs.wigner_grid(CircuitParams(0.7, 0.1, 0.1, 0.9, 1), (-3, 3), (-3, 3), 41)
        assert min(p.w for p in grid) < 0.0

    def test_non_finite_value_raises_naming_the_first_failing_point(self):
        # |beta| = 1e200 overflows the power columns and the envelope
        first = CircuitParams(1.0, 0.1, 0.1, 0.9, 3)
        second = CircuitParams(0.7, 0.2, 0.1, 0.9, 3)
        for params in (first, columns_of([first, second])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalConsistencyError, match="not finite") as error:
                    obs.wigner_array(params, [0.0, 1e200], [0.0])
            assert str(error.value).endswith(str(first))

    @pytest.mark.parametrize("m", range(9))
    def test_horner_pass_matches_the_power_tables(self, m, monkeypatch):
        """Within relative 1e-12 (absolute 1e-15 below 1e-3) of the power
        tables, or, where the sum cancels that far, within the rounding of
        the two routes: (4m + 4) eps times the sum of the terms' moduli."""
        points = heralded(circuit_points(m, count=6))
        axis = np.linspace(-3, 3, 41)

        def moduli(box, b_mu, b_nu):
            return power_table_contraction(abs(box), abs(b_mu), abs(b_nu)) + 0j

        bound = 4 * (m + 1) * np.finfo(float).eps
        for params in (points[0], columns_of(points)):
            got = obs.wigner_array(params, axis, axis)
            with monkeypatch.context() as patch:
                patch.setattr(obs, "_wigner_contraction", power_table_contraction)
                want = obs.wigner_array(params, axis, axis)
                patch.setattr(obs, "_wigner_contraction", moduli)
                scale = obs.wigner_array(params, axis, axis)
            for g, w, s in zip(got.ravel(), want.ravel(), scale.ravel()):
                if abs(g - w) > bound * s:
                    assert_same_number(g, w)

    def test_box_has_only_even_orders(self, monkeypatch):
        # the Horner pass skips the entries of odd i + j and P(n) sums no odd
        # (i, j) of the coupling box: every box the observables build is
        # float64 and exactly 0 at each entry of odd total order
        boxes = []
        original = obs.taylor_coefficient_box

        def capture(*args, **kwargs):
            boxes.append(original(*args, **kwargs))
            return boxes[-1]

        batches = {m: columns_of(heralded(circuit_points(m, count=6))) for m in (3, 8)}
        monkeypatch.setattr(obs, "taylor_coefficient_box", capture)
        for m, columns in batches.items():
            first = len(boxes)
            obs.wigner_array(columns, [0.3], [0.1])
            obs.variances(columns)
            obs.pnd_vector(columns, 20)
            k = min(2 * m, 20) + 1
            shapes = [box.shape[:-1] for box in boxes[first:]]
            # Wigner; no box for variances; P(n) coupling and photon
            assert shapes == [(m + 1, m + 1), (m + 1, m + 1, k, k), (21, 21)]
        for box in boxes:
            assert box.dtype == np.float64
            odd = np.indices(box.shape[:-1]).sum(axis=0) % 2 == 1
            assert np.all(box[odd] == 0)

    def test_no_einsum(self, monkeypatch):
        monkeypatch.setattr(np, "einsum", lambda *a, **k: pytest.fail("einsum called"))
        w = obs.wigner_array(CircuitParams(0.7, 0.1, 0.1, 0.9, 8), [0.0, 1.0], [0.5])
        assert w.shape == (2, 1)

    def test_origin_matches_oracle(self):
        from mssvs import fock_oracle as fo

        params = CircuitParams(0.5, 0, 0, 0.9, 1)
        state = fo.run_pipeline(params, 40).state
        assert obs.wigner(params, 0, 0).w == pytest.approx(
            fo.oracle_wigner(state, 0, 0).w, abs=1e-10
        )


class TestBatchedPoints:
    @pytest.mark.parametrize("m", range(9))
    def test_success_probability_matches_per_point(self, m):
        points = circuit_points(m)
        batch = obs.success_probability(columns_of(points))
        assert isinstance(batch, np.ndarray) and batch.shape == (len(points),)
        for point, value in zip(points, batch):
            assert_same_number(value, obs.success_probability(point))

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_variances_match_per_point(self, m):
        points = [p for p in circuit_points(m, count=12) if obs.success_probability(p) > 0]
        batch = obs.variances(columns_of(points))
        for i, point in enumerate(points):
            single = obs.variances(point)
            assert_same_number(batch.var_x[i], single.var_x)
            assert_same_number(batch.var_p[i], single.var_p)

    @pytest.mark.parametrize("m", range(9))
    def test_pnd_vector_matches_per_point(self, m):
        points = [p for p in circuit_points(m, count=12) if obs.success_probability(p) > 0]
        batch = obs.pnd_vector(columns_of(points), 6)
        assert batch.shape == (len(points), 7)
        for point, row in zip(points, batch):
            for got, want in zip(row, obs.pnd_vector(point, 6)):
                assert_same_number(got, want)

    @pytest.mark.parametrize("m", range(9))
    def test_wigner_array_matches_per_point(self, m):
        points = [p for p in circuit_points(m, count=12) if obs.success_probability(p) > 0]
        xs, ys = np.array([-1.5, 0.0, 0.4]), np.array([0.2, -2.0])
        batch = obs.wigner_array(columns_of(points), xs, ys)
        assert batch.shape == (len(points), 3, 2)
        for point, grid in zip(points, batch):
            for got, want in zip(grid.ravel(), obs.wigner_array(point, xs, ys).ravel()):
                assert_same_number(got, want)

    def test_helper_rejects_mixed_m(self):
        # columns carry one m by construction; the test helper that builds
        # them from points refuses points that do not share it
        points = [CircuitParams(0.7, 0.1, 0.1, 0.9, 1), CircuitParams(0.7, 0.1, 0.1, 0.9, 2)]
        with pytest.raises(ValueError, match="share one m"):
            columns_of(points)

    def test_columns_need_explicit_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            obs.pnd_vector(columns_of([CircuitParams(0.7, 0.1, 0.1, 0.9, 1)]))

    def test_negative_probability_in_a_batch(self):
        bad = CircuitParams(5.0, 0.0, 0.0, 0.9, 1)  # P(0) = -3.9e-10 in double precision
        with pytest.raises(NumericalConsistencyError) as scalar:
            obs.pnd_vector(bad, 10)
        good = CircuitParams(0.7, 0.1, 0.1, 0.9, 1)
        with pytest.raises(NumericalConsistencyError) as batch:
            obs.pnd_vector(columns_of([good, bad, good]), 10)
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize(
        "call",
        [lambda ps: obs.pnd_vector(ps, 4), lambda ps: obs.wigner_array(ps, [0.0], [0.5])],
        ids=["pnd_vector", "wigner_array"],
    )
    def test_failing_point_in_a_batch_raises_its_own_error(self, call):
        bad = CircuitParams(9.5, 0.0, 0.0, 0.5, 1)  # kappa9 < 0 in double precision
        with pytest.raises(ParameterDomainError) as scalar:
            call(bad)
        good = CircuitParams(0.7, 0.1, 0.1, 0.9, 1)
        with pytest.raises(ParameterDomainError) as batch:
            call(columns_of([good, bad]))
        assert str(batch.value) == str(scalar.value)
        undefined = CircuitParams(0.7, 0.1, 1.0, 0.9, 1)
        with pytest.raises(UndefinedStateError, match="eta2=1.0"):
            call(columns_of([good, undefined]))

    def test_point_gives_a_float(self):
        assert type(obs.success_probability(CircuitParams(0.7, 0.1, 0.1, 0.9, 2))) is float

    def test_failing_discriminant_in_a_batch(self):
        bad = CircuitParams(9.5, 0.0, 0.0, 0.5, 1)  # kappa9 < 0 in double precision
        with pytest.raises(ParameterDomainError) as scalar:
            obs.success_probability(bad)
        good = CircuitParams(0.7, 0.1, 0.1, 0.9, 1)
        with pytest.raises(ParameterDomainError) as batch:
            obs.success_probability(columns_of([good, bad, good]))
        assert str(batch.value) == str(scalar.value)

    def test_undefined_state_in_a_batch(self):
        points = [CircuitParams(0.7, 0.1, 0.1, 0.9, 1), CircuitParams(0.7, 1.0, 0.1, 0.9, 1)]
        with pytest.raises(UndefinedStateError, match="eta1=1.0"):
            obs.variances(columns_of(points))

    def test_empty_columns(self):
        assert obs.success_probability(CircuitColumns([], [], [], [], 1)).shape == (0,)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: obs.success_probability(p),
        lambda p: obs.success_probability(columns_of([p, p, p])),
        lambda p: obs.variances(p),
        lambda p: obs.variances(columns_of([p, p])),
        lambda p: obs.pnd_vector(p, 10),
        lambda p: obs.pnd_vector(columns_of([p, p]), 10),
        lambda p: obs.wigner(p, 0.3, -0.2),
        lambda p: obs.wigner_grid(p, (-1, 1), (-1, 1), 3),
        lambda p: obs.wigner_array(p, np.linspace(-1, 1, 3), np.linspace(-1, 1, 3)),
        lambda p: obs.wigner_array(
            columns_of([p, p]), np.linspace(-1, 1, 3), np.linspace(-1, 1, 3)
        ),
    ],
    ids=["success_probability", "success_probability_batch", "variances", "variances_batch",
         "pnd_vector", "pnd_vector_batch", "wigner", "wigner_grid", "wigner_array",
         "wigner_array_batch"],
)
def test_one_coefficient_evaluation_per_call(monkeypatch, call):
    calls = []

    def counting(params):
        calls.append(params)
        return derived_coefficients(params)

    monkeypatch.setattr(obs, "derived_coefficients", counting)
    call(CircuitParams(0.7, 0.1, 0.1, 0.9, 2))
    assert len(calls) == 1
