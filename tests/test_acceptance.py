"""Acceptance suite: one test per shipping criterion, with stated tolerances.

Each test prints a PASS line on success so a verbose run reads as a
checklist. Criteria with stated runtime budgets assert them.
"""

import math
import time

import numpy as np
import pytest

from mssvs.circuit import CircuitParams
from mssvs import fock_oracle as fo
from mssvs import observables as obs
from mssvs import validation

from symbolic_oracle import symbolic_derivative
from test_genfunc import derivative, random_exponent

# six normalization witnesses spanning m = 0..3, with and without loss,
# all of which fit the [-5, 5] phase-space window
NORMALIZATION_POINTS = [
    CircuitParams(0.0, 0.0, 0.0, 0.5, 0),
    CircuitParams(0.5, 0.0, 0.0, 1.0, 0),
    CircuitParams(0.5, 0.0, 0.0, 0.9, 1),
    CircuitParams(0.5, 0.1, 0.1, 0.9, 2),
    CircuitParams(0.3, 0.0, 0.0, 0.9, 3),
    CircuitParams(0.3, 0.1, 0.1, 0.9, 3),
]


def test_criterion_1_squeezing_thresholds():
    start = time.monotonic()
    expectations = [
        (1, 0.0, 0.626381),
        (1, 0.1, 0.609918),
        (3, 0.0, 0.396049),
        (3, 0.1, 0.387008),
    ]
    for m, eta, expected in expectations:
        r_c = obs.squeezing_threshold(m, 0.9, eta, eta)
        assert r_c == pytest.approx(expected, abs=1e-3), (m, eta)
    for eta in (0.0, 0.1):
        scan = obs.squeezing_threshold_scan(2, 0.9, eta, eta)
        assert scan.r_c is None and scan.status == "always-squeezed"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 (squeezing thresholds): PASS ({elapsed:.2f}s)")


def test_criterion_2_squeezed_vacuum_analytics():
    for r in (0.5, 0.7, 1.0):
        mean = obs.svs_moment(r, 1, 1).real
        quad = obs.svs_moment(r, 2, 0).real
        var_x = mean + quad + 0.5
        var_p = mean - quad + 0.5
        assert abs(var_x - 0.5 * math.exp(2 * r)) < 1e-10
        assert abs(var_p - 0.5 * math.exp(-2 * r)) < 1e-10
        assert abs(mean - math.sinh(r) ** 2) < 1e-10
        amplitudes = fo.squeezed_vacuum(r, 140, enforce_tail=False).amplitudes
        for n in range(15):
            assert abs(obs.svs_pnd(r, n) - abs(amplitudes[n]) ** 2) < 1e-10
    print("\nACCEPTANCE 2 (squeezed-vacuum analytics): PASS")


def test_criterion_3_oracle_equivalence_standard_grid():
    start = time.monotonic()
    reports = validation.validate_grid()
    elapsed = time.monotonic() - start
    assert len(reports) == 72
    failures = [r for r in reports if not r.ok]
    worst = max(reports, key=lambda r: r.worst()[1])
    assert not failures, [f.params for f in failures]
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 3 (oracle equivalence, 72 points): PASS "
        f"({elapsed:.1f}s, worst deviation {worst.worst()[1]:.2e} "
        f"in {worst.worst()[0]})"
    )


def test_criterion_4_parity_laws():
    for r in validation.STANDARD_R:
        for T in validation.STANDARD_T:
            for m in validation.STANDARD_M:
                params = CircuitParams(r, 0.0, 0.0, T, m)
                dist = obs.pnd_vector(params, 10)
                wrong_parity = dist[(1 - m % 2)::2]
                assert np.all(wrong_parity < 1e-12), params
                expected = (2.0 / math.pi) * (-1) ** m
                assert obs.wigner(params, 0, 0).w == pytest.approx(
                    expected, abs=1e-8
                ), params
                state = fo.run_pipeline(params, 40).state
                assert fo.oracle_wigner(state, 0, 0).w == pytest.approx(
                    expected, abs=1e-8
                ), params
    print("\nACCEPTANCE 4 (parity laws at zero loss): PASS")


def test_criterion_5_loss_phenomenology():
    for m in (1, 2, 3):
        dist = obs.pnd_vector(CircuitParams(0.7, 0.1, 0.1, 0.9, m), 9)
        assert np.all(dist > 1e-6), m
    for eta in (0.0, 0.1):
        params = CircuitParams(0.7, eta, eta, 0.9, 1)
        grid = obs.wigner_grid(params, (-3, 3), (-3, 3), 101)
        minimum = min(grid, key=lambda p: p.w)
        assert minimum.w < 0.0, eta
        # oracle agrees on the depth at the minimum
        state = fo.run_pipeline(params, 40).state
        oracle_w = fo.oracle_wigner(state, minimum.x, minimum.y).w
        assert oracle_w == pytest.approx(minimum.w, rel=1e-6, abs=1e-8)
    print("\nACCEPTANCE 5 (loss phenomenology): PASS")


def test_criterion_6_boundary_collapse():
    points = []
    for m in (1, 2):
        points.extend(
            [
                CircuitParams(0.5, 1.0, 0.0, 0.9, m),
                CircuitParams(0.5, 1.0, 0.3, 0.5, m),
                CircuitParams(0.5, 0.0, 1.0, 0.9, m),
                CircuitParams(0.5, 0.2, 1.0, 0.5, m),
                CircuitParams(0.0, 0.0, 0.0, 0.9, m),
                CircuitParams(0.0, 0.1, 0.1, 0.5, m),
            ]
        )
    assert len(points) == 12
    for params in points:
        assert obs.success_probability(params) < 1e-12, params
    print("\nACCEPTANCE 6 (boundary collapse): PASS")


def test_criterion_7_normalization():
    for params in NORMALIZATION_POINTS:
        dist = obs.pnd_vector(params)
        assert dist.sum() >= 1.0 - 1e-8, params
        grid = obs.wigner_grid(params, (-5, 5), (-5, 5), 201)
        quad = obs.wigner_quadrature(grid, 201)
        assert quad == pytest.approx(1.0, abs=1e-3), params
    print("\nACCEPTANCE 7 (normalization): PASS")


def test_criterion_8_kernel_against_symbolic_oracle():
    rng = np.random.default_rng(88)
    checked = 0
    while checked < 200:
        n_vars = int(rng.integers(1, 4))
        exponent = random_exponent(rng, n_vars)
        orders = tuple(int(k) for k in rng.integers(0, 4, n_vars))
        if sum(orders) > 6:
            continue
        got = derivative(exponent, orders)
        want = symbolic_derivative(exponent, orders)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        checked += 1
    print("\nACCEPTANCE 8 (derivative kernel vs symbolic oracle): PASS")


def test_criterion_9_high_transmissivity_limit():
    for m in (1, 2):
        params = CircuitParams(0.5, 0.0, 0.0, 0.999, m)
        result = fo.run_pipeline(params, 40)
        target = fo.photon_subtracted_target(0.5, m, result.cutoff)
        overlap = fo.fidelity(result.state, target)
        assert overlap >= 0.999, (m, overlap)
    print("\nACCEPTANCE 9 (high-transmissivity limit): PASS")
