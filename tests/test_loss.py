import math

import numpy as np
import pytest

import xpmherald.loss as loss_module
from xpmherald.elements import apply_beam_splitter
from xpmherald.errors import ConditioningError, ConfigurationError
from xpmherald.fock import (
    Ensemble,
    MultiModeKet,
    TruncationPolicy,
    condition,
    make_coherent,
)
from xpmherald.loss import (
    BISECTION_TOL,
    LossParams,
    lossy_click_probs,
    lossy_heralded_efficiency,
    max_tolerable_loss,
)
from xpmherald.mzi import (
    CoherentProbe,
    detection_efficiency,
    transparent_via_angle_sum,
)

PI = math.pi


def symmetric_cfg(phi_chi):
    return transparent_via_angle_sum(PI / 4.0, 0.0, phi_chi)


def test_loss_params_survival_identity():
    # a transparent config's unshifted arms cancel at the detector up to
    # (1 - a) times the lower arm's amplitude, |beta| / 2 here, with a the
    # field amplitude that survives the medium: q0 = 1 - exp(-((1 - a)
    # |beta| / 2)^2), so the faulty-click probability measures a
    beta = 1.3
    for pa in (0.0, 0.3, 1.0):
        _, q0 = lossy_click_probs(symmetric_cfg(2.0), beta, LossParams(pa))
        survival = 1.0 - math.sqrt(-math.log1p(-q0)) / (beta / 2.0)
        assert survival**2 + pa == pytest.approx(1.0, abs=1e-12)


def test_lossy_click_probs_lossless_recovers_ideal():
    cfg = symmetric_cfg(2.0)
    q1, q0 = lossy_click_probs(cfg, 1.3, LossParams(0.0))
    assert q0 == 0.0
    assert q1 == pytest.approx(
        detection_efficiency(cfg, CoherentProbe(1.3)), abs=1e-12
    )


def test_lossy_click_probs_inert_phase_blind():
    q1, q0 = lossy_click_probs(symmetric_cfg(0.0), 1.3, LossParams(0.4))
    assert q1 == pytest.approx(q0, abs=1e-15)


def test_lossy_click_probs_closed_form_point():
    u = math.sqrt(0.5)
    q1, q0 = lossy_click_probs(symmetric_cfg(PI), 1.0, LossParams(0.5))
    assert q1 == pytest.approx(1.0 - math.exp(-((1.0 + u) ** 2) / 4.0), abs=1e-12)
    assert q0 == pytest.approx(1.0 - math.exp(-((1.0 - u) ** 2) / 4.0), abs=1e-12)


def test_lossy_click_probs_general_formula():
    rng = np.random.default_rng(44)
    for _ in range(15):
        theta1 = float(rng.uniform(0.1, PI / 2.0 - 0.1))
        phi_chi = float(rng.uniform(0.1, 2.0 * PI - 0.1))
        beta = float(rng.uniform(0.3, 3.0))
        pa = float(rng.uniform(0.0, 0.95))
        cfg = transparent_via_angle_sum(theta1, 0.0, phi_chi)
        u = math.sqrt(1.0 - pa)
        scale = beta**2 / 4.0 * math.sin(2.0 * theta1) ** 2
        phase = complex(math.cos(phi_chi), math.sin(phi_chi))
        q1, q0 = lossy_click_probs(cfg, beta, LossParams(pa))
        assert q1 == pytest.approx(
            1.0 - math.exp(-scale * abs(u * phase - 1.0) ** 2), abs=1e-12
        )
        assert q0 == pytest.approx(
            1.0 - math.exp(-scale * (1.0 - u) ** 2), abs=1e-12
        )
        assert q1 >= q0 - 1e-15


def test_lossy_click_probs_cross_checked_against_exact_propagation():
    # propagate each absorb-or-survive branch exactly in truncated Fock
    # space: probe through the first splitter, attenuated-and-phased probe
    # through the second, then the click effect
    eps = 1e-10
    theta1, phi_chi, beta, pa = 0.6, 1.9, 0.8, 0.35
    cfg = transparent_via_angle_sum(theta1, 0.0, phi_chi)
    u = math.sqrt(1.0 - pa)
    arm_b = beta * math.cos(theta1)
    arm_c = beta * math.sin(theta1)
    q1_cf, q0_cf = lossy_click_probs(cfg, beta, LossParams(pa))
    for survived, expected in ((True, q1_cf), (False, q0_cf)):
        phase = complex(math.cos(phi_chi), math.sin(phi_chi)) if survived else 1.0
        policy = TruncationPolicy(tail_tolerance=eps)
        cut = make_coherent(beta, policy).cutoffs[0]
        # each arm at its own cutoff, zero-padded to the input's
        arms = [make_coherent(a, policy).amps for a in (u * arm_b * phase, arm_c)]
        product = np.multiply.outer(*(np.pad(a, (0, cut + 1 - a.size)) for a in arms))
        # truncate by total photons: the splitter conserves the total, and
        # the joint Poisson tail above the cut is below the tolerance
        n, m = np.indices(product.shape)
        ket = MultiModeKet(np.where(n + m <= cut, product, 0.0))
        out = apply_beam_splitter(ket, (0, 1), cfg.bs2)
        prob, _ = condition(Ensemble([(1.0, out)]), 1, "at_least_one")
        assert prob == pytest.approx(expected, abs=1e-8)


def test_heralded_efficiency_lossless_is_one():
    cfg = symmetric_cfg(2.0)
    for p_a in (0.05, 0.4, 1.0):
        report = lossy_heralded_efficiency(p_a, cfg, 1.0, LossParams(0.0))
        assert report.p_prime == pytest.approx(1.0)
        assert report.improvement or p_a == 1.0


def test_heralded_efficiency_unit_source_specialization():
    cfg = symmetric_cfg(PI)
    pa = 0.3
    report = lossy_heralded_efficiency(1.0, cfg, 1.0, LossParams(pa))
    expected = (
        (1.0 - pa) * report.q1 / ((1.0 - pa) * report.q1 + pa * report.q0)
    )
    assert report.p_prime == pytest.approx(expected, abs=1e-12)


def test_heralded_efficiency_monte_carlo_oracle():
    # sequential sampling over the branch model reproduces the conditional
    cfg = symmetric_cfg(PI)
    p_a, beta, pa = 0.4, 1.0, 0.3
    report = lossy_heralded_efficiency(p_a, cfg, beta, LossParams(pa))
    rng = np.random.default_rng(99)
    shots = 400_000
    photon = rng.random(shots) < p_a
    survived = photon & (rng.random(shots) < (1.0 - pa))
    click_prob = np.where(survived, report.q1, report.q0)
    click = rng.random(shots) < click_prob
    estimate = np.count_nonzero(click & survived) / np.count_nonzero(click)
    sigma = math.sqrt(report.p_prime * (1.0 - report.p_prime) / np.count_nonzero(click))
    assert abs(estimate - report.p_prime) < 4.0 * sigma


def test_heralded_efficiency_zero_click_denominator():
    cfg = symmetric_cfg(0.0)
    with pytest.raises(ConditioningError):
        lossy_heralded_efficiency(0.5, cfg, 1.0, LossParams(0.0))


def test_improvement_identity_algebra():
    cfg = symmetric_cfg(2.4)
    for p_a in (0.1, 0.5, 0.9):
        for pa in (0.05, 0.3, 0.7):
            report = lossy_heralded_efficiency(p_a, cfg, 1.5, LossParams(pa))
            lhs = report.improvement
            rhs = (1.0 - pa) * report.q1 * (1.0 - p_a) > (
                p_a * pa + 1.0 - p_a
            ) * report.q0
            assert lhs == rhs


def test_p_prime_monotone_in_absorption():
    cfg = symmetric_cfg(2.0)
    prev = 1.5
    for pa in np.linspace(0.0, 0.9, 19):
        val = lossy_heralded_efficiency(0.5, cfg, 2.0, LossParams(float(pa))).p_prime
        assert val <= prev + 1e-12
        prev = val


def test_max_tolerable_loss_strong_phase_reference_values():
    cfg = symmetric_cfg(PI)
    for beta_sq, ref in ((1.0, 0.80), (1e2, 0.35), (1e4, 0.06)):
        bound = max_tolerable_loss(cfg, math.sqrt(beta_sq))
        assert abs(bound - ref) <= 0.05


def test_max_tolerable_loss_is_a_root_of_the_margin():
    # independent root check: the weak-source margin changes sign within
    # the bisection width of the bound
    cfg = symmetric_cfg(PI)
    bound = max_tolerable_loss(cfg, 1.0)
    assert BISECTION_TOL == 1e-6

    def margin(pa):
        q1, q0 = lossy_click_probs(cfg, 1.0, LossParams(pa))
        return (1.0 - pa) * q1 - q0

    assert margin(bound - BISECTION_TOL) > 0.0
    assert margin(bound + BISECTION_TOL) < 0.0


def test_max_tolerable_loss_checks_transparency_once(monkeypatch):
    calls = []
    is_transparent = loss_module.is_transparent

    def counting_is_transparent(cfg):
        calls.append(cfg)
        return is_transparent(cfg)

    monkeypatch.setattr(loss_module, "is_transparent", counting_is_transparent)
    cfg = symmetric_cfg(PI)
    for fixed_p in (None, 0.3):
        calls.clear()
        max_tolerable_loss(cfg, 10.0, fixed_p=fixed_p)
        assert len(calls) == 1
    calls.clear()
    lossy_click_probs(cfg, 10.0, LossParams(0.2))
    assert len(calls) == 1


def test_solver_margin_equals_public_click_probs_exactly():
    # the solver evaluates its margin from amplitudes computed once per
    # solve; it must equal, bit for bit, the margin formed from the public
    # lossy_click_probs at every absorption, including 0 and 1
    rng = np.random.default_rng(17)
    for _ in range(60):
        cfg = transparent_via_angle_sum(
            rng.uniform(0.05, PI - 0.05), rng.uniform(0.0, 2.0 * PI), rng.uniform(-7.0, 7.0)
        )
        beta = 10.0 ** rng.uniform(-1.0, 3.0) * complex(
            math.cos(rng.uniform(0.0, 2.0 * PI)), math.sin(rng.uniform(0.0, 2.0 * PI))
        )
        points = [0.0, 1.0, *rng.uniform(0.0, 1.0, 8), *np.linspace(0.0, 1.0, 5)]
        for fixed_p in (None, float(rng.uniform(0.0, 1.0))):
            margin = loss_module._improvement_margin(cfg, beta, fixed_p)
            for pa in points:
                q1, q0 = lossy_click_probs(cfg, beta, LossParams(pa))
                if fixed_p is None:
                    expected = (1.0 - pa) * q1 - q0
                else:
                    expected = (1.0 - pa) * q1 * (1.0 - fixed_p) - (
                        fixed_p * pa + 1.0 - fixed_p
                    ) * q0
                assert margin(pa) == expected


def test_max_tolerable_loss_weak_phase_reported_values():
    # the reference criterion for these rows is unstated; computed values
    # are compared loosely for order of magnitude and reported elsewhere
    cfg = symmetric_cfg(0.010)
    for beta_sq in (1e2, 1e4, 1e6):
        bound = max_tolerable_loss(cfg, math.sqrt(beta_sq))
        assert 0.0 < bound < 0.15


def test_max_tolerable_loss_fixed_p_approaches_weak_source_limit():
    cfg = symmetric_cfg(PI)
    weak = max_tolerable_loss(cfg, 1.0)
    fixed_small = max_tolerable_loss(cfg, 1.0, fixed_p=1e-6)
    assert abs(weak - fixed_small) < 1e-3


def test_loss_params_rejects_bad_absorption():
    for p_absorb in (math.nan, -0.1, 1.5, math.inf):
        with pytest.raises(ConfigurationError):
            LossParams(p_absorb)


def test_lossy_heralded_efficiency_rejects_bad_source():
    for p_a in (0.0, -0.2, 1.5, math.nan):
        with pytest.raises(ConfigurationError):
            lossy_heralded_efficiency(p_a, symmetric_cfg(PI), 1.0, LossParams(0.1))


def test_max_tolerable_loss_rejects_inert_xpm():
    with pytest.raises(ConfigurationError):
        max_tolerable_loss(symmetric_cfg(0.0), 1.0)
    with pytest.raises(ConfigurationError):
        max_tolerable_loss(symmetric_cfg(PI), 0.0)


def test_max_tolerable_loss_rejects_non_finite_inputs():
    cfg = symmetric_cfg(PI)
    for beta in (math.nan, math.inf, complex(1.0, math.nan)):
        with pytest.raises(ConfigurationError):
            max_tolerable_loss(cfg, beta)
    for fixed_p in (math.nan, -0.1, 1.5, math.inf):
        with pytest.raises(ConfigurationError):
            max_tolerable_loss(cfg, 1.0, fixed_p=fixed_p)


def test_max_tolerable_loss_degenerate_angle_returns_zero():
    cfg = transparent_via_angle_sum(0.0, 0.0, PI, l=0)
    with pytest.warns(UserWarning):
        assert max_tolerable_loss(cfg, 1.0) == 0.0


def old_max_tolerable_loss(cfg, beta, fixed_p=None, tol=1e-6):
    """Test-local copy of the solver before its simplification: the
    weak-source margin as a formula of its own, the early return of the
    classical clicks at full absorption, a 201-point grid, a refined scan
    when the grid margin changes sign more than once, then bisection."""
    clicks = loss_module._classical_clicks(cfg, beta)

    def margin(p_absorb):
        q1, q0 = clicks(p_absorb)
        if p_absorb >= 1.0:
            q1 = q0
        survive = 1.0 - p_absorb
        if fixed_p is None:
            return survive * q1 - q0
        return survive * q1 * (1.0 - fixed_p) - (fixed_p * p_absorb + 1.0 - fixed_p) * q0

    grid = np.linspace(0.0, 1.0, 201)
    signs = [margin(x) > 0.0 for x in grid]
    if not any(signs):
        return 0.0
    transitions = [i for i in range(len(signs) - 1) if signs[i] and not signs[i + 1]]
    if len(transitions) == 1:
        lo, hi = grid[transitions[0]], grid[transitions[0] + 1]
    else:
        last_improving = max(i for i, s in enumerate(signs) if s)
        lo = grid[last_improving]
        hi = grid[min(last_improving + 1, len(grid) - 1)]
        step = (hi - lo) / 100.0
        while step > tol and hi - lo > tol:
            fine = np.arange(lo, hi + step, step)
            fine_signs = [margin(x) > 0.0 for x in fine]
            if not any(fine_signs):
                break
            idx = max(i for i, s in enumerate(fine_signs) if s)
            lo = fine[idx]
            hi = fine[min(idx + 1, len(fine) - 1)]
            step /= 100.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


SOLVER_THETAS = (0.2, PI / 8.0, PI / 4.0, 1.2)
SOLVER_FIXED_P = (None, 0.0, 1e-6, 0.3, 0.7, 0.99)


def random_solver_inputs(rng, count):
    """Seeded (theta1, phi_chi, |beta|^2, fixed_p) draws over the solver's
    domain: phi_chi in (0, 2 pi) with the reference rows' 0.010 and pi
    mixed in, |beta|^2 log-uniform from 1e-2 to 1e7."""
    for i in range(count):
        theta1 = SOLVER_THETAS[i % len(SOLVER_THETAS)]
        phi_chi = float(rng.uniform(1e-3, 2.0 * PI - 1e-3))
        if i % 10 < 2:
            phi_chi = (0.010, PI)[i % 10]
        beta_sq = 10.0 ** float(rng.uniform(-2.0, 7.0))
        yield theta1, phi_chi, beta_sq, SOLVER_FIXED_P[int(rng.integers(len(SOLVER_FIXED_P)))]


def test_max_tolerable_loss_equals_the_previous_solver_exactly():
    rng = np.random.default_rng(2024)
    for theta1, phi_chi, beta_sq, fixed_p in random_solver_inputs(rng, 1000):
        cfg = transparent_via_angle_sum(theta1, 0.0, phi_chi)
        beta = math.sqrt(beta_sq)
        assert max_tolerable_loss(cfg, beta, fixed_p) == old_max_tolerable_loss(
            cfg, beta, fixed_p, BISECTION_TOL
        ), (theta1, phi_chi, beta_sq, fixed_p)


def test_margin_changes_sign_once_on_a_fine_grid():
    # the evidence that one bracket suffices: over the solver's domain the
    # margin, from the closed-form click probabilities of the angle-sum
    # family (as in test_lossy_click_probs_general_formula), is positive up
    # to one absorption and not positive beyond it
    rng = np.random.default_rng(7)
    absorb = np.linspace(0.0, 1.0, 20_001)
    u = np.sqrt(1.0 - absorb)
    for theta1, phi_chi, beta_sq, fixed_p in random_solver_inputs(rng, 500):
        scale = beta_sq / 4.0 * math.sin(2.0 * theta1) ** 2
        q1 = -np.expm1(-scale * np.abs(u * np.exp(1j * phi_chi) - 1.0) ** 2)
        q0 = -np.expm1(-scale * (1.0 - u) ** 2)
        p = fixed_p or 0.0
        improving = (1.0 - absorb) * q1 * (1.0 - p) - (p * absorb + 1.0 - p) * q0 > 0.0
        assert improving[0] and np.count_nonzero(np.diff(improving)) == 1, (
            theta1, phi_chi, beta_sq, fixed_p,
        )
