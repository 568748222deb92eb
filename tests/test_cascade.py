import math

import numpy as np
import pytest

import xpmherald.cascade as cascade
from xpmherald.cascade import (
    CascadeConfig,
    ENUMERATION_CAP,
    MAX_SETUPS,
    MAX_SHOTS,
    reused_probe_pn,
    reused_probe_total,
    shared_probe_pn,
    shared_probe_total,
    simulate_cascade,
)
from xpmherald.errors import ConfigurationError, EnumerationLimitError
from xpmherald.mzi import (
    CoherentProbe,
    coherent_outputs,
    detection_efficiency,
    transparent_via_angle_sum,
)

PI = math.pi


def loop_exact_shared(cfg):
    """Test-local exhaustive oracle, the per-pattern enumeration loop: pattern
    bits in setup order, factors multiplied one by one, summed in order."""
    a2 = abs(cfg.alpha) ** 2
    s = math.sin(cfg.phi_chi / 2.0)
    s2 = s * s  # squared as the click law squares it, not as libm's s ** 2
    c2 = math.cos(cfg.phi_chi / 2.0) ** 2

    def click(rank):
        return -math.expm1(-a2 * s2 * c2**rank)

    per = np.zeros(cfg.n_setups)
    for n in range(1, cfg.n_setups + 1):
        total = 0.0
        for pattern in range(1 << (n - 1)):
            weight = 1.0
            rank = 0
            for setup in range(n - 1):
                if (pattern >> setup) & 1:
                    weight *= cfg.p * (1.0 - click(rank))
                    rank += 1
                else:
                    weight *= 1.0 - cfg.p
            total += weight * cfg.p * click(rank)
        per[n - 1] = total
    return per


def test_reused_pn_first_setup_matches_single_setup():
    alpha, phi_chi = 1.3, 1.1
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, phi_chi)
    assert reused_probe_pn(1, alpha, phi_chi) == pytest.approx(
        detection_efficiency(cfg, CoherentProbe(alpha)), abs=1e-12
    )


def test_reused_pn_full_phase_depletes_probe():
    # a half-turn phase empties the probe after one pass
    assert reused_probe_pn(2, 2.0, PI) == pytest.approx(0.0, abs=1e-30)


def interferometer_first_clicks(n_setups, alpha, phi_chi):
    """Test-local sequential oracle through the interferometer itself: a
    photon-bearing setup clicks with -expm1(-|c beta|^2) at its detector
    output c and passes b beta on to the next setup."""
    b, c = coherent_outputs(transparent_via_angle_sum(PI / 4.0, 0.0, phi_chi), 1.0, True)
    beta, survive, per = alpha, 1.0, []
    for _ in range(n_setups):
        per.append(survive * -math.expm1(-abs(c * beta) ** 2))
        survive *= math.exp(-abs(c * beta) ** 2)
        beta *= b
    return np.array(per)


def test_reused_pn_matches_sequential_oracle():
    cfg = CascadeConfig("reused_probe", 10, 2.0, PI / 2.0, 1.0)
    oracle = interferometer_first_clicks(10, 2.0, PI / 2.0)
    sim = simulate_cascade(cfg)
    for n in range(1, 11):
        assert reused_probe_pn(n, 2.0, PI / 2.0) == pytest.approx(oracle[n - 1], abs=1e-12)
        assert sim.per_setup[n - 1] == pytest.approx(oracle[n - 1], abs=1e-12)


@pytest.mark.parametrize(
    "alpha, phi_chi", [(math.sqrt(2.0), 1.2), (5.0, PI / 2.0), (5.0, 2.6), (0.7, 2.8)]
)
def test_reused_pn_is_one_entry_of_the_whole_chain(alpha, phi_chi):
    # verify reads the first 100 first-click probabilities off one _reused
    # call; each equals the per-n closed form bit for bit
    per_setup = cascade._reused(CascadeConfig("reused_probe", 100, alpha, phi_chi, 1.0))[0]
    for n in (1, 37, 100):
        assert reused_probe_pn(n, alpha, phi_chi) == per_setup[n - 1]


def test_reused_pn_survives_click_exponent_underflow():
    # the last click exponent is about 4e-38, so 1 - exp(-x) would round to 0
    n, alpha, phi_chi = 400, 1.2, 0.9
    a2s2 = alpha**2 * math.sin(phi_chi / 2.0) ** 2
    c2 = math.cos(phi_chi / 2.0) ** 2
    log_survive = -a2s2 * (1.0 - c2 ** (n - 1)) / (1.0 - c2)
    # 1 - exp(-x) equals x to relative order x here
    log_click = math.log(a2s2) + (n - 1) * math.log(c2)
    expected = math.exp(log_survive + log_click)
    assert expected == pytest.approx(2.93e-38, rel=1e-3)
    assert reused_probe_pn(n, alpha, phi_chi) == pytest.approx(expected, rel=1e-12)


def test_simulate_reused_survives_click_exponent_underflow():
    # the exact reused route once took 1 - exp(-x) and returned 0.0 here
    sim = simulate_cascade(CascadeConfig("reused_probe", 400, 1.2, 0.9, 1.0))
    assert sim.per_setup[-1] == reused_probe_pn(400, 1.2, 0.9)
    assert sim.per_setup[-1] > 0.0


def test_reused_partial_sums_telescope():
    # independent algebra: the no-click survivals telescope into
    # 1 - exp(-|alpha|^2 (1 - cos^(2N)(phi_chi/2)))
    alpha, phi_chi = 1.7, 0.9
    c2 = math.cos(phi_chi / 2.0) ** 2
    prev = 0.0
    for n_setups in (1, 3, 10, 40):
        total = sum(reused_probe_pn(n, alpha, phi_chi) for n in range(1, n_setups + 1))
        closed = 1.0 - math.exp(-abs(alpha) ** 2 * (1.0 - c2**n_setups))
        assert total == pytest.approx(closed, abs=1e-12)
        assert prev <= total <= 1.0
        prev = total
    # the full sum saturates to one only for a bright probe
    assert sum(reused_probe_pn(n, 10.0, phi_chi) for n in range(1, 200)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_reused_total_zero_source():
    assert reused_probe_total(20, 2.0, 1.0, 0.0) == 0.0


def test_reused_total_single_setup():
    p, alpha, phi_chi = 0.8, 1.1, 1.3
    expected = p * (1.0 - math.exp(-abs(alpha) ** 2 * math.sin(phi_chi / 2.0) ** 2))
    assert reused_probe_total(1, alpha, phi_chi, p) == pytest.approx(expected)


def test_reused_total_approaches_source_efficiency():
    total = reused_probe_total(50, 5.0, PI / 2.0, 0.6)
    assert abs(total - 0.6) < 1e-6


def test_reused_total_monotone():
    prev = 0.0
    for n in (1, 2, 4, 8, 16):
        val = reused_probe_total(n, 1.2, 1.0, 0.5)
        assert val >= prev
        prev = val
    prev = 0.0
    for alpha in (0.5, 1.0, 2.0, 4.0):
        val = reused_probe_total(10, alpha, 1.0, 0.5)
        assert val >= prev
        prev = val


def test_shared_pn_first_setup():
    alpha, phi_chi, p = 1.3, 1.1, 0.4
    expected = p * (1.0 - math.exp(-abs(alpha) ** 2 * math.sin(phi_chi / 2.0) ** 2))
    assert shared_probe_pn(1, alpha, phi_chi, p) == pytest.approx(expected)


def test_shared_pn_unit_source_reduces_to_reused():
    for n in range(1, 8):
        assert shared_probe_pn(n, 1.4, 1.9, 1.0) == pytest.approx(
            reused_probe_pn(n, 1.4, 1.9), abs=1e-12
        )


def enum_shared_pn(n, alpha, phi_chi, p):
    return loop_exact_shared(CascadeConfig("shared_probe", n, alpha, phi_chi, p))[n - 1]


def test_shared_pn_against_test_local_enumeration():
    assert shared_probe_pn(4, math.sqrt(2.0), PI / 2.0, 0.5) == pytest.approx(
        enum_shared_pn(4, math.sqrt(2.0), PI / 2.0, 0.5), abs=1e-14
    )
    for n, alpha, phi_chi, p in [
        (1, 1.0, 0.7, 0.3),
        (3, 2.0, 2.4, 0.9),
        (6, 0.8, PI / 3.0, 0.5),
    ]:
        assert shared_probe_pn(n, alpha, phi_chi, p) == pytest.approx(
            enum_shared_pn(n, alpha, phi_chi, p), abs=1e-13
        )


def test_shared_pn_matches_library_enumeration_grid():
    worst = 0.0
    for p in (0.3, 0.8):
        for alpha_sq in (1.0, 4.0):
            for phi_chi in (0.8, PI / 2.0, 2.6):
                cfg = CascadeConfig(
                    "shared_probe", 9, math.sqrt(alpha_sq), phi_chi, p
                )
                sim = simulate_cascade(cfg)
                for n in range(1, 10):
                    closed = shared_probe_pn(n, cfg.alpha, phi_chi, p)
                    worst = max(worst, abs(closed - sim.per_setup[n - 1]))
    assert worst < 1e-12, f"closed form deviates from enumeration by {worst}"


def test_shared_pn_finite_past_float_binomials():
    # C(n - 1, k) exceeds the float range from n = 1031, and the click
    # probability of a deeply attenuated probe is far below 1e-16; the
    # closed form stays finite and positive there
    for n in (1100, 2000):
        val = shared_probe_pn(n, 1.2, 0.9, 0.5)
        assert math.isfinite(val) and 0.0 < val <= 1.0


def test_shared_total_first_setup():
    assert shared_probe_total(1, 1.3, 1.1, 0.4) == pytest.approx(
        shared_probe_pn(1, 1.3, 1.1, 0.4)
    )


def test_shared_total_zero_source():
    assert shared_probe_total(30, 2.0, 1.0, 0.0) == 0.0


def test_shared_total_approaches_one():
    assert shared_probe_total(100, 5.0, PI / 2.0, 0.3) >= 0.999


def test_shared_total_monotone():
    prev = 0.0
    for n in (1, 2, 5, 10, 20):
        val = shared_probe_total(n, 1.2, 1.0, 0.5)
        assert val >= prev
        prev = val


def test_simulate_exact_reused_equals_closed_form():
    cfg = CascadeConfig("reused_probe", 100, 5.0, 2.6, 0.7)
    sim = simulate_cascade(cfg)
    oracle = interferometer_first_clicks(100, 5.0, 2.6)
    assert np.max(np.abs(sim.per_setup - oracle)) < 1e-12
    assert sim.total == pytest.approx(0.7 * oracle.sum(), abs=1e-12)


def test_simulate_full_phase_only_first_setup_clicks():
    cfg = CascadeConfig("reused_probe", 5, 2.0, PI, 1.0)
    sim = simulate_cascade(cfg)
    assert sim.per_setup[0] == pytest.approx(1.0 - math.exp(-4.0))
    assert np.all(sim.per_setup[1:] < 1e-30)
    assert sim.residual_amp == pytest.approx(0.0, abs=1e-15)


def test_simulate_residual_amplitude_matches_arm_recursion():
    # per-pass shrinkage equals the no-click probe output of one setup at
    # the symmetric splitter, taken from the interferometer module itself
    from xpmherald.mzi import coherent_outputs

    phi_chi = 1.3
    cfg = CascadeConfig("reused_probe", 7, 1.5, phi_chi, 1.0)
    sim = simulate_cascade(cfg)
    setup = transparent_via_angle_sum(PI / 4.0, 0.0, phi_chi)
    shrink = abs(coherent_outputs(setup, 1.0, True)[0])
    assert shrink == pytest.approx(abs(math.cos(phi_chi / 2.0)), abs=1e-12)
    assert sim.residual_amp == pytest.approx(1.5 * shrink**7, abs=1e-12)


def _old_rank_table(cfg, square):
    """The per-rank formula from before the table read the click law, with
    sin^2(phi_chi/2) as ``square`` of the sine."""
    a2s2 = abs(cfg.alpha) ** 2 * square(math.sin(cfg.phi_chi / 2.0))
    c2 = math.cos(cfg.phi_chi / 2.0) ** 2
    x = [a2s2 * c2**k for k in range(cfg.n_setups)]
    return np.array([-math.expm1(-xk) for xk in x]), np.concatenate(([0.0], np.cumsum(x)))


def test_rank_table_is_the_old_formula_through_the_click_law():
    # x_0 comes from mzi._click_weights, which squares the sine as s * s
    # where the old formula took libm's s ** 2.  The table is the old formula
    # bit for bit with that one square swapped, and the old formula itself
    # wherever the two squares agree; they round apart on about 0.1% of
    # phases, where the table moves by a few ulp
    rng = np.random.default_rng(11)
    apart = 0
    for _ in range(2000):
        phi_chi = math.exp(rng.uniform(math.log(1e-10), math.log(2.0 * PI)))
        size = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        alpha = complex(size * np.exp(1j * rng.uniform(0.0, 2.0 * PI)))
        cfg = CascadeConfig("shared_probe", int(rng.integers(1, 61)), alpha, phi_chi, 0.5)
        table = [part.tobytes() for part in cascade._rank_table(cfg)]
        assert table == [part.tobytes() for part in _old_rank_table(cfg, lambda s: s * s)], cfg
        s = math.sin(phi_chi / 2.0)
        if s**2 == s * s:
            assert table == [part.tobytes() for part in _old_rank_table(cfg, lambda s: s**2)], cfg
        else:
            apart += 1
    assert apart <= 20


def test_simulate_shared_bit_identical_to_pattern_loop():
    rng = np.random.default_rng(2024)
    configs = [
        CascadeConfig("shared_probe", n, alpha, phi_chi, p)
        for n in (1, 2, 7, 12)
        for p in (0.0, 1.0, 0.37)
        for phi_chi in (0.0, PI, 2.0 * PI)
        for alpha in (0.0, 1.9)
    ]
    for _ in range(40):
        configs.append(
            CascadeConfig(
                "shared_probe",
                int(rng.integers(1, 13)),
                complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
                float(rng.uniform(-7.0, 7.0)),
                float(rng.uniform(0.0, 1.0)),
            )
        )
    for cfg in configs:
        sim = simulate_cascade(cfg)
        expected = loop_exact_shared(cfg)
        assert np.array_equal(sim.per_setup, expected), cfg
        assert sim.total == float(expected.sum())
        assert sim.residual_amp == (
            abs(cfg.alpha) * abs(math.cos(cfg.phi_chi / 2.0)) ** cfg.n_setups
        )


def test_simulate_enumeration_cap():
    cfg = CascadeConfig("shared_probe", ENUMERATION_CAP + 1, 1.0, 1.0, 0.5)
    with pytest.raises(EnumerationLimitError):
        simulate_cascade(cfg)


def test_simulate_monte_carlo_deterministic():
    cfg = CascadeConfig("shared_probe", 5, 1.0, 1.2, 0.5)
    a = simulate_cascade(cfg, shots=20_000, seed=9)
    b = simulate_cascade(cfg, shots=20_000, seed=9)
    assert np.array_equal(a.per_setup, b.per_setup)
    assert a.total == b.total


def test_simulate_monte_carlo_requires_seed():
    cfg = CascadeConfig("shared_probe", 5, 1.0, 1.2, 0.5)
    with pytest.raises(ConfigurationError):
        simulate_cascade(cfg, shots=100)
    with pytest.raises(ConfigurationError):
        simulate_cascade(cfg, shots=0, seed=1)
    for shots, seed in ((1000.0, 1), (True, 1), (100, 1.5), (100, -1)):
        with pytest.raises(ConfigurationError):
            simulate_cascade(cfg, shots=shots, seed=seed)


def test_simulate_monte_carlo_matches_closed_form():
    shots = 100_000
    cfg = CascadeConfig("shared_probe", 6, 1.2, PI / 2.0, 0.5)
    mc = simulate_cascade(cfg, shots=shots, seed=77)
    for n in range(1, 7):
        closed = shared_probe_pn(n, cfg.alpha, cfg.phi_chi, cfg.p)
        sigma = math.sqrt(max(closed * (1.0 - closed), 1e-12) / shots)
        assert abs(mc.per_setup[n - 1] - closed) < 4.0 * sigma

    cfg = CascadeConfig("reused_probe", 6, 1.2, PI / 2.0, 0.6)
    mc = simulate_cascade(cfg, shots=shots, seed=78)
    # per-setup estimates are conditional on the photon being present
    for n in range(1, 7):
        closed = reused_probe_pn(n, cfg.alpha, cfg.phi_chi)
        sigma = math.sqrt(max(closed * (1.0 - closed), 1e-12) / (shots * cfg.p))
        assert abs(mc.per_setup[n - 1] - closed) < 4.5 * sigma
    expected_total = reused_probe_total(6, cfg.alpha, cfg.phi_chi, cfg.p)
    sigma = math.sqrt(expected_total * (1.0 - expected_total) / shots)
    assert abs(mc.total - expected_total) < 4.0 * sigma


def test_cascade_config_validation():
    with pytest.raises(ConfigurationError):
        CascadeConfig("bogus", 5, 1.0, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        CascadeConfig("reused_probe", 0, 1.0, 1.0, 0.5)
    for p in (1.5, -0.1, math.nan):
        with pytest.raises(ConfigurationError):
            CascadeConfig("reused_probe", 5, 1.0, 1.0, p)
    for alpha, phi_chi in (
        (math.nan, 1.0),
        (math.inf, 1.0),
        (complex(1.0, math.inf), 1.0),
        (1.0, math.nan),
        (1.0, -math.inf),
    ):
        for scheme in ("reused_probe", "shared_probe"):
            with pytest.raises(ConfigurationError):
                CascadeConfig(scheme, 5, alpha, phi_chi, 0.5)


def test_closed_forms_reject_empty_chains():
    for n in (0, -1):
        for call in (
            lambda: reused_probe_pn(n, 1.0, 1.0),
            lambda: shared_probe_pn(n, 1.0, 1.0, 0.5),
            lambda: reused_probe_total(n, 1.0, 1.0, 0.5),
            lambda: shared_probe_total(n, 1.0, 1.0, 0.5),
        ):
            with pytest.raises(ConfigurationError):
                call()


def test_cascade_config_rejects_non_integer_setups():
    # a float count used to pass construction and fail inside the
    # enumeration with a bare TypeError; bool is not a count either
    for n_setups in (3.5, 3.0, True, False, "3"):
        for scheme in ("reused_probe", "shared_probe"):
            with pytest.raises(ConfigurationError, match="n_setups"):
                CascadeConfig(scheme, n_setups, 1.2, 0.9, 1.0)
    direct = simulate_cascade(CascadeConfig("shared_probe", 3, 1.2, 0.9, 1.0))
    numpy_count = simulate_cascade(CascadeConfig("shared_probe", np.int64(3), 1.2, 0.9, 1.0))
    assert np.array_equal(direct.per_setup, numpy_count.per_setup)


def test_closed_forms_reject_chains_past_the_setup_cap():
    # the per-rank table holds one entry per setup, so an unbounded count
    # would grow a list until the process is stopped; the cap is checked
    # before any work and named in the message
    for n in (MAX_SETUPS + 1, 10**20):
        for call in (
            lambda: reused_probe_total(n, 1.0, 1.0, 0.5),
            lambda: shared_probe_pn(n, 1.0, 1.0, 0.5),
        ):
            with pytest.raises(ConfigurationError, match=str(MAX_SETUPS)):
                call()
    assert CascadeConfig("reused_probe", MAX_SETUPS, 1.0, 1.0, 0.5).n_setups == MAX_SETUPS


def test_monte_carlo_rejects_shots_past_the_cap():
    # a shot holds a few per-shot array entries, so the count is checked
    # before any is allocated and the cap is named in the message
    cfg = CascadeConfig("shared_probe", 3, 1.0, 1.0, 0.5)
    for shots in (MAX_SHOTS + 1, 10**20):
        with pytest.raises(ConfigurationError, match=str(MAX_SHOTS)):
            simulate_cascade(cfg, shots=shots, seed=1)


def test_first_click_sums_equal_totals():
    rng = np.random.default_rng(41)
    for _ in range(12):
        n_setups = int(rng.integers(1, 201))
        alpha = math.sqrt(rng.uniform(0.1, 16.0))
        phi_chi, p = float(rng.uniform(0.05, 3.1)), float(rng.uniform(0.0, 1.0))
        pns = range(1, n_setups + 1)
        assert p * sum(reused_probe_pn(n, alpha, phi_chi) for n in pns) == pytest.approx(
            reused_probe_total(n_setups, alpha, phi_chi, p), rel=1e-12, abs=1e-300
        )
        assert sum(shared_probe_pn(n, alpha, phi_chi, p) for n in pns) == pytest.approx(
            shared_probe_total(n_setups, alpha, phi_chi, p), rel=1e-12, abs=1e-300
        )


def mp_reference(n, alpha, phi_chi, p):
    """The four closed forms at chain length (or setup) n, in 50 digits from
    the same float inputs: reused pn, reused total, shared pn, shared total."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a2s2 = mp.mpf(alpha) ** 2 * mp.sin(mp.mpf(phi_chi) / 2) ** 2
        c2, p = mp.cos(mp.mpf(phi_chi) / 2) ** 2, mp.mpf(p)
        x = [a2s2 * c2**k for k in range(n + 1)]
        s = [mp.mpf(0)]
        for xk in x[:n]:
            s.append(s[-1] + xk)
        click = [-mp.expm1(-xk) for xk in x]

        def pmf(m):
            # exact term ratios; mpmath's exponent range holds (1 - p)^m
            if p == 1:
                return [mp.mpf(0)] * m + [mp.mpf(1)]
            out = [(1 - p) ** m]
            for k in range(m):
                out.append(out[-1] * (m - k) / (k + 1) * p / (1 - p))
            return out

        shared_pn = mp.fsum(w * mp.exp(-s[k]) * click[k] for k, w in enumerate(pmf(n - 1)))
        return [
            float(v)
            for v in (
                mp.exp(-s[n - 1]) * click[n - 1],
                -p * mp.expm1(-s[n]),
                p * shared_pn,
                -mp.fsum(w * mp.expm1(-s[k]) for k, w in enumerate(pmf(n))),
            )
        ]


def test_closed_forms_match_50_digit_reference():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(2000)
    # the click-exponent underflow case, a full-length chain, then random ones
    grid = [(400, 1.2, 0.9, 1.0), (2000, 1.5, 1.1, 0.4)]
    for _ in range(6):
        grid.append(
            (
                int(rng.integers(1, 2001)),
                math.sqrt(rng.uniform(0.1, 25.0)),
                float(rng.uniform(0.05, 3.1)),
                float(rng.uniform(0.02, 0.98)),
            )
        )
    for n, alpha, phi_chi, p in grid:
        got = [
            reused_probe_pn(n, alpha, phi_chi),
            reused_probe_total(n, alpha, phi_chi, p),
            shared_probe_pn(n, alpha, phi_chi, p),
            shared_probe_total(n, alpha, phi_chi, p),
        ]
        reference = mp_reference(n, alpha, phi_chi, p)
        assert got == pytest.approx(reference, rel=1e-12, abs=1e-300), (n, alpha, phi_chi, p)
