"""Seeded property loops over the public API: for any transparent setup of
either family, any source efficiency and either probe, bright or not, the
figures of merit are finite probabilities; so are the loss model's and
those of both cascade schemes, whose totals grow with the chain and whose
shared-probe enumeration equals its closed form."""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from xpmherald import loss, mzi  # noqa: E402
from xpmherald.cascade import (  # noqa: E402
    CascadeConfig,
    reused_probe_pn,
    reused_probe_total,
    shared_probe_pn,
    shared_probe_total,
    simulate_cascade,
)
from xpmherald.errors import ConditioningError, ConfigurationError  # noqa: E402
from xpmherald.fock import TruncationPolicy  # noqa: E402
from xpmherald.mzi import (  # noqa: E402
    BRIGHT_PROBE_MEAN_PHOTONS,
    CoherentProbe,
    NoisyPhotonProbe,
    NoisySource,
    run_setup,
    sample_shots,
    transparent_via_angle_diff,
    transparent_via_angle_sum,
)

# derandomized and offline, so every run draws the same examples
SEEDED = settings(derandomize=True, database=None, max_examples=60, deadline=None)
unit = st.floats(0.0, 1.0)
angle = st.floats(0.0, 2.0 * math.pi)


@st.composite
def transparent_configs(draw):
    family = draw(st.sampled_from([transparent_via_angle_sum, transparent_via_angle_diff]))
    theta1 = draw(st.floats(0.0, math.pi))
    k, l = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return family(theta1, draw(angle), draw(angle), k=k, l=l)


@st.composite
def coherent_probes(draw):
    """|beta|^2 up to 30, so both the exact and the bright route run."""
    mean = draw(st.floats(0.0, 30.0))
    return CoherentProbe(complex(math.sqrt(mean) * np.exp(1j * draw(angle))))


probes = st.one_of(st.builds(lambda p: NoisyPhotonProbe(NoisySource(p)), unit), coherent_probes())


@SEEDED
@given(transparent_configs(), unit, probes)
def test_run_setup_scalars_are_probabilities(cfg, p, probe):
    out = run_setup(cfg, NoisySource(p), probe)
    scalars = [out.p_click, out.detection_efficiency, out.total_success, out.truncation_deficit]
    if out.purity_value is not None:
        scalars.append(out.purity_value)
    assert all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in scalars), (out, cfg, p, probe)
    bright = isinstance(probe, CoherentProbe) and abs(probe.beta) ** 2 > BRIGHT_PROBE_MEAN_PHOTONS
    if bright:
        assert out.truncation_deficit == 0.0
    else:
        assert out.truncation_deficit <= TruncationPolicy.tail_tolerance + 1e-12


@SEEDED
@given(transparent_configs(), unit, probes, st.integers(1, 3000), st.integers(0, 2**63))
def test_sample_shots_counts_sum_to_the_shots(cfg, p, probe, n_shots, seed):
    counts = sample_shots(cfg, NoisySource(p), probe, n_shots, seed)
    assert all(n >= 0 for n in counts.values())
    assert sum(counts.values()) == n_shots
    assert counts["click_no_photon"] == 0  # transparent: no click without a photon


@SEEDED
@given(transparent_configs(), coherent_probes(), st.one_of(st.none(), unit))
def test_max_tolerable_loss_is_a_probability(cfg, probe, fixed_p):
    _assert_loss_bound(cfg, probe.beta, fixed_p)


def _subnormal_click_exponent(cfg, beta) -> bool:
    """Whether the lossless click exponent is positive but below the normal
    float range, where the loss model refuses the probe."""
    theta1, phi_chi = cfg.bs1.theta, cfg.xpm.phi_chi
    positive = beta != 0 and math.sin(2.0 * theta1) != 0 and math.sin(phi_chi / 2.0) != 0
    x1 = mzi._detector_means(cfg, beta)[0]
    return positive and x1 < sys.float_info.min


def _assert_loss_bound(cfg, beta, fixed_p):
    if not cfg.xpm.working or beta == 0 or _subnormal_click_exponent(cfg, beta):
        with pytest.raises(ConfigurationError):
            loss.max_tolerable_loss(cfg, beta, fixed_p)
        return
    p = 0.0 if fixed_p is None else fixed_p

    def margin(x):  # the solver's margin, on the public click probabilities
        q1, q0 = loss.lossy_click_probs(cfg, beta, loss.LossParams(float(x)))
        return (1.0 - x) * q1 * (1.0 - p) - (p * x + 1.0 - p) * q0

    if not any(margin(x) > 0.0 for x in np.linspace(0.0, 1.0, 201)):
        # the documented zero bound: no grid point improves the source
        with pytest.warns(UserWarning, match="returning 0"):
            assert loss.max_tolerable_loss(cfg, beta, fixed_p) == 0.0
    else:
        assert 0.0 < loss.max_tolerable_loss(cfg, beta, fixed_p) < 1.0


def _in_unit(values) -> bool:
    return all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in values)


@SEEDED
@given(transparent_configs(), st.floats(0.0, 1e6), angle, st.floats(0.0, 1.0, exclude_min=True), unit)
def test_loss_model_figures_are_probabilities(cfg, beta_sq, phase, p_a, p_absorb):
    # bright probes as in the loss-bounds table, any absorption
    beta = complex(math.sqrt(beta_sq) * np.exp(1j * phase))
    _assert_loss_bound(cfg, beta, p_a)
    if _subnormal_click_exponent(cfg, beta):
        with pytest.raises(ConfigurationError):
            loss.lossy_heralded_efficiency(p_a, cfg, beta, loss.LossParams(p_absorb))
        return
    try:
        report = loss.lossy_heralded_efficiency(p_a, cfg, beta, loss.LossParams(p_absorb))
    except ConditioningError:
        return  # no click at all, so no heralded efficiency
    assert _in_unit((report.q1, report.q0, report.p_prime)), (report, cfg)


@st.composite
def cascades(draw, max_setups):
    """(n_setups, alpha, phi_chi, p) with |alpha|^2 up to 100."""
    alpha = complex(math.sqrt(draw(st.floats(0.0, 100.0))) * np.exp(1j * draw(angle)))
    return draw(st.integers(1, max_setups)), alpha, draw(angle), draw(unit)


@SEEDED
@given(cascades(500), st.data())
def test_cascade_figures_are_probabilities(chain, data):
    n_setups, alpha, phi_chi, p = chain
    n = data.draw(st.integers(1, n_setups))
    exact = simulate_cascade(CascadeConfig("reused_probe", n_setups, alpha, phi_chi, p))
    values = [
        reused_probe_pn(n, alpha, phi_chi),
        shared_probe_pn(n, alpha, phi_chi, p),
        reused_probe_total(n_setups, alpha, phi_chi, p),
        shared_probe_total(n_setups, alpha, phi_chi, p),
        exact.total,
        *exact.per_setup,
    ]
    assert _in_unit(values), chain


@SEEDED
@given(cascades(499), st.integers(1, 500))
def test_cascade_totals_grow_with_the_chain(chain, more):
    # up to rounding: once a total saturates at 1 - exp(-|alpha|^2), the
    # shared-probe closed form wanders by an ulp (18 -> 20 setups at
    # |alpha|^2 = 1, phi_chi = 3, p = 0.89 lose one)
    n_setups, alpha, phi_chi, p = chain
    longer = min(500, n_setups + more)
    for total in (reused_probe_total, shared_probe_total):
        shorter = total(n_setups, alpha, phi_chi, p)
        assert total(longer, alpha, phi_chi, p) >= shorter - 4 * math.ulp(shorter), chain


@SEEDED
@given(cascades(12))
def test_shared_enumeration_equals_its_closed_form(chain):
    n_setups, alpha, phi_chi, p = chain
    exact = simulate_cascade(CascadeConfig("shared_probe", n_setups, alpha, phi_chi, p))
    assert _in_unit([exact.total, *exact.per_setup]), chain
    closed = [shared_probe_pn(n, alpha, phi_chi, p) for n in range(1, n_setups + 1)]
    assert np.max(np.abs(exact.per_setup - closed)) <= 1e-10, chain
    assert abs(exact.total - shared_probe_total(n_setups, alpha, phi_chi, p)) <= 1e-10, chain
