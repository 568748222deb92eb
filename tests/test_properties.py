"""Seeded property loops over the scheme API: for any transparent setup of
either family, any source efficiency and either probe, bright or not, the
figures of merit are finite probabilities."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from xpmherald import loss  # noqa: E402
from xpmherald.errors import ConfigurationError  # noqa: E402
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
    if not cfg.xpm.working or probe.beta == 0:
        with pytest.raises(ConfigurationError):
            loss.max_tolerable_loss(cfg, probe.beta, fixed_p)
        return
    margin = loss._improvement_margin(cfg, probe.beta, fixed_p)
    if not any(margin(x) > 0.0 for x in np.linspace(0.0, 1.0, 201)):
        # the documented zero bound: no grid point improves the source
        with pytest.warns(UserWarning, match="returning 0"):
            assert loss.max_tolerable_loss(cfg, probe.beta, fixed_p) == 0.0
    else:
        assert 0.0 < loss.max_tolerable_loss(cfg, probe.beta, fixed_p) < 1.0
