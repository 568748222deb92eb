import ctypes
import hashlib
import importlib.util
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xpmherald.elements as el
import xpmherald.mzi as mzi
from xpmherald.elements import (
    BeamSplitterParams,
    XpmParams,
    apply_beam_splitter,
    apply_xpm,
)
from xpmherald.errors import ConditioningError, ConfigurationError, CutoffViolationError
from xpmherald.fock import (
    Ensemble,
    MultiModeKet,
    TruncationPolicy,
    condition,
    make_coherent,
    make_fock,
    mode_number_distribution,
    tensor,
)
from xpmherald.loss import LossParams, lossy_click_probs, max_tolerable_loss
from xpmherald.mzi import (
    CoherentProbe,
    MziConfig,
    NoisyPhotonProbe,
    NoisySource,
    _classical_clicks,
    coherent_outputs,
    detection_efficiency,
    is_transparent,
    propagate_mzi,
    run_setup,
    sample_shots,
    transparency_sign,
    transparent_via_angle_diff,
    transparent_via_angle_sum,
    vacuum_leak_amplitude,
)
from xpmherald.verify import _random_nontransparent, random_ket, random_transparent

PI = math.pi

# The exact engine's block products run on OpenBLAS dgemm, whose kernels sum
# in different orders, so a bit-for-bit golden holds one digest per kernel:
# {core name: (run_setup scalars, propagate_mzi amplitudes)}.  The name is the
# one the library reports; OPENBLAS_CORETYPE=Prescott reports "Katmai".
GOLDEN_DIGESTS = {
    "SkylakeX": (
        "32dfdbc7bfcdc1b2b540ed9268703594015d1084513543f2963d6a477328e373",
        "0cf7c73f926307a06bc4e704d2939bf0ae93e01a70eedcb79114e6862da55965",
    ),
    "Haswell": (
        "1b4660e4136c7a5c73d5e6910f2e06ea6b3b1e94b3077eea4962d95c0e121e09",
        "7fbbb7e7b8185df1d0183d263d581353cba89a16b18050b0b65e950b014b6897",
    ),
    "Sandybridge": (
        "6cc20ab714aa10f985dbee30d8dec4210f68f29c55c2acfe0408c28bbbc144ff",
        "bd1701b2923597feec839b081a03ed2743975a2c2680ea3428f4976dcfe0161b",
    ),
    "Nehalem": (
        "33857fa7a5ca18c186a18d726b7f2465b6e5aec533dd0609d43d6b6b72e9a032",
        "e27d5ea379cf9f40c7c7dc8dc987343db448f85c993b54ed66da3e4ca611f583",
    ),
    "Katmai": (
        "cbcf912524f9ff4e7cbaf77c951ef9864b8f5d1f6bab1842906dacdca8048193",
        "5653999798bca603c8ed4ee0b8faf267f51d9aaf701d578892c1c17ddfcce6f3",
    ),
}


def openblas_core() -> str:
    """The kernel name numpy's bundled OpenBLAS reports, or why none could
    be read."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return "unreadable: no numpy.libs/libscipy_openblas64_*.so"
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (OSError, AttributeError) as exc:
        return f"unreadable: {exc}"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def golden_digest(which: int) -> str:
    core = openblas_core()
    assert core in GOLDEN_DIGESTS, f"no golden digest recorded for OpenBLAS core {core!r}"
    return GOLDEN_DIGESTS[core][which]


def mzi_config(theta1, phi1, theta2, phi2, phi_chi=1.0):
    return MziConfig(
        bs1=BeamSplitterParams(theta1, phi1),
        bs2=BeamSplitterParams(theta2, phi2),
        xpm=XpmParams(phi_chi),
    )


def test_vacuum_leak_vanishes_on_angle_sum_constraint():
    cfg = mzi_config(PI / 4.0, 0.0, 3.0 * PI / 4.0, 0.0)
    assert abs(vacuum_leak_amplitude(cfg)) < 1e-15


def test_vacuum_leak_vanishes_on_phase_diff_constraint():
    cfg = mzi_config(PI / 4.0, 0.0, PI / 4.0, PI)
    assert abs(vacuum_leak_amplitude(cfg)) < 1e-15


def test_vacuum_leak_symmetric_no_phase():
    cfg = mzi_config(PI / 4.0, 0.0, PI / 4.0, 0.0)
    assert vacuum_leak_amplitude(cfg) == pytest.approx(1.0, abs=1e-15)


def test_is_transparent_examples():
    assert is_transparent(mzi_config(PI / 4.0, 0.0, 3.0 * PI / 4.0, 0.0))
    assert is_transparent(mzi_config(PI / 3.0, PI, 2.0 * PI / 3.0, PI))
    assert not is_transparent(mzi_config(PI / 4.0, 0.0, PI / 4.0, 0.0))


def test_constructors_always_transparent():
    rng = np.random.default_rng(100)
    for _ in range(50):
        cfg = random_transparent(rng)
        assert is_transparent(cfg)
        assert transparency_sign(cfg) in (-1, 1)


def _matrix_transparency(cfg):
    """The transparency test on the numpy product of both splitters' matrices:
    (transparent, sign of the multiple of the identity, leak amplitude)."""
    t = np.array(el._bs_entries(cfg.bs1)) @ np.array(el._bs_entries(cfg.bs2))
    lam = t[0, 0]
    unit = abs(abs(lam) - 1.0) <= mzi.TRANSPARENCY_TOL
    ok = unit and np.max(np.abs(t - lam * np.eye(2))) <= mzi.TRANSPARENCY_TOL
    return bool(ok), (1 if lam.real > 0.0 else -1), complex(t[0, 1])


def test_scalar_transparency_matches_matrix_definition():
    # both constraint families at every k and l, random splitter pairs, and
    # transparent configs with the second splitter's angle or phase moved
    # by delta, on both sides of TRANSPARENCY_TOL
    rng = np.random.default_rng(71)
    configs = []
    for family in (transparent_via_angle_sum, transparent_via_angle_diff):
        for k in (-1, 0, 1):
            for l in (-1, 0, 1, 2):
                for _ in range(40):
                    theta1, phi1, phi_chi = rng.uniform(0.0, 2.0 * PI, 3)
                    configs.append(family(theta1, phi1, phi_chi, k=k, l=l))
    configs += [mzi_config(*rng.uniform(-PI, 2.0 * PI, 5)) for _ in range(500)]
    perturbed = []
    for delta in (1e-11, 5e-10, 2e-9, 1e-7):
        for i in range(150):
            cfg = random_transparent(rng)
            theta, phi = cfg.bs2.theta, cfg.bs2.phi
            moved = (theta + delta, phi) if i % 2 else (theta, phi + delta)
            perturbed.append(MziConfig(cfg.bs1, BeamSplitterParams(*moved), cfg.xpm))
    seen = set()
    for shifted, group in ((False, configs), (True, perturbed)):
        for cfg in group:
            transparent, sign, leak = _matrix_transparency(cfg)
            assert is_transparent(cfg) is transparent
            assert abs(vacuum_leak_amplitude(cfg) - leak) <= 1e-15
            if transparent:
                assert transparency_sign(cfg) == sign
            else:
                with pytest.raises(ConfigurationError):
                    transparency_sign(cfg)
            seen.add((shifted, transparent))
    assert len(configs) + len(perturbed) >= 2000
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_transparency_sign_tracks_angle_parity():
    # odd angle-sum instances negate both field operators, even ones are
    # the strict identity
    assert transparency_sign(transparent_via_angle_sum(0.7, 0.2, 1.0, l=1)) == -1
    assert transparency_sign(transparent_via_angle_sum(0.7, 0.2, 1.0, l=0)) == 1
    assert transparency_sign(transparent_via_angle_diff(0.7, 0.2, 1.0, l=0)) == 1
    assert transparency_sign(transparent_via_angle_diff(0.7, 0.2, 1.0, l=1)) == -1


def test_empty_interferometer_is_signed_identity():
    rng = np.random.default_rng(4)
    for _ in range(40):
        cfg = random_transparent(rng)
        sign = transparency_sign(cfg)
        bc = random_ket(rng, (3, 3), max_total=3)
        ket = tensor([make_fock((0,), (1,)), bc])
        out = propagate_mzi(ket, cfg)
        occ = np.indices(ket.amps.shape)
        expected = ket.amps * sign ** (occ[1] + occ[2])
        assert np.max(np.abs(out.amps - expected)) <= 1e-12


def test_nontransparent_config_changes_probe_photon():
    cfg = mzi_config(PI / 4.0, 0.0, PI / 4.0, 0.0)
    ket = tensor(
        [make_fock((0,), (1,)), make_fock((1,), (1,)), make_fock((0,), (1,))]
    )
    out = propagate_mzi(ket, cfg)
    # the probe photon leaks into the detector mode with unit amplitude here
    assert abs(out.amps[0, 0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_run_setup_vacuum_source_never_clicks():
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = random_transparent(rng)
        out = run_setup(cfg, NoisySource(0.0), CoherentProbe(1.5))
        assert out.p_click < 1e-12


def test_run_setup_two_photons_matches_closed_form():
    for phi_chi in np.linspace(0.0, 2.0 * PI, 9):
        cfg = transparent_via_angle_sum(PI / 4.0, 0.0, float(phi_chi))
        out = run_setup(cfg, NoisySource(1.0), NoisyPhotonProbe(NoisySource(1.0)))
        assert out.p_click == pytest.approx(
            math.sin(phi_chi / 2.0) ** 2, abs=1e-12
        )


def test_run_setup_coherent_matches_closed_form():
    for beta in (0.5, 1.0, 2.0):
        cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
        out = run_setup(cfg, NoisySource(1.0), CoherentProbe(beta))
        expected = 1.0 - math.exp(-beta * beta)
        assert abs(out.p_click - expected) <= 1e-10 + out.truncation_deficit


def test_run_setup_purity_is_one_for_transparent():
    rng = np.random.default_rng(13)
    for _ in range(10):
        cfg = random_transparent(rng, phi_chi=float(rng.uniform(0.5, 5.5)))
        out = run_setup(
            cfg,
            NoisySource(float(rng.uniform(0.1, 1.0))),
            NoisyPhotonProbe(NoisySource(float(rng.uniform(0.3, 1.0)))),
        )
        if out.p_click > 1e-9:
            assert out.purity_given_click == pytest.approx(1.0, abs=1e-12)


def test_run_setup_total_success_factorizes():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 2.0)
    for p_a in (0.2, 0.7, 1.0):
        out = run_setup(cfg, NoisySource(p_a), NoisyPhotonProbe(NoisySource(0.8)))
        assert out.total_success == pytest.approx(
            out.detection_efficiency * p_a, abs=1e-12
        )
        # with transparency every click comes from the photon branch
        assert out.p_click == pytest.approx(out.total_success, abs=1e-12)


def test_run_setup_scalars_golden():
    # every figure of merit of run_setup, bit for bit: the sha256 of their
    # repr over 216 seeded configs, transparent and not, p in {0, 1,
    # random}, noisy probes, exact coherent probes and bright ones
    rng = np.random.default_rng(97)
    rows = []
    for i in range(216):
        transparent = i % 2 == 0
        cfg = random_transparent(rng) if transparent else _random_nontransparent(rng)
        p = (0.0, 1.0, float(rng.uniform()))[i // 2 % 3]
        kind = i // 6 % 3
        if kind == 0:
            probe = NoisyPhotonProbe(NoisySource((0.0, 1.0, float(rng.uniform()))[i // 18 % 3]))
        else:
            # |beta| > 4 takes the bright route
            size = rng.uniform(0.0, 4.0) if kind == 1 else rng.uniform(4.1, 30.0)
            probe = CoherentProbe(complex(size * np.exp(1j * rng.uniform(0.0, 2.0 * PI))))
        out = run_setup(cfg, NoisySource(p), probe, require_transparent=transparent)
        rows.append(
            (out.p_click, out.detection_efficiency, out.total_success,
             out.truncation_deficit, out.purity_value)
        )
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == golden_digest(0)


def test_run_setup_builds_no_conditioned_state(monkeypatch):
    # run_setup computes scalars only; the branch ensembles are built and
    # conditioned by fock.condition when click_state is read
    built = []

    def refuse(*args):
        raise RuntimeError("conditioned")

    monkeypatch.setattr(mzi, "condition", refuse)
    monkeypatch.setattr(mzi, "Ensemble", built.append)
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 2.0)
    for probe in (CoherentProbe(1.0), NoisyPhotonProbe(NoisySource(0.8))):
        out = run_setup(cfg, NoisySource(0.6), probe)
        assert out.p_click > 0.0 and not built
        with pytest.raises(RuntimeError, match="conditioned"):
            _ = out.click_state
        assert len(built) == 1
        built.clear()


def test_run_setup_rejects_nontransparent_by_default():
    cfg = mzi_config(PI / 4.0, 0.0, PI / 4.0, 0.0)
    with pytest.raises(ConfigurationError):
        run_setup(cfg, NoisySource(0.5), CoherentProbe(1.0))
    out = run_setup(
        cfg, NoisySource(0.5), CoherentProbe(1.0), require_transparent=False
    )
    assert out.p_click > 0.0
    # false clicks from the vacuum branch degrade the conditioned purity
    assert out.purity_given_click < 1.0


def test_run_setup_degenerate_splitter_angle():
    # theta1 = 0 keeps the probe out of the detector arm entirely
    cfg = transparent_via_angle_sum(0.0, 0.0, 2.0, l=0)
    out = run_setup(cfg, NoisySource(0.7), NoisyPhotonProbe(NoisySource(0.9)))
    assert out.p_click == 0.0
    assert out.detection_efficiency == 0.0
    assert out.click_state is None
    with pytest.raises(ConditioningError):
        _ = out.purity_given_click


def test_single_photon_click_prob_examples():
    # one photon in each of signal and probe: sin^2(phi_chi/2) sin^2(2 theta1)
    one = NoisyPhotonProbe(NoisySource(1.0))
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    assert detection_efficiency(cfg, one) == pytest.approx(1.0)
    assert detection_efficiency(transparent_via_angle_sum(0.9, 0.0, 0.0), one) == 0.0
    cfg = transparent_via_angle_sum(PI / 8.0, 0.0, PI / 2.0)
    assert detection_efficiency(cfg, one) == pytest.approx(0.25, abs=1e-15)


def test_single_photon_click_prob_requires_transparency():
    with pytest.raises(ConfigurationError):
        detection_efficiency(
            mzi_config(PI / 4.0, 0.0, PI / 4.0, 0.0), NoisyPhotonProbe(NoisySource(1.0))
        )


def test_detection_efficiency_noisy_examples():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    assert detection_efficiency(cfg, NoisyPhotonProbe(NoisySource(0.0))) == 0.0
    assert detection_efficiency(
        cfg, NoisyPhotonProbe(NoisySource(0.6))
    ) == pytest.approx(0.6)


def test_detection_efficiency_coherent_example():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    assert detection_efficiency(cfg, CoherentProbe(2.0)) == pytest.approx(
        1.0 - math.exp(-4.0), abs=1e-12
    )


def test_optimal_theta1_sweep_oracle():
    # numeric sweep confirms the optimum for both probes, including the
    # coherent case where it is asserted rather than derived
    sweep = np.linspace(0.02, PI - 0.02, 81)
    for probe in (NoisyPhotonProbe(NoisySource(1.0)), CoherentProbe(1.0)):
        vals = [
            detection_efficiency(
                transparent_via_angle_sum(float(t), 0.0, 1.0), probe
            )
            for t in sweep
        ]
        best = sweep[int(np.argmax(vals))]
        assert abs(best - PI / 4.0) <= sweep[1] - sweep[0]


def test_sample_shots_deterministic():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 2.0)
    kwargs = dict(
        cfg=cfg,
        source=NoisySource(0.5),
        probe=NoisyPhotonProbe(NoisySource(0.8)),
        n_shots=20_000,
        seed=5,
    )
    assert sample_shots(**kwargs) == sample_shots(**kwargs)


def test_sample_shots_no_click_without_photon():
    cfg = transparent_via_angle_sum(0.9, 0.4, 2.5)
    counts = sample_shots(
        cfg, NoisySource(0.5), CoherentProbe(1.2), 100_000, seed=12
    )
    assert counts["click_no_photon"] == 0
    assert sum(counts.values()) == 100_000


def test_sample_shots_inert_xpm_never_clicks():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 0.0)
    counts = sample_shots(
        cfg, NoisySource(0.9), NoisyPhotonProbe(NoisySource(0.9)), 50_000, seed=3
    )
    assert counts["click_and_photon"] == 0
    assert counts["click_no_photon"] == 0


def test_sample_shots_frequency_in_binomial_band():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    shots = 100_000
    counts = sample_shots(cfg, NoisySource(1.0), CoherentProbe(1.0), shots, seed=21)
    expected = 1.0 - math.exp(-1.0)
    sigma = math.sqrt(expected * (1.0 - expected) / shots)
    freq = counts["click_and_photon"] / shots
    assert abs(freq - expected) < 4.0 * sigma


def test_bright_probe_routed_through_classical_path():
    # far beyond any sensible truncation, still instant and exact
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 0.010)
    out = run_setup(cfg, NoisySource(0.5), CoherentProbe(1000.0))
    expected = 1.0 - math.exp(-1e6 * math.sin(0.005) ** 2)
    assert out.detection_efficiency == pytest.approx(expected, abs=1e-12)
    assert out.truncation_deficit == 0.0
    assert out.click_state is None
    assert out.purity_given_click == pytest.approx(1.0, abs=1e-12)
    assert out.total_success == pytest.approx(0.5 * expected, abs=1e-12)


def _click_mass(ket):
    """Squared-amplitude mass of one or more photons in the detector mode."""
    click = ket.amps[:, :, 1:]
    return float(np.vdot(click, click).real)


def test_bright_and_exact_paths_agree_at_the_threshold():
    cfg = transparent_via_angle_sum(0.6, 0.3, 1.9)
    beta = 4.2  # mean photons 17.64, just past the switch
    bright = run_setup(cfg, NoisySource(0.7), CoherentProbe(beta))
    # the exact side by hand: each signal branch propagated in truncated Fock
    # space, past the brightness switch that run_setup applies
    probe = make_coherent(beta, TruncationPolicy(tail_tolerance=1e-12))
    cut = probe.cutoffs[0]
    clicks, deficit = [], 0.0
    for photons, weight in ((0, 0.3), (1, 0.7)):
        ket = tensor([make_fock((photons,), (1,)), probe, make_fock((0,), (cut,))])
        out = propagate_mzi(ket, cfg)
        clicks.append(_click_mass(out))
        deficit += weight * (1.0 - out.squared_norm())
    p_click = 0.3 * clicks[0] + 0.7 * clicks[1]
    assert bright.click_state is None
    assert abs(bright.p_click - p_click) <= 1e-10 + deficit
    assert abs(bright.detection_efficiency - clicks[1]) <= 1e-10 + deficit


def test_bright_route_is_the_lossless_classical_click_function():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cfg = random_transparent(rng)
        beta = complex(*rng.uniform(-30.0, 30.0, 2))
        if abs(beta) ** 2 <= 16.0:
            continue
        p = float(rng.uniform())
        q1, q0 = lossy_click_probs(cfg, beta, LossParams(0.0))
        out = run_setup(cfg, NoisySource(p), CoherentProbe(beta))
        assert out.detection_efficiency == q1
        assert out.p_click == p * q1 + (1.0 - p) * q0
        assert out.total_success == q1 * p
        assert out.truncation_deficit == 0.0 and out.click_state is None


def test_propagate_mzi_matches_element_chain():
    # the fused chain against the elements one by one: seeded random kets
    # with 0-2 label axes, on transparent and random configs, with either
    # splitter, or both, at theta = 0
    rng = np.random.default_rng(53)
    identity = BeamSplitterParams(0.0, 0.4)
    raised = compared = 0
    for i in range(160):
        shape = (2 + i % 2, *rng.integers(1, 7, 2), *rng.integers(1, 4, i % 3))
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if i % 4:  # keep every occupied probe-auxiliary total within both cutoffs
            n, m = np.indices(shape[1:3])
            amps[:, n + m >= min(shape[1:3])] = 0.0
        amps = amps / np.linalg.norm(amps) if i % 9 else np.zeros(shape)
        ket = MultiModeKet(amps)
        cfg = random_transparent(rng) if i % 2 else mzi_config(*rng.uniform(0.0, 6.0, 5))
        if i % 5 in (1, 3):
            cfg = MziConfig(identity, cfg.bs2, cfg.xpm)
        if i % 5 in (2, 3):
            cfg = MziConfig(cfg.bs1, identity, cfg.xpm)

        def chain():
            out = apply_beam_splitter(ket, (1, 2), cfg.bs1)
            return apply_beam_splitter(apply_xpm(out, (0, 1), cfg.xpm), (1, 2), cfg.bs2)

        results = []
        for route in (lambda: propagate_mzi(ket, cfg), chain):
            try:
                results.append(route().amps)
            except CutoffViolationError:
                assert cfg.bs1 != identity or cfg.bs2 != identity
                results.append(None)
        assert (results[0] is None) == (results[1] is None)
        if results[0] is None:
            raised += 1
        else:
            compared += 1
            assert np.max(np.abs(results[0] - results[1]), initial=0.0) <= 1e-14
    assert raised > 10 and compared > 100


def test_propagate_mzi_amplitudes_golden():
    # the propagated array bit for bit: the sha256 of every output's bytes
    # over 63 seeded (config, ket) pairs, transparent and not, on the
    # noisy-photon and coherent inputs of _click_table (|beta| up to the
    # bright-probe threshold) and on random entangled (B, C) kets, with and
    # without a label axis; the last three have one or both splitters at
    # theta = 0
    rng = np.random.default_rng(61)
    identity = BeamSplitterParams(0.0, 1.3)
    digest = hashlib.sha256()
    for i in range(63):
        cfg = random_transparent(rng) if i % 2 == 0 else _random_nontransparent(rng)
        if i >= 60:
            bs1, bs2 = (identity, cfg.bs2) if i == 60 else (cfg.bs1, identity)
            cfg = MziConfig(*((identity, identity) if i == 62 else (bs1, bs2)), cfg.xpm)
        kind = i // 2 % 3
        if kind == 0:
            amps = np.zeros((2, 2, 2, 2), dtype=np.complex128)
            amps[:, 1, 0, 0] = amps[:, 0, 0, 1] = 1.0
        elif kind == 1:
            size = 4.0 if i == 3 else rng.uniform(0.0, 4.0)
            beta = complex(size * np.exp(1j * rng.uniform(0.0, 2.0 * PI)))
            b_amps = make_coherent(beta, TruncationPolicy()).amps
            amps = np.zeros((2, b_amps.size, b_amps.size, 1), dtype=np.complex128)
            amps[:, :, 0, 0] = b_amps
        else:
            cut = int(rng.integers(1, 13))
            labels = (int(rng.integers(1, 4)),) if i % 4 == 1 else ()
            amps = random_ket(rng, (1, cut, cut, *labels), max_total=cut).amps
        # one unweighted input branch per (signal, label) slice, as in _click_table
        ket = MultiModeKet._unchecked(amps)
        digest.update(propagate_mzi(ket, cfg).amps.tobytes())
    assert digest.hexdigest() == golden_digest(1)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 kernels only")
def test_goldens_hold_under_a_second_blas_kernel():
    # a kernel-dependent change shows at once: both goldens again, in a
    # child process on the common AVX2 kernel
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))
    script = (
        "import test_mzi as t; t.test_run_setup_scalars_golden(); "
        "t.test_propagate_mzi_amplitudes_golden(); print(t.openblas_core())"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        cwd=here, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Haswell\n"


def _per_branch_outcome(cfg, source, probe):
    """The independent route: each (signal, probe) branch as its own 3-mode
    ket, propagated on its own.  Returns p_click, detection efficiency,
    truncation deficit and both conditioned ensembles (None when empty)."""
    if isinstance(probe, NoisyPhotonProbe):
        pb = probe.source.p
        probes = [(make_fock((1,), (1,)), pb), (make_fock((0,), (1,)), 1.0 - pb)]
    else:
        probes = [(make_coherent(probe.beta, TruncationPolicy()), 1.0)]
    cut = probes[0][0].cutoffs[0]
    p_click = det_eff = norm = 0.0
    branches = []
    for photons, wa in ((1, source.p), (0, 1.0 - source.p)):
        for b_ket, wb in probes:
            ket = tensor([make_fock((photons,), (1,)), b_ket, make_fock((0,), (cut,))])
            out = propagate_mzi(ket, cfg)
            click = _click_mass(out)
            p_click += wa * wb * click
            det_eff += wb * click if photons else 0.0
            norm += wa * wb * out.squared_norm()
            if wa * wb > 0.0:
                branches.append((wa * wb, out))
    states = []
    for event in ("at_least_one", "zero"):
        try:
            states.append(condition(Ensemble(branches), 2, event)[1])
        except ConditioningError:
            states.append(None)
    return p_click, det_eff, max(0.0, 1.0 - norm), *states


@pytest.mark.parametrize("noisy", [False, True])
def test_one_propagation_matches_per_branch_propagation(noisy):
    rng = np.random.default_rng(41 + noisy)
    for i in range(30):
        cfg = random_transparent(rng) if i % 3 else mzi_config(*rng.uniform(0.0, 6.0, 4))
        p, pb = ([0.0, 1.0, float(rng.uniform())][k] for k in (i % 3, i // 3 % 3))
        if noisy:
            probe = NoisyPhotonProbe(NoisySource(pb))
        else:
            probe = CoherentProbe(complex(*rng.uniform(-2.5, 2.5, 2)))
        out = run_setup(cfg, NoisySource(p), probe, require_transparent=False)
        p_click, det_eff, deficit, clicked, unclicked = _per_branch_outcome(
            cfg, NoisySource(p), probe
        )
        assert abs(out.p_click - p_click) <= 1e-15
        assert abs(out.detection_efficiency - det_eff) <= 1e-15
        assert abs(out.truncation_deficit - deficit) <= 1e-15
        if clicked is None:
            assert out.purity_value is None
        else:
            purity = sum(w * mode_number_distribution(k, 0)[1] for w, k in clicked.branches)
            assert abs(out.purity_value - purity) <= 1e-15
        for got, want in ((out.click_state, clicked), (out.no_click_state, unclicked)):
            assert (got is None) == (want is None)
            if want is None:
                continue
            assert len(got.branches) == len(want.branches)
            for (wg, kg), (ww, kw) in zip(got.branches, want.branches):
                assert kg.cutoffs == kw.cutoffs
                assert abs(wg - ww) <= 1e-15
                assert np.max(np.abs(kg.amps - kw.amps)) <= 1e-15


@pytest.mark.parametrize(
    "probe", [CoherentProbe(1.0), NoisyPhotonProbe(NoisySource(0.8))]
)
def test_vacuum_source_reports_conditional_detection_efficiency(probe):
    # the detection efficiency is conditional on a photon, so a source that
    # never emits one still has it; it used to read 0 here
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 2.0)
    vacuum = run_setup(cfg, NoisySource(0.0), probe).detection_efficiency
    assert isinstance(vacuum, float)
    faint = run_setup(cfg, NoisySource(1e-300), probe).detection_efficiency
    assert vacuum > 0.5 and abs(vacuum - faint) <= 1e-15


def test_sample_shots_bright_probe():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 0.02)
    counts = sample_shots(cfg, NoisySource(0.5), CoherentProbe(200.0), 50_000, seed=6)
    assert counts["click_no_photon"] == 0
    expected = 0.5 * (1.0 - math.exp(-4e4 * math.sin(0.01) ** 2))
    freq = counts["click_and_photon"] / 50_000
    sigma = math.sqrt(expected * (1.0 - expected) / 50_000)
    assert abs(freq - expected) < 4.0 * sigma


def test_no_click_probe_state_matches_amplitude_recursion():
    # conditioned on no click, the probe leaves in a coherent state whose
    # amplitude the classical path predicts; this is the per-pass recursion
    # the cascade schemes build on
    beta, phi_chi = 1.2, 1.9
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, phi_chi)
    out = run_setup(cfg, NoisySource(1.0), CoherentProbe(beta))
    assert out.no_click_state is not None
    branch = out.no_click_state.branches[0][1]
    predicted = coherent_outputs(cfg, beta, True)[0]
    assert abs(predicted) == pytest.approx(
        beta * abs(math.cos(phi_chi / 2.0)), abs=1e-12
    )
    cut = branch.cutoffs[1]

    def overlap(amplitude):
        # the coherent state at its own cutoff, zero-padded to the branch's
        arm = make_coherent(amplitude, TruncationPolicy(1e-10)).amps
        padded = MultiModeKet(np.pad(arm, (0, cut + 1 - arm.size)))
        a = tensor([make_fock((1,), (1,)), padded, make_fock((0,), (cut,))])
        norms = math.sqrt(a.squared_norm()) * math.sqrt(branch.squared_norm())
        return abs(np.vdot(a.amps, branch.amps)) / norms

    assert overlap(predicted) >= 1.0 - 1e-8
    # and the wrong-sign state is a different state
    assert overlap(-predicted) < 1.0 - 1e-2


def test_classical_clicks_read_coherent_outputs():
    # the bright-probe click function and the classical output amplitudes
    # are one 2x2 map: the click probabilities are 1 - exp(-|detector arm|^2)
    rng = np.random.default_rng(41)
    for i in range(400):
        cfg = random_transparent(rng) if i % 2 else _random_nontransparent(rng)
        beta = complex(rng.normal(0.0, 3.0), rng.normal(0.0, 3.0))
        q1, q0 = _classical_clicks(cfg, beta)(0.0)
        for q, present in ((q1, True), (q0, False)):
            arm = coherent_outputs(cfg, beta, present)[1]
            assert abs(q - (1.0 - math.exp(-abs(arm) ** 2))) < 1e-14


def test_coherent_deficit_is_recorded():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 1.0)
    # the scheme routes truncate at the default tail tolerance
    out = run_setup(cfg, NoisySource(1.0), CoherentProbe(2.0))
    assert 0.0 < out.truncation_deficit < TruncationPolicy.tail_tolerance == 1e-10
    noisies = run_setup(cfg, NoisySource(1.0), NoisyPhotonProbe(NoisySource(1.0)))
    assert noisies.truncation_deficit == pytest.approx(0.0, abs=1e-15)


def test_sample_shots_counts_pinned():
    # counts recorded from the propagation route before the dense engine;
    # any drift in the per-branch click probabilities or in the order of
    # the random draws changes them
    cfg = transparent_via_angle_sum(0.6, 0.3, 2.1)
    assert sample_shots(
        cfg, NoisySource(0.45), NoisyPhotonProbe(NoisySource(0.7)), 200_000, seed=5
    ) == {
        "click_and_photon": 40967,
        "click_no_photon": 0,
        "no_click_photon": 49143,
        "no_click_no_photon": 109890,
    }
    assert sample_shots(
        cfg, NoisySource(0.45), CoherentProbe(1.3 + 0.4j), 200_000, seed=6
    ) == {
        "click_and_photon": 63246,
        "click_no_photon": 0,
        "no_click_photon": 26859,
        "no_click_no_photon": 109895,
    }
    assert sample_shots(
        cfg, NoisySource(1.0), NoisyPhotonProbe(NoisySource(1.0)), 50_000, seed=7
    ) == {
        "click_and_photon": 32694,
        "click_no_photon": 0,
        "no_click_photon": 17306,
        "no_click_no_photon": 0,
    }


@pytest.mark.parametrize(
    "transparent, p_a, probe, n_shots, seed, counts",
    [
        (False, 0.0, NoisyPhotonProbe(NoisySource(0.7)), 20_000, 11, (0, 7075, 0, 12925)),
        (False, 1.0, NoisyPhotonProbe(NoisySource(0.7)), 20_000, 12, (2786, 0, 17214, 0)),
        (False, 0.0, CoherentProbe(1.3 + 0.4j), 20_000, 13, (0, 12189, 0, 7811)),
        (True, 1.0, CoherentProbe(1.3 + 0.4j), 20_000, 14, (14019, 0, 5981, 0)),
        (False, 0.45, NoisyPhotonProbe(NoisySource(0.0)), 20_000, 15, (0, 0, 9076, 10924)),
        (False, 0.45, NoisyPhotonProbe(NoisySource(1.0)), 20_000, 16, (1787, 5598, 7180, 5435)),
        (True, 0.45, CoherentProbe(4.5 - 1.0j), 20_000, 17, (8960, 0, 0, 11040)),
        (False, 0.45, CoherentProbe(4.5 - 1.0j), 20_000, 18, (8734, 11139, 127, 0)),
        (False, 0.45, NoisyPhotonProbe(NoisySource(0.7)), 1, 1, (1, 0, 0, 0)),
        (False, 0.45, NoisyPhotonProbe(NoisySource(0.7)), 1, 7, (0, 1, 0, 0)),
        (True, 0.45, CoherentProbe(4.5 - 1.0j), 1, 0, (1, 0, 0, 0)),
    ],
)
def test_sample_shots_edge_branches_pinned(transparent, p_a, probe, n_shots, seed, counts):
    # counts recorded before the click lookup table; the cases reach every
    # cell of it: sources and probes at 0 and 1, a leaky setup so that q0 is
    # not 0, the classical path of a bright probe (|beta|^2 = 21.25), one shot
    cfg = transparent_via_angle_sum(0.6, 0.3, 2.1)
    if not transparent:
        cfg = mzi_config(0.6, 0.3, 0.2, 0.0, phi_chi=2.1)
    result = sample_shots(
        cfg, NoisySource(p_a), probe, n_shots, seed=seed, require_transparent=transparent
    )
    keys = ("click_and_photon", "click_no_photon", "no_click_photon", "no_click_no_photon")
    assert result == dict(zip(keys, counts))


def test_noisy_source_rejects_bad_efficiency():
    for p in (math.nan, -0.1, 1.5, math.inf):
        with pytest.raises(ConfigurationError):
            NoisySource(p)


def test_sample_shots_rejects_empty_campaign():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    for n_shots in (0, -5, 1000.0, True):
        with pytest.raises(ConfigurationError):
            sample_shots(cfg, NoisySource(0.5), CoherentProbe(1.0), n_shots, seed=1)
    # a seed must be given, as a non-negative integer, for reproducible counts
    for seed in (None, 1.5, -1, True):
        with pytest.raises(ConfigurationError):
            sample_shots(cfg, NoisySource(0.5), CoherentProbe(1.0), 1000, seed=seed)


def test_nan_phase_rejected_before_propagation():
    # a NaN phase used to pass the transparency check and yield p_click nan
    with pytest.raises(ConfigurationError):
        transparent_via_angle_sum(PI / 4.0, 0.0, math.nan)
    with pytest.raises(ConfigurationError):
        run_setup(
            mzi_config(PI / 4.0, 0.0, 3.0 * PI / 4.0, 0.0, phi_chi=math.nan),
            NoisySource(0.5),
            CoherentProbe(1.0),
        )


def test_non_finite_coherent_probe_rejected_without_warnings():
    # an infinite amplitude used to raise numpy RuntimeWarnings, then NaN
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (
            math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0), 1e200, 1e200j
        ):
            with pytest.raises(ConfigurationError):
                CoherentProbe(beta)


def test_amplitude_without_finite_square_rejected_without_warnings():
    # |beta|^2 overflows above |beta| of about 1.3e154: make_coherent raised
    # a bare OverflowError, the loss routines warned and reported q0 = 1
    import warnings

    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    calls = (
        make_coherent,
        lambda beta: lossy_click_probs(cfg, beta, LossParams(0.0)),
        lambda beta: max_tolerable_loss(cfg, beta),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (math.nan, math.inf, 1e200):
            for call in calls:
                with pytest.raises(ConfigurationError):
                    call(beta)


def test_batched_slots_match_single_runs():
    # one mixed batch through _click_table and _run_setups against each
    # slot run alone: noisy and coherent probes of several cutoffs, bright
    # ones, transparent and leaky configs, theta = 0 splitters in either
    # place and an inert phi_chi = 2 pi; random kets through _propagate
    rng = np.random.default_rng(89)
    identity = BeamSplitterParams(0.0, 0.7)
    cfgs, sources, probes = [], [], []
    for i in range(64):
        cfg = random_transparent(rng) if i % 3 else _random_nontransparent(rng)
        bs1, bs2, xpm = cfg.bs1, cfg.bs2, cfg.xpm
        if i % 8 in (1, 3):
            bs1 = identity
        if i % 8 in (2, 3):
            bs2 = identity
        if i % 8 == 5:
            xpm = XpmParams(2.0 * PI)
        cfgs.append(MziConfig(bs1, bs2, xpm))
        sources.append(NoisySource((0.0, 1.0, float(rng.uniform()))[i % 3]))
        if i % 4 == 0:
            probes.append(NoisyPhotonProbe(NoisySource(float(rng.uniform()))))
        else:  # |beta| in four bands: a few cutoffs each, and the bright route
            size = (0.3, 1.0, 2.5, 4.5)[i // 4 % 4] + 0.2 * rng.uniform()
            probes.append(CoherentProbe(complex(size * np.exp(1j * rng.uniform(0.0, 2.0 * PI)))))
    tables = mzi._click_table(cfgs, sources, probes, False)
    outcomes = mzi._run_setups(cfgs, sources, probes, False)
    assert len({t[2].shape for t in tables if t[2] is not None}) > 4
    for slot, (cfg, source, probe) in enumerate(zip(cfgs, sources, probes)):
        weights, rows, out = mzi._click_table((cfg,), (source,), (probe,), False)[0]
        assert tables[slot][0] == weights
        assert np.max(np.abs(np.subtract(tables[slot][1], rows))) <= 1e-14
        assert (tables[slot][2] is None) == (out is None)
        if out is not None:
            assert np.max(np.abs(tables[slot][2] - out)) <= 1e-14
        single = run_setup(cfg, source, probe, require_transparent=False)
        for name in ("p_click", "detection_efficiency", "total_success", "truncation_deficit"):
            assert abs(getattr(outcomes[slot], name) - getattr(single, name)) <= 1e-14
    # one random (A, B, C) ket per slot, B + C <= 5
    amps = np.stack([random_ket(rng, (1, 5, 5), max_total=6).amps for _ in cfgs], axis=-1)
    amps[:, np.add.outer(range(6), range(6)) > 5] = 0.0
    batched = mzi._propagate(amps, cfgs)
    for slot, cfg in enumerate(cfgs):
        alone = propagate_mzi(MultiModeKet._unchecked(amps[..., slot]), cfg).amps
        assert np.max(np.abs(batched[..., slot] - alone)) <= 1e-14


def _whole_array_counts(cfg, source, probe, n_shots, seed):
    """The sampler as documented, drawing each of its arrays whole from one
    generator: the source branches, the probe labels and the detector."""
    weights, (_, clicks), _ = mzi._click_table((cfg,), (source,), (probe,), True)[0]
    rng = np.random.Generator(np.random.Philox(seed))
    photon = rng.random(n_shots) < source.p
    row = photon.astype(np.intp)
    if 0.0 < weights[0] < 1.0:
        table = np.ravel(clicks)
        row = 2 * row + (rng.random(n_shots) >= weights[0])
    else:
        table = np.array(clicks)[:, weights.index(1.0)]
    click = rng.random(n_shots) < table[row]
    return {
        "click_and_photon": int(np.sum(click & photon)),
        "click_no_photon": int(np.sum(click & ~photon)),
        "no_click_photon": int(np.sum(~click & photon)),
        "no_click_no_photon": int(np.sum(~click & ~photon)),
    }


@pytest.mark.parametrize(
    "n_shots", [1, 3, mzi._SHOT_CHUNK - 1, mzi._SHOT_CHUNK + 1, 200_001]
)
def test_sample_shots_streams_equal_whole_array_draws(n_shots):
    # the streamed draws start each generator copy where the whole arrays
    # would: every count equals the whole-array route's
    cfg = transparent_via_angle_sum(0.6, 0.3, 2.1)
    for seed, probe in enumerate(
        (NoisyPhotonProbe(NoisySource(0.7)), CoherentProbe(1.3 + 0.4j),
         NoisyPhotonProbe(NoisySource(1.0)), CoherentProbe(4.5 - 1.0j))
    ):
        source = NoisySource(0.45)
        got = sample_shots(cfg, source, probe, n_shots, seed=seed + 3)
        assert got == _whole_array_counts(cfg, source, probe, n_shots, seed + 3)


# --- the memo of mzi._propagate_one ---------------------------------------


def _conditioned_bytes(state):
    """Weights and amplitude bytes of a conditioned ensemble, or None."""
    if state is None:
        return None
    return [(w, ket.amps.tobytes()) for w, ket in state.branches]


def _outcome_bytes(cfg, source, probe, transparent):
    out = run_setup(cfg, source, probe, require_transparent=transparent)
    scalars = (out.p_click, out.detection_efficiency, out.total_success,
               out.truncation_deficit, out.purity_value)
    return scalars, _conditioned_bytes(out.click_state), _conditioned_bytes(out.no_click_state)


def _spy_propagate(monkeypatch):
    """Record (amps, t_max, resumed) of every mzi._propagate call."""
    calls, real = [], mzi._propagate

    def spy(amps, cfgs, t_max=None, first=None):
        calls.append((amps, t_max, bool(first)))
        return real(amps, cfgs, t_max, first)

    monkeypatch.setattr(mzi, "_propagate", spy)
    return calls


@pytest.mark.parametrize("kind", ["transparent", "leaky", "identity first"])
def test_memo_sweep_equals_runs_with_memo_cleared(monkeypatch, kind):
    # a phi_chi sweep resumes from the stored post-first-splitter state; every
    # scalar, both conditioned ensembles' bytes and the shot counts equal a
    # run with the memo cleared before each call.  A first splitter at
    # theta = 0 is skipped, so there is no state after it to keep.
    transparent = kind == "transparent"
    monkeypatch.setattr(mzi, "_memo", {})
    calls = _spy_propagate(monkeypatch)
    source = NoisySource(0.7)
    probes = [NoisyPhotonProbe(NoisySource(0.6))]
    probes += [CoherentProbe(size * complex(math.cos(0.4), math.sin(0.4))) for size in (0.5, 2.0, 4.0)]
    runs = []
    for clear in (False, True):
        rows = []
        for probe in probes:
            for phi_chi in np.linspace(0.3, 2.0 * PI - 0.3, 12):
                if transparent:
                    cfg = transparent_via_angle_sum(0.7, 0.3, float(phi_chi))
                else:
                    cfg = mzi_config(0.0 if kind == "identity first" else 0.7, 0.3, 0.4, 1.1, float(phi_chi))
                if clear:
                    mzi._memo.clear()
                rows.append(_outcome_bytes(cfg, source, probe, transparent))
                if clear:
                    mzi._memo.clear()
                rows.append(sample_shots(cfg, source, probe, 3000, seed=4, require_transparent=transparent))
        runs.append(rows)
    assert runs[0] == runs[1]
    # the warm sweep resumed on all but its first two calls per probe
    resumed = sum(resumed for _, _, resumed in calls)
    assert resumed == (0 if kind == "identity first" else len(probes) * 22)


def test_memo_never_shares_an_entry(monkeypatch):
    # inputs whose states may differ get their own entries: probes differing
    # only in phase or in the sign of a zero imaginary part, probes of either
    # kind, and first splitters differing only in phi
    monkeypatch.setattr(mzi, "_memo", {})
    calls = _spy_propagate(monkeypatch)
    cfg = transparent_via_angle_sum(0.7, 0.3, 2.1)
    other_phi = transparent_via_angle_sum(0.7, 0.3 + 2.0 * PI, 2.1)
    pairs = [
        ((cfg, CoherentProbe(2.0)), (cfg, CoherentProbe(2.0j))),
        ((cfg, CoherentProbe(complex(2.0, 0.0))), (cfg, CoherentProbe(complex(2.0, -0.0)))),
        ((cfg, CoherentProbe(2.0)), (other_phi, CoherentProbe(2.0))),
        ((cfg, NoisyPhotonProbe(NoisySource(0.5))), (other_phi, NoisyPhotonProbe(NoisySource(0.5)))),
        ((cfg, NoisyPhotonProbe(NoisySource(0.5))), (cfg, CoherentProbe(0.0))),
    ]
    for (cfg_a, probe_a), (cfg_b, probe_b) in pairs:
        mzi._memo.clear()
        for _ in range(2):  # stores the first input's state
            run_setup(cfg_a, NoisySource(0.7), probe_a)
        del calls[:]
        for _ in range(2):
            run_setup(cfg_b, NoisySource(0.7), probe_b)
        assert [resumed for _, _, resumed in calls] == [False, False]
        assert len(mzi._memo) == 2


def test_memo_holds_at_most_eight_read_only_states(monkeypatch):
    monkeypatch.setattr(mzi, "_memo", {})
    for theta1 in np.linspace(0.2, 1.2, 12):
        cfg = transparent_via_angle_sum(float(theta1), 0.3, 2.1)
        for probe in (CoherentProbe(1.5), NoisyPhotonProbe(NoisySource(0.5))):
            for _ in range(2):
                run_setup(cfg, NoisySource(0.7), probe)
            assert len(mzi._memo) <= 8
    states = [entry[2] for entry in mzi._memo.values()]
    assert len(states) == 8
    for state in states:
        assert not state.flags.writeable
        with pytest.raises(ValueError):
            state[0] = 0.0


def test_batches_bypass_the_memo(monkeypatch):
    # verify's batches and propagate_mzi neither store nor resume
    monkeypatch.setattr(mzi, "_memo", {})
    calls = _spy_propagate(monkeypatch)
    cfgs = [transparent_via_angle_sum(0.7, 0.3, phi) for phi in (1.0, 2.0, 3.0)]
    sources = [NoisySource(0.7)] * 3
    for probe in (CoherentProbe(1.5), NoisyPhotonProbe(NoisySource(0.5))):
        for _ in range(3):
            mzi._run_setups(cfgs, sources, [probe] * 3)
            propagate_mzi(MultiModeKet._unchecked(mzi._inputs([mzi._PHOTON_OR_VACUUM])[..., 0]), cfgs[0])
    assert mzi._memo == {}
    # a stored state is not read by a batch holding the same setup
    batch = [cfgs[:1] * 2, sources[:2], [CoherentProbe(1.5)] * 2]
    before = mzi._run_setups(*batch)
    for _ in range(2):
        run_setup(cfgs[0], sources[0], CoherentProbe(1.5))
    del calls[:]
    assert mzi._run_setups(*batch) == before
    assert [resumed for _, _, resumed in calls] == [False]


def test_memo_keys_on_the_blocks_function(monkeypatch):
    # a swapped _hadamard_blocks (as in the flipped-sign verify test) never
    # resumes from a state built with the real blocks
    monkeypatch.setattr(mzi, "_memo", {})
    calls = _spy_propagate(monkeypatch)
    cfg = transparent_via_angle_sum(0.7, 0.3, 2.1)
    probe = CoherentProbe(1.5)
    for _ in range(2):
        real_out = run_setup(cfg, NoisySource(0.0), probe)
    assert real_out.p_click < 1e-20
    rotation = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    monkeypatch.setattr(el, "_hadamard_blocks", lambda t_max: el._block_recurrence(rotation, t_max))
    del calls[:]
    swapped = run_setup(cfg, NoisySource(0.0), probe, require_transparent=False)
    assert calls[0][2] is False
    assert swapped.p_click > 1e-3  # the rotated blocks leak: no false-click guarantee


@pytest.mark.parametrize(
    "probe",
    [CoherentProbe(0.0), CoherentProbe(1e-6), NoisyPhotonProbe(NoisySource(0.4)),
     CoherentProbe(4.0), CoherentProbe(-4.0j), CoherentProbe(1.3 + 0.4j)],
    ids=["beta0", "one-entry", "noisy", "beta4", "beta-4j", "complex"],
)
def test_passed_occupied_total_equals_search(monkeypatch, probe):
    # the total _click_table passes on a memo miss is the one the chain's
    # occupancy search finds in the input it built
    monkeypatch.setattr(mzi, "_memo", {})
    calls = _spy_propagate(monkeypatch)
    run_setup(transparent_via_angle_sum(0.7, 0.3, 2.1), NoisySource(0.7), probe)
    ((amps, t_max, resumed),) = calls
    assert not resumed
    n, m = amps.any(axis=(0, 3, 4)).nonzero()
    assert t_max == int((n + m).max(initial=-1))
    if isinstance(probe, CoherentProbe) and abs(probe.beta) < 1e-3:
        assert t_max == 0  # a one-entry column


def test_benchmark_traffic_equal_with_memo_warm_and_cleared(monkeypatch):
    # the benchmark's own exact-grid and exact-cold blocks (perfbench/workloads.py,
    # imported as is) give equal scalars with the memo warm and cleared
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = [op for block in workloads.exact_grid(1, 2) + workloads.exact_cold(1, 3) for op in block]
    monkeypatch.setattr(mzi, "_memo", {})
    runs = []
    for clear in (False, True):
        rows = []
        for op in ops:
            family = transparent_via_angle_sum if op["family"] == "sum" else transparent_via_angle_diff
            cfg = family(op["theta1"], op["phi1"], op["phi_chi"], k=op["k"], l=op["l"])
            spec_probe = op["probe"]
            if spec_probe["kind"] == "coherent":
                probe = CoherentProbe(complex(spec_probe["re"], spec_probe["im"]))
            else:
                probe = NoisyPhotonProbe(NoisySource(spec_probe["p"]))
            if clear:
                mzi._memo.clear()
            out = run_setup(cfg, NoisySource(op["p"]), probe)
            rows.append((out.p_click, out.detection_efficiency, out.total_success,
                         out.truncation_deficit, out.purity_value))
        runs.append(rows)
    assert len(runs[0]) == 2 * 18 + 3 * 20
    assert runs[0] == runs[1]
