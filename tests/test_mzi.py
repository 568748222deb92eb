import hashlib
import importlib.util
import math
import os
import platform
import subprocess
import sys
from collections import Counter
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
from xpmherald.experiments import _platform
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
    MAX_SAMPLE_SHOTS,
    CoherentProbe,
    MziConfig,
    NoisyPhotonProbe,
    NoisySource,
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

from test_elements import dense_bs_unitary

PI = math.pi

# run_setup's scalars, bit for bit: one digest under every (kernel, libm
# variant) below, since its click law makes no BLAS call and its libm inputs
# round alike on both variants here.
RUN_SETUP_DIGEST = "9c34466a11b94265a0a3b5fcfba554691886da28973f514afad063de2828a9b5"

# The exact engine's block products run on OpenBLAS dgemm, whose kernels sum
# in different orders, and its splitter entries on glibc's libm, whose FMA and
# SSE2 builds of sin, cos and exp round some inputs apart, so the
# propagate_mzi golden holds one digest per (kernel, libm variant).  The
# kernel name is the one the library reports; OPENBLAS_CORETYPE=Prescott
# reports "Katmai".  GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA selects the SSE2
# libm on a CPU with FMA, as on one without (Sandybridge, Nehalem and older).
GOLDEN_DIGESTS = {
    ("SkylakeX", "fma"): "0cf7c73f926307a06bc4e704d2939bf0ae93e01a70eedcb79114e6862da55965",
    ("SkylakeX", "sse2"): "f33f0404266dbc3a2fb8c16384d223ff885492af0582e7609ee2f6207918e504",
    ("Haswell", "fma"): "7fbbb7e7b8185df1d0183d263d581353cba89a16b18050b0b65e950b014b6897",
    ("Haswell", "sse2"): "52029d77c46eeae0c6fcdf188402fd736cc28232d313ddb5eda95f35f4c4b9c6",
    ("Sandybridge", "fma"): "bd1701b2923597feec839b081a03ed2743975a2c2680ea3428f4976dcfe0161b",
    ("Sandybridge", "sse2"): "e26fa7b0d3fce1cafa8269a02de001a528103cc2414f96119f2ca8fb7ca8fd4d",
    ("Nehalem", "fma"): "e27d5ea379cf9f40c7c7dc8dc987343db448f85c993b54ed66da3e4ca611f583",
    ("Nehalem", "sse2"): "bf406b86df6e1d853e3fe33e30998c6b79ee094b3fcfd58b14b32e14e1bb3dba",
    ("Katmai", "fma"): "5653999798bca603c8ed4ee0b8faf267f51d9aaf701d578892c1c17ddfcce6f3",
    ("Katmai", "sse2"): "acd01c9323df2988f6be5ae16e01f3ce9bb7644cca730565e267dfd415ff7ace",
}


def openblas_core() -> str:
    """The kernel name numpy's bundled OpenBLAS reports, as the sidecar has it."""
    return _platform()["openblas_core"]


def libm_variant() -> str:
    """The libm variant the fingerprint input reads, as the sidecar has it."""
    return _platform()["libm"]


def golden_digest() -> str:
    key = openblas_core(), libm_variant()
    assert key in GOLDEN_DIGESTS, f"no golden digest recorded for (OpenBLAS core, libm) {key!r}"
    return GOLDEN_DIGESTS[key]


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


def test_vacuum_source_click_mass_is_zero_not_rounding_noise():
    # on a transparent setup a vacuum signal's propagated click mass is
    # rounding noise (about 2e-32), which p_click drops: no click, so no
    # click state and no purity
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 2.2)
    out = run_setup(cfg, NoisySource(0.0), CoherentProbe(1.0))
    _, (_, q0, _), _ = mzi._click_table((cfg,), (CoherentProbe(1.0),))[0]
    assert 0.0 < q0 <= out.truncation_deficit
    assert out.p_click == 0.0 and out.click_state is None
    assert out.no_click_state is not None and out.detection_efficiency > 0.5
    with pytest.raises(ConditioningError):
        out.purity_given_click
    # a faint source's photon clicks lie below the deficit too, and stay
    faint = run_setup(cfg, NoisySource(1e-10), CoherentProbe(1.0))
    assert faint.p_click == faint.total_success < faint.truncation_deficit
    assert faint.purity_given_click == 1.0 and faint.click_state is not None


def test_certain_click_has_no_no_click_state():
    # a photon source and a photon probe at theta1 = pi/4, phi_chi = pi
    # click with p_click 1.0: no click is an event of probability zero, whose
    # state is None rather than the engine's rounding (9.1e-35) renormalized
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    out = run_setup(cfg, NoisySource(1.0), NoisyPhotonProbe(NoisySource(1.0)))
    assert out.p_click == 1.0 and out.no_click_state is None
    ((weight, ket),) = out.click_state.branches
    assert weight == 1.0 and not ket.amps[0].any()


# How far run_setup's click law may sit from the engine's click table (the
# same arithmetic on the engine's click masses, _engine_scalars) on any
# scalar: both sum one truncated photon-number distribution, in another order
ROUTE_TOL = 2e-14


def _engine_scalars(cfg, source, probe):
    """run_setup's five scalars from the engine's ``_click_table`` pair (q1,
    q0, deficit), by run_setup's formulas: p_click p q1, plus (1 - p) q0
    off transparency, detection efficiency q1, total success, truncation
    deficit (the probe's tail) and purity (None without clicks)."""
    q1, q0, deficit = mzi._click_table((cfg,), (probe,))[0][1]
    photon_click = p_click = source.p * q1
    if not is_transparent(cfg):
        p_click += (1.0 - source.p) * q0
    purity = photon_click / p_click if p_click > 0.0 else None
    return p_click, q1, q1 * source.p, deficit, purity


def _bright_scalars(cfg, source, probe):
    """run_setup's five scalars for a probe brighter than the engine takes,
    from a 50-digit evaluation of q_s = 1 - exp(-|beta|^2 |t01|^2) at the
    upper arm e^{i phi_chi s}, t01 multiplied out of the splitter
    parameters; on a transparent setup p_click drops the vacuum click mass."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        (t1, p1), (t2, p2) = ((mp.mpf(bs.theta), mp.mpf(bs.phi)) for bs in (cfg.bs1, cfg.bs2))
        a, b, f, h = mp.cos(t1), mp.sin(t1) / mp.expj(p1), mp.sin(t2) / mp.expj(p2), mp.cos(t2)
        means = (abs(mp.mpc(probe.beta) * (a * x * f + b * h)) ** 2 for x in (mp.expj(cfg.xpm.phi_chi), 1))
        q1, q0 = (float(-mp.expm1(-m)) for m in means)
    photon_click = p_click = source.p * q1
    if not is_transparent(cfg):
        p_click += (1.0 - source.p) * q0
    purity = photon_click / p_click if p_click > 0.0 else None
    return p_click, q1, q1 * source.p, 0.0, purity


def _reference_scalars(cfg, source, probe):
    """``_engine_scalars``, or ``_bright_scalars`` for a probe the engine
    refuses."""
    if isinstance(probe, CoherentProbe) and abs(probe.beta) ** 2 > mzi.BRIGHT_PROBE_MEAN_PHOTONS:
        return _bright_scalars(cfg, source, probe)
    return _engine_scalars(cfg, source, probe)


def _scalars(out):
    return (out.p_click, out.detection_efficiency, out.total_success,
            out.truncation_deficit, out.purity_value)


def _assert_routes_agree(out, engine, tol=ROUTE_TOL):
    """Each of run_setup's scalars within ``tol`` of the engine's; returns
    the largest gap."""
    gap = 0.0
    for got, want in zip(_scalars(out), engine):
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= tol, (got, want)
            gap = max(gap, abs(got - want))
    return gap


def _vacuum_clicks(cfg, probe):
    """The vacuum signal's click mass q0 as propagated in one
    ``_click_table`` slot, which ``run_setup`` drops on a transparent setup."""
    return mzi._click_table((cfg,), (probe,))[0][1][1]


@pytest.mark.parametrize(
    "probe", [NoisyPhotonProbe(NoisySource(0.7)), CoherentProbe(1.5 + 0.2j)],
    ids=["noisy", "coherent"],
)
def test_full_swaps_leak_only_rounding_yet_are_not_transparent(probe):
    # theta1 = theta2 = pi/2 with phi2 = phi1 + pi + a routes the probe around
    # the medium: the leak amplitude is rounding, but (B, C) maps by
    # diag(e^{ia}, e^{-ia}), so the setup is not transparent and a vacuum
    # source's p_click is the vacuum click mass, however small; the law's
    # and the engine's differ only in their rounding
    for phi1, a in ((0.0, 0.5), (0.3, 1.2), (1.0, -0.7), (2.0, 3.0)):
        cfg = mzi_config(PI / 2.0, phi1, PI / 2.0, phi1 + PI + a, 1.3)
        assert not is_transparent(cfg) and abs(vacuum_leak_amplitude(cfg)) < 1e-15
        out = run_setup(cfg, NoisySource(0.0), probe, require_transparent=False)
        engine = _vacuum_clicks(cfg, probe)
        assert 0.0 < out.p_click < 1e-30 and 0.0 < engine < 1e-30
        assert abs(out.p_click - engine) <= ROUTE_TOL


@pytest.mark.parametrize(
    "probe", [NoisyPhotonProbe(NoisySource(1.0)), CoherentProbe(2.0), CoherentProbe(5.0)],
    ids=["photon", "beta2", "bright"],
)
def test_vacuum_clicks_follow_the_transparency_verdict(monkeypatch, probe):
    # one rule on every probe route: a transparent setup's p_click is the
    # photon branches' click mass bit for bit, and agrees with the engine's to
    # ROUTE_TOL; with theta2 off by eps the vacuum click mass, down to 1e-16
    # and often below the truncation deficit, joins p_click as sample_shots
    # draws it, (1 - p) q0, bit for bit, and the purity is below 1
    cells = []
    real_generator = np.random.Generator

    class Spy:  # records the cells sample_shots draws from
        def __init__(self, bit_generator):
            self.generator = real_generator(bit_generator)

        def multinomial(self, n, pvals):
            cells.append(list(pvals))
            return self.generator.multinomial(n, pvals)

    monkeypatch.setattr(np.random, "Generator", Spy)
    for eps in (0.0, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        if eps == 0.0:
            cfg = transparent_via_angle_sum(PI / 4.0, 0.0, PI)
        else:
            cfg = mzi_config(PI / 4.0, 0.0, 3.0 * PI / 4.0 + eps, 0.0, PI)
        assert is_transparent(cfg) is (eps == 0.0)
        for p in (0.0, 0.5):
            out = run_setup(cfg, NoisySource(p), probe, require_transparent=False)
            if eps == 0.0:
                assert out.p_click == out.total_success == p * out.detection_efficiency
                engine = _reference_scalars(cfg, NoisySource(p), probe)[0]
                assert abs(out.p_click - engine) <= ROUTE_TOL
                continue
            sample_shots(cfg, NoisySource(p), probe, 1, seed=0, require_transparent=False)
            photon, vacuum = cells[-1][:2]  # p q1, (1 - p) q0
            assert out.p_click == photon + vacuum
            assert out.purity_given_click < 1.0
            if p == 0.0:
                assert out.p_click > 0.0 and vacuum > 0.0


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


def test_click_state_of_a_transparent_setup_holds_photon_branches_only():
    # a vacuum signal cannot click on a transparent setup, so the click
    # ensemble drops the vacuum branch (it held one of weight 5.2e-31 here)
    # as p_click and the purity do; the no-click ensemble and a leaky
    # setup's click ensemble keep every branch
    cfg = transparent_via_angle_sum(0.7, 0.3, 2.1)
    out = run_setup(cfg, NoisySource(0.5), CoherentProbe(1.5))
    ((weight, ket),) = out.click_state.branches
    assert weight == 1.0 and not ket.amps[0].any() and out.purity_value == 1.0
    assert len(out.no_click_state.branches) == 2
    noisy = run_setup(cfg, NoisySource(0.5), NoisyPhotonProbe(NoisySource(0.8)))
    assert [w for w, _ in noisy.click_state.branches] == [1.0]  # the |0> probe never clicks
    assert len(noisy.no_click_state.branches) == 4
    leaky = run_setup(mzi_config(0.7, 0.3, 0.4, 1.1, 2.1), NoisySource(0.5), CoherentProbe(1.5),
                      require_transparent=False)
    assert len(leaky.click_state.branches) == 2


@pytest.mark.parametrize("p_b", [0.3, 0.8, 1.0])
def test_photon_probe_reports_no_truncation_deficit(p_b, monkeypatch):
    # a noisy photon probe truncates nothing: its deficit is 0.0 in the law
    # and in the engine's table, while an engine norm past 1 + NORM_TOL
    # still raises for either probe once a conditioned state is read
    cfg = transparent_via_angle_sum(0.7, 0.3, 2.1)
    probe = NoisyPhotonProbe(NoisySource(p_b))
    assert run_setup(cfg, NoisySource(0.5), probe).truncation_deficit == 0.0
    assert mzi._click_table((cfg,), (probe,))[0][1][2] == 0.0
    assert run_setup(cfg, NoisySource(0.5), CoherentProbe(1.5)).truncation_deficit > 0.0
    propagate = mzi._propagate
    monkeypatch.setattr(mzi, "_propagate", lambda *args, **kw: propagate(*args, **kw) * 1.001)
    for probe in (probe, CoherentProbe(1.5)):
        out = run_setup(cfg, NoisySource(0.5), probe)
        with pytest.raises(ValueError, match="exceeds 1"):
            out.no_click_state


def test_every_engine_batch_checks_the_propagated_norm(monkeypatch):
    # the norm check sits in _click_table, so the audits' batches raise on a
    # norm past 1 + NORM_TOL as the click states do
    cfg = transparent_via_angle_sum(0.7, 0.3, 2.1)
    propagate = mzi._propagate
    monkeypatch.setattr(mzi, "_propagate", lambda *args, **kw: propagate(*args, **kw) * 1.001)
    for probe in (NoisyPhotonProbe(NoisySource(0.8)), CoherentProbe(1.5)):
        with pytest.raises(ValueError, match="exceeds 1"):
            mzi._click_table([cfg] * 2, [probe] * 2)


def test_run_setup_total_success_factorizes():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 2.0)
    for p_a in (0.2, 0.7, 1.0):
        out = run_setup(cfg, NoisySource(p_a), NoisyPhotonProbe(NoisySource(0.8)))
        assert out.total_success == pytest.approx(
            out.detection_efficiency * p_a, abs=1e-12
        )
        # with transparency every click comes from the photon branch
        assert out.p_click == pytest.approx(out.total_success, abs=1e-12)


def _golden_setups():
    """216 seeded (config, source, probe, transparent) runs, transparent and
    not, p in {0, 1, random}, noisy probes, truncated coherent probes and
    bright ones."""
    rng = np.random.default_rng(97)
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
        yield cfg, NoisySource(p), probe, transparent


def test_run_setup_scalars_golden():
    # every figure of merit of run_setup, bit for bit: the sha256 of their
    # repr over the 216 runs of _golden_setups
    rows = [_scalars(run_setup(cfg, source, probe, transparent))
            for cfg, source, probe, transparent in _golden_setups()]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == RUN_SETUP_DIGEST


def _full_leaks():
    """Setups whose one-photon leak q_s rounds to 1 or just past it: full
    swaps, the symmetric 50:50 pair (q0 = 1) and theta1 = pi/4 at phi_chi =
    pi (q1 = 1), with both probe kinds up to the bright-probe threshold."""
    cfgs = [mzi_config(PI / 2.0, 0.0, 0.0, 0.0, 1.3), mzi_config(0.0, 0.0, PI / 2.0, 0.4, 2.0),
            mzi_config(PI / 4.0, 0.0, PI / 4.0, 0.0, PI), mzi_config(PI / 4.0, 0.3, PI / 4.0, 0.3, 0.7),
            transparent_via_angle_sum(PI / 4.0, 0.0, PI), transparent_via_angle_diff(PI / 4.0, 1.1, PI),
            transparent_via_angle_sum(PI / 4.0, 0.0, PI, k=1, l=2)]
    probes = [NoisyPhotonProbe(NoisySource(0.6)), NoisyPhotonProbe(NoisySource(1.0)),
              CoherentProbe(0.3), CoherentProbe(2.0 - 1.0j), CoherentProbe(4.0)]
    return [(cfg, NoisySource(p), probe) for cfg in cfgs for p in (0.0, 0.4, 1.0) for probe in probes]


def test_run_setup_agrees_with_the_engine_table():
    # run_setup's click law against the engine's click table, every scalar
    # within ROUTE_TOL (9.9e-15 at most seen, the purity 2.2e-16): the 216
    # golden runs, their bright probes against _bright_scalars (1.8e-15 at
    # most seen), and setups whose leak rounds to 1 or past it, where the
    # law must not take log1p(-q) of q >= 1
    for cfg, source, probe, transparent in _golden_setups():
        out = run_setup(cfg, source, probe, transparent)
        _assert_routes_agree(out, _reference_scalars(cfg, source, probe))
    leaks = set()
    for cfg, source, probe in _full_leaks():
        leaks.update(m >= 1.0 for m in mzi._detector_means(cfg, 1.0))
        out = run_setup(cfg, source, probe, require_transparent=False)
        _assert_routes_agree(out, _engine_scalars(cfg, source, probe))
    assert leaks == {False, True}
    # a second splitter moved by 5e-10 in angle or phase still passes
    # is_transparent, so run_setup reads the closed form of an exactly
    # inverting pair while the engine propagates the pair as given: the
    # scalars part by more than ROUTE_TOL but within the documented 12
    # max(1, |beta|^2) TRANSPARENCY_TOL (0.39 TRANSPARENCY_TOL at most seen)
    rng = np.random.default_rng(59)
    worst = 0.0
    for i in range(120):
        cfg = random_transparent(rng)
        moved = (cfg.bs2.theta + 5e-10, cfg.bs2.phi) if i % 2 else (cfg.bs2.theta, cfg.bs2.phi + 5e-10)
        cfg = MziConfig(cfg.bs1, BeamSplitterParams(*moved), cfg.xpm)
        assert is_transparent(cfg)
        for probe in _probe_kinds(rng):
            source = NoisySource(float(rng.uniform()))
            scale = max(1.0, abs(getattr(probe, "beta", 1.0)) ** 2) * mzi.TRANSPARENCY_TOL
            reference = _reference_scalars(cfg, source, probe)
            gap = _assert_routes_agree(run_setup(cfg, source, probe), reference, 12.0 * scale)
            worst = max(worst, gap / scale)
    assert ROUTE_TOL < worst * mzi.TRANSPARENCY_TOL and worst < 1.0


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


def test_photon_probe_efficiency_reads_the_click_law():
    # a lone probe photon clicks with the coherent click exponent x1 at
    # |beta| = 1, bit for bit, which is within 3 ulp of the formula it
    # replaced: libm's sin(x) ** 2 and the law's s * s round apart at times
    rng = np.random.default_rng(19)
    for _ in range(2000):
        theta1, phi_chi, p_b = rng.uniform(0.0, PI), rng.uniform(-7.0, 7.0), rng.uniform()
        cfg = transparent_via_angle_sum(theta1, 0.0, phi_chi)
        got = detection_efficiency(cfg, NoisyPhotonProbe(NoisySource(p_b)))
        assert got == p_b * (mzi._click_scale(theta1, 1.0) * mzi._click_weights(phi_chi)[0])
        old = math.sin(phi_chi / 2.0) ** 2 * math.sin(2.0 * theta1) ** 2 * p_b
        assert abs(got - old) <= 3.0 * math.ulp(old)


def _inline_click_exponents(y, phi_chi, p_absorb):
    """The click exponents as the law wrote them inline before its y-free
    factor had a name: the reference the factored law must keep bit for bit."""
    u = math.sqrt(1.0 - p_absorb)
    dim = p_absorb / (1.0 + u)
    s = math.sin(phi_chi / 2.0)
    return y * (dim * dim + 4.0 * u * (s * s)), y * (dim * dim)


def test_click_exponents_are_y_times_the_y_free_weights_bit_for_bit():
    # 10,000 seeded draws plus the edges: no, subnormal-small and full
    # absorption, and phases near 0, pi and 2 pi and at 1e-10
    rng = np.random.default_rng(32)
    draws = [(10.0 ** rng.uniform(-12.0, 8.0), rng.uniform(-7.0, 7.0), rng.uniform())
             for _ in range(10_000)]
    edges = [0.0, 1e-10, PI, 2.0 * PI, math.nextafter(0.0, 1.0)]
    edges += [math.nextafter(x, d) for x in (PI, 2.0 * PI) for d in (0.0, 7.0)]
    draws += [(y, phi, p_a) for y in (0.0, 0.3, 1e6) for phi in edges for p_a in (0.0, 1e-300, 1.0)]
    for y, phi_chi, p_absorb in draws:
        a1, a0 = mzi._click_weights(phi_chi, p_absorb)
        got = _inline_click_exponents(y, phi_chi, p_absorb)
        assert [x.hex() for x in got] == [(y * a1).hex(), (y * a0).hex()]


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
    # a bright probe clicks with 1 - exp(-|beta|^2 sin^2(2 theta1) sin^2(phi_chi
    # / 2)), to 1e-13 relative of a 50-digit reference down to phi_chi =
    # 1e-10 on both families, where a difference of the two arms' splitter
    # products kept six digits; splitter phase 0.7 makes those products complex
    mp = pytest.importorskip("mpmath")
    beta = 5.0
    for family in (transparent_via_angle_sum, transparent_via_angle_diff):
        for theta1 in (PI / 4.0, 0.3, 1.1):
            for phi_chi in (1e-4, 1e-6, 1e-8, 1e-10):
                out = run_setup(family(theta1, 0.7, phi_chi), NoisySource(0.6), CoherentProbe(beta))
                with mp.workdps(50):
                    y = mp.mpf(beta) ** 2 * mp.sin(2 * mp.mpf(theta1)) ** 2 / 4
                    ref = -mp.expm1(-y * abs(mp.expj(phi_chi) - 1) ** 2)
                    assert abs(out.detection_efficiency - ref) <= 1e-13 * ref
                assert out.p_click == out.total_success == 0.6 * out.detection_efficiency
                assert out.truncation_deficit == 0.0 and out.click_state is None


def dense_setup(amps, cfg):
    """The setup as dense matrices on an input (A, B, C, labels...), sharing
    no code with the engine: each splitter is ``dense_bs_unitary`` on (B,
    C), both padded to the larger cutoff, XPM the diagonal exp(i phi_chi a
    b), and A and the labels carry the identity.  Returns the padded output."""
    a_cut, b_cut, c_cut = amps.shape[:3]
    d = max(b_cut, c_cut)
    padded = np.zeros((a_cut, d, d, *amps.shape[3:]), dtype=np.complex128)
    padded[:, :b_cut, :c_cut] = amps
    u1, u2 = (dense_bs_unitary(p.theta, p.phi, d - 1) for p in (cfg.bs1, cfg.bs2))
    b_occ = np.repeat(np.arange(d), d)  # the B occupation of each (B, C) basis state
    xpm = np.exp(1j * cfg.xpm.phi_chi * np.multiply.outer(np.arange(a_cut), b_occ))
    out = u2 @ (xpm[:, :, None] * (u1 @ padded.reshape(a_cut, d * d, -1)))
    return out.reshape(padded.shape)


def test_propagate_mzi_matches_element_chain():
    # the fused chain against the elements one by one and against dense
    # matrices (dense_setup, within 1e-12): seeded random kets with 0-2
    # label axes, zero kets, on transparent and random configs, with either
    # splitter, or both, at theta = 0 (a theta = 0 first splitter puts the
    # XPM before the first mixing one)
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
            dense = dense_setup(amps, cfg)
            engine = np.zeros_like(dense)
            engine[:, : shape[1], : shape[2]] = results[0]
            assert np.max(np.abs(engine - dense)) <= 1e-12
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
    assert digest.hexdigest() == golden_digest()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 kernels only")
@pytest.mark.parametrize(
    "core, libm", sorted(GOLDEN_DIGESTS),
    ids=[core if libm == "fma" else f"{core}-{libm}" for core, libm in sorted(GOLDEN_DIGESTS)],
)
def test_goldens_hold_under_a_second_blas_kernel(core, libm):
    # a kernel- or libm-dependent change shows at once: both goldens, the
    # route agreement, the click states against the engine, the click table
    # against the batches it stands for, every CSV
    # and the verify --suite fast golden of test_experiments and the
    # verify --suite full golden of test_acceptance again, in a child
    # process on each (kernel, libm variant)
    # a digest pair is recorded for; the libm mask is set in the child's
    # environment only, and the FMA pairs keep the bare kernel name as their id
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott" if core == "Katmai" else core)
    env.pop("GLIBC_TUNABLES", None)
    if libm == "sse2":
        env["GLIBC_TUNABLES"] = "glibc.cpu.hwcaps=-FMA"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))
    script = (
        "import test_mzi as t; t.test_run_setup_scalars_golden(); "
        "t.test_propagate_mzi_amplitudes_golden(); t.test_run_setup_agrees_with_the_engine_table(); "
        "t.test_click_states_read_one_engine_run_bit_for_bit(); "
        "t.test_mixed_cutoff_batch_equals_array_path_bit_for_bit(); "
        "import test_experiments as e; e.test_fig4_csv_bytes_golden(); "
        "[e.test_loss_bounds_csv_bytes_golden(*g) for g in e.LOSS_BOUNDS_GOLDENS]; "
        "[e.test_default_csv_full_text_golden(*g) for g in e.DEFAULT_CSV_GOLDENS]; "
        "[e.test_purity_audit_csv_bytes_golden(*g) for g in e.PURITY_AUDIT_GOLDENS]; "
        "e.test_monte_carlo_cascade_csv_full_text_golden(); "
        "e.test_shared_probe_cascade_csv_bytes_golden(); "
        "e.test_verify_fast_report_golden(); "
        "import test_acceptance as a; a.check_full_report(a.run_suite('full')); "
        "print(t.openblas_core(), t.libm_variant())"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        cwd=here, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{core} {libm}\n"


def _conditioned_bytes(state):
    """Weights and amplitude bytes of a conditioned ensemble, or None."""
    if state is None:
        return None
    return [(w, ket.amps.tobytes()) for w, ket in state.branches]


def test_click_states_read_one_engine_run_bit_for_bit():
    # an outcome runs the engine on the first read of either state and keeps
    # that run for both; its array is, byte for byte, propagate_mzi's of
    # the input the probe column stands for: the noisy
    # probe and |beta| = 2 and 4, transparent and leaky, and a theta = 0
    # first splitter; the child processes above run it under every kernel
    # and libm, without pytest's fixtures, so the spy is set by hand
    runs = []
    propagate = mzi._propagate

    def spy(*args, **kw):
        runs.append(args)
        return propagate(*args, **kw)

    mzi._propagate = spy
    try:
        probes = [NoisyPhotonProbe(NoisySource(0.6)), CoherentProbe(2.0 * complex(0.6, 0.8)),
                  CoherentProbe(-4.0j)]
        setups = [lambda phi: transparent_via_angle_sum(0.7, 0.3, phi),
                  lambda phi: mzi_config(0.7, 0.3, 0.4, 1.1, phi),
                  lambda phi: mzi_config(0.0, 0.3, 0.4, 1.1, phi)]
        for probe in probes:
            column = (mzi._PHOTON_OR_VACUUM if isinstance(probe, NoisyPhotonProbe)
                      else make_coherent(probe.beta).amps[:, None, None, None])
            ket = MultiModeKet._unchecked(_input_array(column)[..., 0])
            for setup in setups:
                for phi_chi in np.linspace(0.3, 2.0 * PI - 0.3, 6).tolist():
                    cfg = setup(phi_chi)
                    out = run_setup(cfg, NoisySource(0.7), probe, require_transparent=False)
                    del runs[:]
                    states = [out.no_click_state, out.click_state, out.no_click_state, out.click_state]
                    states = [_conditioned_bytes(state) for state in states]
                    assert len(runs) == 1 and states[:2] == states[2:] and states[0] is not None
                    assert out._branches[0].tobytes() == propagate_mzi(ket, cfg).amps.tobytes()
    finally:
        mzi._propagate = propagate


def _per_branch_outcome(cfg, source, probe):
    """The independent route: each (signal, probe) branch as its own 3-mode
    ket, propagated on its own.  Returns p_click, detection efficiency,
    truncation deficit (the norm the weighted probe kets lack) and both
    conditioned ensembles (None when empty); on a transparent setup the
    click ensemble holds the photon branches alone, renormalized."""
    if isinstance(probe, NoisyPhotonProbe):
        pb = probe.source.p
        probes = [(make_fock((1,), (1,)), pb), (make_fock((0,), (1,)), 1.0 - pb)]
    else:
        probes = [(make_coherent(probe.beta, TruncationPolicy()), 1.0)]
    cut = probes[0][0].cutoffs[0]
    p_click = det_eff = 0.0
    branches = []
    for photons, wa in ((1, source.p), (0, 1.0 - source.p)):
        for b_ket, wb in probes:
            ket = tensor([make_fock((photons,), (1,)), b_ket, make_fock((0,), (cut,))])
            out = propagate_mzi(ket, cfg)
            click = _click_mass(out)
            p_click += wa * wb * click
            det_eff += wb * click if photons else 0.0
            if wa * wb > 0.0:
                branches.append((wa * wb, photons, out))
    clicking = [(w, ket) for w, _, ket in branches]
    if is_transparent(cfg):
        clicking = [(w / source.p, ket) for w, photons, ket in branches if photons]
    states = []
    for event, ensemble in (("at_least_one", clicking), ("zero", [(w, k) for w, _, k in branches])):
        try:
            states.append(condition(Ensemble(ensemble), 2, event)[1])
        except ConditioningError:
            states.append(None)
    deficit = max(0.0, sum(wb * (1.0 - b_ket.squared_norm()) for b_ket, wb in probes))
    return p_click, det_eff, deficit, *states


@pytest.mark.parametrize("noisy", [False, True])
def test_one_propagation_matches_per_branch_propagation(noisy):
    # the engine's one batched propagation (its click table and the click
    # states) against each branch propagated on its own
    rng = np.random.default_rng(41 + noisy)
    for i in range(30):
        cfg = random_transparent(rng) if i % 3 else mzi_config(*rng.uniform(0.0, 6.0, 4))
        p, pb = ([0.0, 1.0, float(rng.uniform())][k] for k in (i % 3, i // 3 % 3))
        if noisy:
            probe = NoisyPhotonProbe(NoisySource(pb))
        else:
            probe = CoherentProbe(complex(*rng.uniform(-2.5, 2.5, 2)))
        out = run_setup(cfg, NoisySource(p), probe, require_transparent=False)
        engine_click, engine_eff, _, engine_deficit, engine_purity = _engine_scalars(
            cfg, NoisySource(p), probe
        )
        p_click, det_eff, deficit, clicked, unclicked = _per_branch_outcome(
            cfg, NoisySource(p), probe
        )
        assert abs(engine_click - p_click) <= 1e-15
        assert abs(engine_eff - det_eff) <= 1e-15
        assert abs(engine_deficit - deficit) <= 1e-15
        if clicked is None:
            assert engine_purity is None
        else:
            purity = sum(w * mode_number_distribution(k, 0)[1] for w, k in clicked.branches)
            assert abs(engine_purity - purity) <= 1e-15
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
    # the detector means and the classical output amplitudes are one 2x2
    # map: off transparency m_s is |detector arm|^2 bit for bit; on it m_s
    # is the cancellation-free form, m0 exactly 0; either way the clicks
    # 1 - exp(-m_s) are within 1e-14 of 1 - exp(-|detector arm|^2)
    rng = np.random.default_rng(41)
    for i in range(400):
        cfg = random_transparent(rng) if i % 2 else _random_nontransparent(rng)
        beta = complex(rng.normal(0.0, 3.0), rng.normal(0.0, 3.0))
        means = mzi._detector_means(cfg, beta)
        for m, present in zip(means, (True, False)):
            arm = complex(coherent_outputs(cfg, beta, present)[1])
            if not i % 2:
                assert m == abs(arm) ** 2
            assert abs(-math.expm1(-m) - (1.0 - math.exp(-abs(arm) ** 2))) < 1e-14
        assert means[1] == 0.0 or not i % 2


def test_coherent_deficit_is_recorded():
    cfg = transparent_via_angle_sum(PI / 4.0, 0.0, 1.0)
    # the scheme routes truncate at the default tail tolerance
    out = run_setup(cfg, NoisySource(1.0), CoherentProbe(2.0))
    assert 0.0 < out.truncation_deficit < TruncationPolicy.tail_tolerance == 1e-10
    noisies = run_setup(cfg, NoisySource(1.0), NoisyPhotonProbe(NoisySource(1.0)))
    assert noisies.truncation_deficit == pytest.approx(0.0, abs=1e-15)


def test_sample_shots_counts_pinned():
    # counts of the one multinomial draw, recorded at output version 0.5.0,
    # where q0 became exactly 0 and its cell no longer draws; any drift in
    # the click pair or in the draw changes them (within four sigma of the
    # cells, as test_sample_shots_cells_within_four_sigma bounds its cases)
    cfg = transparent_via_angle_sum(0.6, 0.3, 2.1)
    assert sample_shots(
        cfg, NoisySource(0.45), NoisyPhotonProbe(NoisySource(0.7)), 200_000, seed=5
    ) == {
        "click_and_photon": 41331,
        "click_no_photon": 0,
        "no_click_photon": 48831,
        "no_click_no_photon": 109838,
    }
    assert sample_shots(
        cfg, NoisySource(0.45), CoherentProbe(1.3 + 0.4j), 200_000, seed=6
    ) == {
        "click_and_photon": 63189,
        "click_no_photon": 0,
        "no_click_photon": 26974,
        "no_click_no_photon": 109837,
    }
    assert sample_shots(
        cfg, NoisySource(1.0), NoisyPhotonProbe(NoisySource(1.0)), 50_000, seed=7
    ) == {
        "click_and_photon": 32637,
        "click_no_photon": 0,
        "no_click_photon": 17363,
        "no_click_no_photon": 0,
    }


# sources and probes at 0 and 1, a leaky setup so that q0 is not 0, noisy
# probes of mixed weights, the classical path of a bright probe
# (|beta|^2 = 21.25), one shot; the counts of output version 0.3.0
EDGE_CASES = [
    (False, 0.0, NoisyPhotonProbe(NoisySource(0.7)), 20_000, 11, (0, 7090, 0, 12910)),
    (False, 1.0, NoisyPhotonProbe(NoisySource(0.7)), 20_000, 12, (2757, 0, 17243, 0)),
    (False, 0.0, CoherentProbe(1.3 + 0.4j), 20_000, 13, (0, 12218, 0, 7782)),
    (True, 1.0, CoherentProbe(1.3 + 0.4j), 20_000, 14, (13986, 0, 6014, 0)),
    (False, 0.45, NoisyPhotonProbe(NoisySource(0.0)), 20_000, 15, (0, 0, 8920, 11080)),
    (False, 0.45, NoisyPhotonProbe(NoisySource(1.0)), 20_000, 16, (1777, 5645, 7095, 5483)),
    (True, 0.45, CoherentProbe(4.5 - 1.0j), 20_000, 17, (8950, 0, 0, 11050)),
    (False, 0.45, CoherentProbe(4.5 - 1.0j), 20_000, 18, (8947, 10909, 144, 0)),
    (False, 0.45, NoisyPhotonProbe(NoisySource(0.7)), 1, 1, (0, 0, 1, 0)),
    (False, 0.45, NoisyPhotonProbe(NoisySource(0.7)), 1, 7, (0, 0, 1, 0)),
    (True, 0.45, CoherentProbe(4.5 - 1.0j), 1, 0, (0, 0, 0, 1)),
]
SHOT_KEYS = ("click_and_photon", "click_no_photon", "no_click_photon", "no_click_no_photon")


def _edge_setup(transparent):
    if transparent:
        return transparent_via_angle_sum(0.6, 0.3, 2.1)
    return mzi_config(0.6, 0.3, 0.2, 0.0, phi_chi=2.1)


@pytest.mark.parametrize("transparent, p_a, probe, n_shots, seed, counts", EDGE_CASES)
def test_sample_shots_edge_branches_pinned(transparent, p_a, probe, n_shots, seed, counts):
    result = sample_shots(
        _edge_setup(transparent), NoisySource(p_a), probe, n_shots, seed=seed,
        require_transparent=transparent,
    )
    assert result == dict(zip(SHOT_KEYS, counts))


@pytest.mark.parametrize("transparent, p_a, probe, n_shots, seed, _", EDGE_CASES)
def test_sample_shots_cells_within_four_sigma(transparent, p_a, probe, n_shots, seed, _):
    # each count against its cell probability, read off run_setup: q1 is the
    # detection efficiency and p_click = p q1 + (1 - p) q0; a cell of
    # probability 0 or 1 (sigma 0) must be met exactly: the 1e-6 only absorbs
    # the rounding of such a cell
    cfg = _edge_setup(transparent)
    out = run_setup(cfg, NoisySource(p_a), probe, require_transparent=transparent)
    photon_click = p_a * out.detection_efficiency
    cells = (photon_click, out.p_click - photon_click, p_a - photon_click,
             1.0 - out.p_click - p_a + photon_click)
    for shots in (n_shots, 10**6):
        counts = sample_shots(cfg, NoisySource(p_a), probe, shots, seed, transparent)
        assert sum(counts.values()) == shots
        for key, cell in zip(SHOT_KEYS, cells):
            sigma = math.sqrt(shots * max(cell * (1.0 - cell), 0.0))
            assert abs(counts[key] - shots * cell) <= 4.0 * sigma + 1e-6, (key, cell, counts)


def test_sample_shots_at_the_cap_never_clicks_without_a_photon():
    cfg = transparent_via_angle_sum(0.6, 0.3, 2.1)
    counts = sample_shots(cfg, NoisySource(0.45), CoherentProbe(1.3 + 0.4j), MAX_SAMPLE_SHOTS, 9)
    assert counts["click_no_photon"] == 0
    assert sum(counts.values()) == MAX_SAMPLE_SHOTS


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
    # one mixed _click_table batch against each slot run alone: noisy probes
    # (p_b = 0 and 1 among them, so labels of weight zero) and coherent probes
    # of several cutoffs, transparent and leaky configs, theta = 0 splitters
    # in either place and an inert phi_chi = 2 pi; each slot's clicks
    # recomputed from its own array and label weights, its deficit from the
    # norms of its probe's kets and held to the law's; random kets through
    # _propagate; a bright probe is refused
    rng = np.random.default_rng(89)
    identity = BeamSplitterParams(0.0, 0.7)
    cfgs, probes = [], []
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
        if i % 4 == 0:
            probes.append(NoisyPhotonProbe(NoisySource((0.0, 1.0, float(rng.uniform()))[i // 4 % 3])))
        else:  # |beta| in four bands of a few cutoffs each
            size = (0.3, 1.0, 2.5, 3.7)[i // 4 % 4] + 0.2 * rng.uniform()
            probes.append(CoherentProbe(complex(size * np.exp(1j * rng.uniform(0.0, 2.0 * PI)))))
    tables = mzi._click_table(cfgs, probes)
    assert len({t[2].shape for t in tables}) > 4
    for slot, (cfg, probe) in enumerate(zip(cfgs, probes)):
        weights, pair, out = mzi._click_table((cfg,), (probe,))[0]
        assert tables[slot][0] == weights
        assert np.max(np.abs(np.subtract(tables[slot][1], pair))) <= 1e-14
        assert np.max(np.abs(tables[slot][2] - out)) <= 1e-14
        # |out|^2 summed over B and over C >= 1, the clicks: (signal, label)
        mass = np.abs(tables[slot][2]) ** 2
        click = mass[:, :, 1:].sum(axis=(1, 2))
        # one deficit for table and law: exactly 0.0 for a photon probe
        deficit, law = tables[slot][1][2], mzi._law_clicks(cfg, probe)[2]
        if isinstance(probe, NoisyPhotonProbe):
            kets = make_fock((1,), (1,)), make_fock((0,), (1,))
            assert deficit == law == 0.0
        else:
            kets = (make_coherent(probe.beta, TruncationPolicy()),)
            assert abs(deficit - law) <= 1e-14
        tail = np.dot(weights, [1.0 - ket.squared_norm() for ket in kets])
        want = np.dot(weights, click[1]), np.dot(weights, click[0]), max(0.0, tail)
        assert np.max(np.abs(np.subtract(tables[slot][1], want))) <= 1e-15
    with pytest.raises(ConfigurationError, match="bright"):
        mzi._click_table(cfgs[:2], [probes[0], CoherentProbe(4.01)])
    # one random (A, B, C) ket per slot, B + C <= 5
    amps = np.stack([random_ket(rng, (1, 5, 5), max_total=6).amps for _ in cfgs], axis=-1)
    amps[:, np.add.outer(range(6), range(6)) > 5] = 0.0
    batched = mzi._propagate(amps, cfgs)
    for slot, cfg in enumerate(cfgs):
        alone = propagate_mzi(MultiModeKet._unchecked(amps[..., slot]), cfg).amps
        assert np.max(np.abs(batched[..., slot] - alone)) <= 1e-14


def _column_cases(rng):
    """Configs for the click-table batch check: both families and leaky ones,
    theta = 0 first splitters (the XPM then precedes the first mixing
    splitter, so that splitter's diagonal depends on the signal
    occupation), theta = 0 second splitters, both, and phi_chi = 2 pi."""
    identity = BeamSplitterParams(0.0, 0.4)
    cfgs = []
    for i in range(30):
        cfg = random_transparent(rng) if i % 2 else _random_nontransparent(rng)
        bs1 = identity if i % 6 in (1, 5) else cfg.bs1
        bs2 = identity if i % 6 in (2, 5) else cfg.bs2
        cfgs.append(MziConfig(bs1, bs2, XpmParams(2.0 * PI) if i % 6 == 3 else cfg.xpm))
    return cfgs


COLUMN_BETAS = (0.0, 1e-6, 0.3, complex(1.0, -0.0), 1.0 + 0.5j, 2.5j, -3.9)


def test_mixed_cutoff_batch_equals_array_path_bit_for_bit():
    # _click_table splits a batch of noisy and coherent probes of several
    # cutoffs into one batch per column shape; every slot's propagated array
    # equals that of its shape's input array, built here, run as one batch
    cfgs = _column_cases(np.random.default_rng(37))
    assert not mzi._PHOTON_OR_VACUUM.flags.writeable  # read-only where it is defined
    probes = [
        NoisyPhotonProbe(NoisySource(0.5)) if i % 4 == 0 else CoherentProbe(COLUMN_BETAS[i % 7])
        for i in range(len(cfgs))
    ]
    tables = mzi._click_table(cfgs, probes)
    shapes = {}
    for slot, probe in enumerate(probes):
        column = (
            mzi._PHOTON_OR_VACUUM if isinstance(probe, NoisyPhotonProbe)
            else make_coherent(probe.beta).amps[:, None, None, None]
        )
        shapes.setdefault(column.shape, []).append((slot, column))
    assert len(shapes) > 4
    for members in shapes.values():
        batch = np.concatenate([column for _, column in members], axis=-1)
        ref = mzi._propagate(_input_array(batch), [cfgs[slot] for slot, _ in members])
        for at, (slot, _) in enumerate(members):
            assert tables[slot][2].tobytes() == ref[..., at].tobytes()


def _input_array(columns):
    """The (signal, B, C, label, slot) input that probe columns (B, 1,
    label, slot) stand for: C in vacuum, both signal rows the column."""
    amps = np.zeros((2, len(columns), len(columns), *columns.shape[2:]), dtype=np.complex128)
    amps[:, :, 0] = columns[:, 0]
    return amps


def test_run_setup_stays_off_the_engine(monkeypatch):
    # run_setup and sample_shots answer from the 2x2 law: with the engine,
    # its click table and make_coherent made to raise they still return
    # every scalar and every count for photon, truncated coherent and bright
    # probes on transparent and leaky setups, and only reading a conditioned
    # state (which bright probes do not have) reaches the engine, through
    # the click table
    def refuse(*args, **kw):
        raise RuntimeError("engine")

    for module, name in ((mzi, "_propagate"), (mzi, "_chain"), (el, "_chain"), (mzi, "make_coherent")):
        monkeypatch.setattr(module, name, refuse)
    probes = [NoisyPhotonProbe(NoisySource(0.6)), CoherentProbe(0.5), CoherentProbe(2.0 - 1.0j),
              CoherentProbe(4.0), CoherentProbe(5.0j)]
    cfgs = [(transparent_via_angle_sum(0.7, 0.3, 2.1), True), (mzi_config(0.7, 0.3, 0.4, 1.1, 2.1), False)]
    for cfg, transparent in cfgs:
        for probe in probes:
            with monkeypatch.context() as table:
                table.setattr(mzi, "_click_table", refuse)
                out = run_setup(cfg, NoisySource(0.7), probe, require_transparent=transparent)
                counts = sample_shots(cfg, NoisySource(0.7), probe, 1000, 3, transparent)
            assert sum(counts.values()) == 1000 and counts["click_and_photon"] > 0
            assert 0.0 < out.p_click < 1.0 and 0.0 < out.detection_efficiency < 1.0
            assert out.total_success == 0.7 * out.detection_efficiency
            assert 0.0 <= out.truncation_deficit < 1e-10 and 0.0 < out.purity_given_click <= 1.0
            if abs(getattr(probe, "beta", 0.0)) ** 2 > mzi.BRIGHT_PROBE_MEAN_PHOTONS:
                assert out.click_state is None and out.no_click_state is None
                continue
            for event in ("click_state", "no_click_state"):
                with pytest.raises(RuntimeError, match="engine"):
                    getattr(out, event)


def _probe_kinds(rng):
    """A noisy photon probe, a truncated coherent one and a bright one."""
    phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * PI)))
    return (NoisyPhotonProbe(NoisySource(float(rng.uniform()))),
            CoherentProbe(float(rng.uniform(0.1, 4.0)) * phase),
            CoherentProbe(float(rng.uniform(4.1, 30.0)) * phase))


def test_transparent_setups_never_click_without_a_signal_photon():
    # q0 is exactly 0.0 on every transparent setup, both families and every
    # probe kind, so a vacuum source's p_click is 0.0 and a click's purity 1.0
    rng = np.random.default_rng(43)
    for i in range(300):
        family = transparent_via_angle_sum if i % 2 else transparent_via_angle_diff
        cfg = family(*rng.uniform(-7.0, 7.0, 3))
        for probe in _probe_kinds(rng):
            assert mzi._law_clicks(cfg, probe)[1] == 0.0
            assert run_setup(cfg, NoisySource(0.0), probe).p_click == 0.0
            out = run_setup(cfg, NoisySource(0.3), probe)
            assert out.purity_value in (None, 1.0)


def test_transparent_run_setup_is_the_closed_form_bit_for_bit():
    # photon and bright probes truncate nothing, so run_setup's detection
    # efficiency is detection_efficiency's, bit for bit
    rng = np.random.default_rng(47)
    for _ in range(300):
        cfg = random_transparent(rng, phi_chi=float(rng.uniform(-7.0, 7.0)))
        photon, _, bright = _probe_kinds(rng)
        for probe in (photon, bright):
            out = run_setup(cfg, NoisySource(float(rng.uniform())), probe)
            assert out.detection_efficiency == detection_efficiency(cfg, probe)


def test_sample_shots_draws_from_the_click_pair_run_setup_reads(monkeypatch):
    # sample_shots' four cells are p q1, (1 - p) q0, p (1 - q1), (1 - p)
    # (1 - q0) of the one (q1, q0) that run_setup reports, on transparent and
    # leaky setups and every probe kind; a leak that rounds past 1 still
    # gives four cells in [0, 1]
    pairs, cells = [], []
    real_generator, law = np.random.Generator, mzi._law_clicks

    class Spy:  # records the cells sample_shots draws from
        def __init__(self, bit_generator):
            self.generator = real_generator(bit_generator)

        def multinomial(self, n, pvals):
            cells.append(list(pvals))
            return self.generator.multinomial(n, pvals)

    def recorded(cfg, probe):
        clicks = law(cfg, probe)
        pairs.append(clicks[:2])
        return clicks

    monkeypatch.setattr(np.random, "Generator", Spy)
    monkeypatch.setattr(mzi, "_law_clicks", recorded)
    rng = np.random.default_rng(53)
    full_swap = mzi_config(PI / 2.0, 0.9, 0.0, 0.1, 1.3)
    assert min(mzi._detector_means(full_swap, 1.0)) > 1.0
    cfgs = [(random_transparent(rng), True), (_random_nontransparent(rng), False), (full_swap, False)]
    for cfg, transparent in cfgs:
        for probe in _probe_kinds(rng) + (NoisyPhotonProbe(NoisySource(1.0)),):
            p = float(rng.uniform())
            out = run_setup(cfg, NoisySource(p), probe, transparent)
            sample_shots(cfg, NoisySource(p), probe, 100, 9, transparent)
            assert pairs[-2] == pairs[-1] and pairs[-1][0] == out.detection_efficiency
            q1, q0 = pairs[-1]
            assert cells[-1] == [p * q1, (1.0 - p) * q0, p * (1.0 - q1), (1.0 - p) * (1.0 - q0)]
            assert out.p_click == cells[-1][0] + cells[-1][1]
            assert all(0.0 <= c <= 1.0 for c in cells[-1])
    assert len(pairs) == 2 * len(cells) == 24


def test_outcome_holds_no_array_until_a_state_is_read():
    # the outcome keeps its inputs, not the propagated array (73.7 KB at
    # |beta|^2 = 16), until a conditioned state is read; the array is then
    # kept for the other state too
    cfg = transparent_via_angle_sum(0.7, 0.3, 2.1)
    for probe in (CoherentProbe(4.0), NoisyPhotonProbe(NoisySource(0.6))):
        out = run_setup(cfg, NoisySource(0.7), probe)
        assert not any(isinstance(v, np.ndarray) for v in vars(out).values())
        assert out._inputs == (cfg, NoisySource(0.7), probe)
        assert out.click_state is not None and "_branches" in vars(out)
        assert out._branches[0].shape[-1] == (2 if isinstance(probe, NoisyPhotonProbe) else 1)


_GOOD = transparent_via_angle_sum(0.7, 0.3, 2.1), NoisySource(0.5)
BAD_SLOTS = {  # (config, source, probe, require_transparent) the per-slot checks refuse
    "source": (_GOOD[0], 0.5, CoherentProbe(1.0), True),
    "config": (None, _GOOD[1], CoherentProbe(1.0), False),
    "probe": (*_GOOD, NoisySource(0.5), True),
    "probe number": (*_GOOD, 5.0, True),
    "leaky": (mzi_config(0.7, 0.3, 0.4, 1.1), _GOOD[1], CoherentProbe(1.0), True),
    "flag": (*_GOOD, CoherentProbe(1.0), 1),
}


@pytest.mark.parametrize("cfg, source, probe, require", BAD_SLOTS.values(), ids=list(BAD_SLOTS))
def test_run_setup_and_sample_shots_share_the_slot_checks(cfg, source, probe, require):
    # one set of per-slot checks: run_setup and sample_shots refuse each bad
    # slot with the same message
    messages = set()
    for call in (lambda: run_setup(cfg, source, probe, require),
                 lambda: sample_shots(cfg, source, probe, 10, 1, require)):
        with pytest.raises(ConfigurationError) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


def test_photon_probe_clicks_with_the_leak_of_the_two_by_two_map():
    # a lone probe photon clicks with |t01|^2 bit for bit: without a signal
    # photon the leak amplitude vacuum_leak_amplitude reads, with one the
    # arm C of coherent_outputs at |beta| = 1; a photon-free probe never clicks
    rng = np.random.default_rng(23)
    one, none = NoisyPhotonProbe(NoisySource(1.0)), NoisyPhotonProbe(NoisySource(0.0))
    for _ in range(200):
        cfg = _random_nontransparent(rng)
        out = run_setup(cfg, NoisySource(0.0), one, require_transparent=False)
        assert out.p_click == abs(vacuum_leak_amplitude(cfg)) ** 2
        out = run_setup(cfg, NoisySource(1.0), one, require_transparent=False)
        assert out.detection_efficiency == abs(complex(coherent_outputs(cfg, 1.0, True)[1])) ** 2
        out = run_setup(cfg, NoisySource(0.5), none, require_transparent=False)
        assert out.p_click == out.detection_efficiency == 0.0 and out.purity_value is None


def test_click_law_edges_are_exact_zeros():
    # no photon to click (beta = 0) or no leak (theta1 = 0): every click
    # probability is +0.0, and a one-entry probe's deficit is 0.0
    transparent = transparent_via_angle_sum(0.7, 0.3, 2.1)
    still = mzi_config(0.0, 0.3, 0.0, 1.1, 2.1)
    for cfg, probe in ((transparent, CoherentProbe(0.0)), (still, CoherentProbe(2.0)),
                       (still, NoisyPhotonProbe(NoisySource(0.6)))):
        out = run_setup(cfg, NoisySource(0.7), probe, require_transparent=False)
        assert [math.copysign(1.0, x) for x in _scalars(out)[:3]] == [1.0] * 3
        assert _scalars(out)[:3] == (0.0, 0.0, 0.0) and out.purity_value is None
    assert run_setup(transparent, NoisySource(0.7), CoherentProbe(0.0)).truncation_deficit == 0.0


def test_transparency_is_computed_once_per_config(monkeypatch):
    # the constructor's verdict is kept: run_setup, detection_efficiency
    # and is_transparent read it; a config built directly computes it on
    # first use, and the kept verdict changes neither equality nor hash
    verdict = MziConfig.__dict__["_transparent"]
    computed, compute = [], verdict.func
    monkeypatch.setattr(verdict, "func", lambda cfg: computed.append(cfg) or compute(cfg))
    cfg = transparent_via_angle_sum(0.7, 0.3, 2.1)
    assert computed == [cfg]
    for probe in (CoherentProbe(1.5), NoisyPhotonProbe(NoisySource(0.5)), CoherentProbe(5.0)):
        run_setup(cfg, NoisySource(0.7), probe).click_state
        sample_shots(cfg, NoisySource(0.7), probe, 100, seed=1)
        detection_efficiency(cfg, probe)
    assert is_transparent(cfg)
    leaky = mzi_config(0.7, 0.3, 0.4, 1.1)
    for _ in range(3):
        assert not is_transparent(leaky)
    assert computed == [cfg, leaky]
    twin = MziConfig(cfg.bs1, cfg.bs2, cfg.xpm)
    assert twin == cfg and hash(twin) == hash(cfg)


def _benchmark_ops(workload, n_blocks):
    """(config, source, probe) of the first blocks of an exact workload, as
    the benchmark generates them at seed 1 (perfbench/workloads.py, imported
    as is)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    for op in (op for block in getattr(workloads, workload)(1, n_blocks) for op in block):
        family = transparent_via_angle_sum if op["family"] == "sum" else transparent_via_angle_diff
        cfg = family(op["theta1"], op["phi1"], op["phi_chi"], k=op["k"], l=op["l"])
        spec_probe = op["probe"]
        if spec_probe["kind"] == "coherent":
            probe = CoherentProbe(complex(spec_probe["re"], spec_probe["im"]))
        else:
            probe = NoisyPhotonProbe(NoisySource(spec_probe["p"]))
        runs.append((cfg, NoisySource(op["p"]), probe))
    return runs


def test_benchmark_traffic_agrees_with_the_engine_table():
    # the benchmark's own exact-grid and exact-cold blocks: run_setup's
    # click law within ROUTE_TOL of the engine's click table on every
    # scalar (1.1e-14 at most seen)
    runs = _benchmark_ops("exact_grid", 2) + _benchmark_ops("exact_cold", 3)
    assert len(runs) == 2 * 18 + 3 * 20
    for cfg, source, probe in runs:
        _assert_routes_agree(run_setup(cfg, source, probe), _engine_scalars(cfg, source, probe))


def _truncated_law(cfg, beta):
    """A 50-digit evaluation of the truncated law run_setup reads for a
    coherent probe beta: q1 = sum P(n) (1 - (1 - q)^n) over n up to
    make_coherent's cutoff, q the one-photon leak ``_detector_means`` gives
    with a signal photon, and the deficit 1 - sum P(n)."""
    mp = pytest.importorskip("mpmath")
    n_max = make_coherent(beta).cutoffs[0]
    mean, q = mp.mpf(abs(complex(beta)) ** 2), mp.mpf(mzi._detector_means(cfg, 1.0)[0])
    with mp.workdps(50):
        weights = [mp.exp(-mean) * mean**n / mp.factorial(n) for n in range(n_max + 1)]
        q1 = mp.fsum(w * (1 - (1 - q) ** n) for n, w in enumerate(weights))
        return float(q1), float(1 - mp.fsum(weights))


def test_truncated_law_is_within_ulps_of_a_50_digit_reference():
    # the truncated coherent probes of _golden_setups and of one exact-cold
    # block: detection_efficiency within 8 ulp and truncation_deficit
    # within 1e-15 of _truncated_law.  At most seen, under the fma and the
    # sse2 libm alike: 4 ulp and 4.3e-16 (golden), 6 ulp and 7.3e-16 over
    # 33 exact-cold blocks; the squared make_coherent amplitudes that
    # output 0.5.0 summed were 29 ulp and 3.2e-15 off
    runs = [(cfg, source, probe, transparent) for cfg, source, probe, transparent in _golden_setups()
            if isinstance(probe, CoherentProbe) and abs(probe.beta) <= 4.0]
    runs += [(*run, True) for run in _benchmark_ops("exact_cold", 1) if isinstance(run[2], CoherentProbe)]
    assert len(runs) == 72 + 15
    for cfg, source, probe, transparent in runs:
        out = run_setup(cfg, source, probe, transparent)
        q1, deficit = _truncated_law(cfg, probe.beta)
        assert abs(out.detection_efficiency - q1) <= 8.0 * math.ulp(q1), (cfg, probe)
        assert abs(out.truncation_deficit - deficit) <= 1e-15, (cfg, probe)
