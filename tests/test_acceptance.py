"""Acceptance suite: every exit criterion at its stated size and tolerance.

Each test prints one PASS line after its assertions; run with ``-v -s`` (or
read captured output) for the per-criterion report.
"""

import math
import time

import numpy as np
import pytest

import xpmherald as xh
from xpmherald.cli import main
from xpmherald.experiments import ExperimentConfig, run_experiment
from xpmherald.fock import make_fock, tensor
from xpmherald.mzi import propagate_mzi
from xpmherald.verify import random_ket, random_transparent

PI = math.pi


def random_probe(rng):
    if rng.random() < 0.5:
        return xh.NoisyPhotonProbe(xh.NoisySource(float(rng.uniform(0.0, 1.0))))
    ang = float(rng.uniform(0.0, 2.0 * PI))
    mag = float(rng.uniform(0.05, 2.0))
    return xh.CoherentProbe(mag * complex(math.cos(ang), math.sin(ang)))


def test_acceptance_1_zero_false_click():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        cfg = random_transparent(rng)
        probe = random_probe(rng)
        outcome = xh.run_setup(cfg, xh.NoisySource(0.0), probe)
        worst = max(worst, outcome.p_click)
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 1 PASS: zero-false-click, 1000 configs, "
        f"max p(click|vacuum) = {worst:.2e}, {elapsed:.1f} s"
    )


def test_acceptance_2_heralded_purity():
    rng = np.random.default_rng(202)
    worst_fid = 1.0
    for _ in range(60):
        cfg = random_transparent(rng, phi_chi=float(rng.uniform(0.4, 5.9)))
        probe = random_probe(rng)
        outcome = xh.run_setup(
            cfg, xh.NoisySource(float(rng.uniform(0.05, 1.0))), probe
        )
        if outcome.p_click > 1e-9:
            worst_fid = min(worst_fid, outcome.purity_given_click)
    assert worst_fid >= 1.0 - 1e-12

    shots = 1_000_000
    bad = 0
    for seed, probe in (
        (11, xh.CoherentProbe(1.0)),
        (12, xh.NoisyPhotonProbe(xh.NoisySource(0.8))),
    ):
        cfg = xh.transparent_via_angle_sum(PI / 4.0, 0.0, PI / 2.0)
        counts = xh.sample_shots(cfg, xh.NoisySource(0.3), probe, shots, seed)
        bad += counts["click_no_photon"]
        assert sum(counts.values()) == shots
    assert bad == 0
    print(
        f"ACCEPTANCE 2 PASS: heralded purity, min fidelity = {worst_fid!r}, "
        f"0 click-without-photon events in 2x{shots} shots"
    )


def test_acceptance_3_closed_form_noisy_grid():
    thetas = np.sort(np.append(np.linspace(0.01, PI - 0.01, 49), PI / 4.0))
    phis = np.linspace(0.0, 2.0 * PI, 50)
    assert len(thetas) == 50
    worst = 0.0
    values = np.zeros((len(thetas), len(phis)))
    for i, theta1 in enumerate(thetas):
        for j, phi_chi in enumerate(phis):
            cfg = xh.transparent_via_angle_sum(float(theta1), 0.0, float(phi_chi))
            outcome = xh.run_setup(
                cfg, xh.NoisySource(1.0), xh.NoisyPhotonProbe(xh.NoisySource(1.0))
            )
            closed = math.sin(phi_chi / 2.0) ** 2 * math.sin(2.0 * theta1) ** 2
            values[i, j] = outcome.p_click
            worst = max(worst, abs(outcome.p_click - closed))
    assert worst <= 1e-10
    quarter = int(np.argmin(np.abs(thetas - PI / 4.0)))
    for j, phi_chi in enumerate(phis):
        if math.sin(phi_chi / 2.0) ** 2 > 1e-2:
            assert int(np.argmax(values[:, j])) == quarter
    print(
        f"ACCEPTANCE 3 PASS: noisy-probe closed form on 50x50 grid, "
        f"max deviation = {worst:.2e}, maximum at theta1 = pi/4"
    )


def test_acceptance_4_closed_form_coherent():
    policy = xh.TruncationPolicy(tail_tolerance=1e-10)
    thetas = np.linspace(0.15, PI / 2.0, 8)
    phis = np.sort(np.unique(np.append(np.linspace(0.0, 2.0 * PI, 12), PI)))
    worst = 0.0
    peak = {}
    for beta in (0.5, 1.0, 2.0):
        for theta1 in thetas:
            for phi_chi in phis:
                cfg = xh.transparent_via_angle_sum(float(theta1), 0.0, float(phi_chi))
                outcome = xh.run_setup(
                    cfg, xh.NoisySource(1.0), xh.CoherentProbe(beta), policy
                )
                closed = 1.0 - math.exp(
                    -beta * beta
                    * math.sin(2.0 * theta1) ** 2
                    * math.sin(phi_chi / 2.0) ** 2
                )
                allowance = 1e-8 + outcome.truncation_deficit
                worst = max(worst, abs(outcome.p_click - closed) - allowance)
        # qualitative content at the optimal splitter
        curve = {
            float(phi_chi): xh.run_setup(
                xh.transparent_via_angle_sum(PI / 4.0, 0.0, float(phi_chi)),
                xh.NoisySource(1.0),
                xh.CoherentProbe(beta),
                policy,
            ).p_click
            for phi_chi in phis
        }
        assert curve[0.0] < 1e-12  # inert medium never clicks
        peak[beta] = max(curve, key=curve.get)
        assert peak[beta] == pytest.approx(PI)
    assert worst <= 0.0
    p_half = xh.detection_efficiency(
        xh.transparent_via_angle_sum(PI / 4.0, 0.0, PI), xh.CoherentProbe(0.5)
    )
    p_one = xh.detection_efficiency(
        xh.transparent_via_angle_sum(PI / 4.0, 0.0, PI), xh.CoherentProbe(1.0)
    )
    p_two = xh.detection_efficiency(
        xh.transparent_via_angle_sum(PI / 4.0, 0.0, PI), xh.CoherentProbe(2.0)
    )
    assert p_half < p_one < p_two  # efficiency climbs toward 1 with brightness
    assert p_two > 0.98
    print(
        "ACCEPTANCE 4 PASS: coherent-probe closed form for |beta| in "
        "{0.5, 1, 2}, max deviation within 1e-8 + deficit; "
        "P_E(0)=0, peak at phi_chi=pi, P_E grows with |beta|^2"
    )


def test_acceptance_5_transparency_generality():
    rng = np.random.default_rng(505)
    worst_signed = 0.0
    worst_strict = 0.0
    strict_count = 0
    for _ in range(1000):
        cfg = random_transparent(rng)
        sign = xh.transparency_sign(cfg)
        bc = random_ket(rng, (3, 3), max_total=3)
        ket = tensor([make_fock((0,), (1,)), bc])
        out = propagate_mzi(ket, cfg)
        occ = np.indices(ket.amps.shape)
        expected = ket.amps * sign ** (occ[1] + occ[2])
        worst_signed = max(worst_signed, float(np.max(np.abs(out.amps - expected))))
        if sign == 1:
            worst_strict = max(
                worst_strict, float(np.max(np.abs(out.amps - ket.amps)))
            )
        strict_count += sign == 1
    assert worst_signed <= 1e-12
    assert worst_strict <= 1e-12
    assert strict_count > 200  # both operator signs well represented

    found = 0
    for _ in range(1000):
        cfg = None
        while cfg is None:
            candidate = xh.MziConfig(
                bs1=xh.BeamSplitterParams(
                    float(rng.uniform(0.1, PI - 0.1)), float(rng.uniform(0.0, 2.0 * PI))
                ),
                bs2=xh.BeamSplitterParams(
                    float(rng.uniform(0.1, PI - 0.1)), float(rng.uniform(0.0, 2.0 * PI))
                ),
                xpm=xh.XpmParams(1.0),
            )
            if not xh.is_transparent(candidate):
                cfg = candidate
        probe_photon = tensor(
            [make_fock((0,), (1,)), make_fock((1,), (3,)), make_fock((0,), (3,))]
        )
        out = propagate_mzi(probe_photon, cfg)
        if np.any(np.abs(out.amps - probe_photon.amps) > 1e-12):
            found += 1
    assert found == 1000
    print(
        f"ACCEPTANCE 5 PASS: transparency generality, 1000 transparent "
        f"configs identity to {worst_signed:.2e} (operator sign accounted, "
        f"{strict_count} strict-identity instances), violations found for "
        f"1000/1000 non-transparent configs"
    )


def test_acceptance_6_loss_bounds():
    start = time.perf_counter()
    cfg_pi = xh.transparent_via_angle_sum(PI / 4.0, 0.0, PI)
    strong = {}
    for beta_sq, ref in ((1.0, 0.80), (1e2, 0.35), (1e4, 0.06)):
        bound = xh.max_tolerable_loss(cfg_pi, math.sqrt(beta_sq))
        strong[beta_sq] = (bound, ref)
        assert abs(bound - ref) <= 0.05
    cfg_weak = xh.transparent_via_angle_sum(PI / 4.0, 0.0, 0.010)
    weak_report = []
    for beta_sq, ref in ((1e2, 0.021), (1e4, 0.020), (1e6, 0.008)):
        bound = xh.max_tolerable_loss(cfg_weak, math.sqrt(beta_sq))
        weak_report.append(
            f"|beta|^2={beta_sq:g}: computed {bound:.4f}, reference {ref}, "
            f"deviation {abs(bound - ref):.4f}"
        )
        assert 0.0 < bound < 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    strong_str = ", ".join(
        f"|beta|^2={b:g}: {v[0]:.3f} (ref {v[1]})" for b, v in strong.items()
    )
    print(
        f"ACCEPTANCE 6 PASS: tolerable-loss bounds in {elapsed:.1f} s; "
        f"strong phase within 0.05: {strong_str}; weak phase reported, "
        f"agreement not required: " + "; ".join(weak_report)
    )


def test_acceptance_7_cascade_audit():
    worst_reuse = 0.0
    for alpha_sq in (0.5, 4.0, 25.0):
        for phi_chi in (0.7, PI / 2.0, 2.8):
            cfg = xh.CascadeConfig(
                "reused_probe", 100, math.sqrt(alpha_sq), phi_chi, 0.6
            )
            sim = xh.simulate_cascade(cfg)
            closed = np.array(
                [xh.reused_probe_pn(n, cfg.alpha, phi_chi) for n in range(1, 101)]
            )
            worst_reuse = max(worst_reuse, float(np.max(np.abs(sim.per_setup - closed))))
    assert worst_reuse <= 1e-12

    worst_shared = 0.0
    for p in (0.25, 0.5, 0.9):
        for alpha_sq in (1.0, 4.0, 9.0):
            for phi_chi in (0.7, PI / 2.0, 2.4):
                cfg = xh.CascadeConfig(
                    "shared_probe", 12, math.sqrt(alpha_sq), phi_chi, p
                )
                sim = xh.simulate_cascade(cfg)
                closed = np.array(
                    [
                        xh.shared_probe_pn(n, cfg.alpha, phi_chi, p)
                        for n in range(1, 13)
                    ]
                )
                worst_shared = max(
                    worst_shared, float(np.max(np.abs(sim.per_setup - closed)))
                )
    # report the residual discrepancy verbatim alongside the assertion
    assert worst_shared <= 1e-10

    reuse_total = xh.reused_probe_total(100, 5.0, PI / 2.0, 0.6)
    assert abs(reuse_total - 0.6) <= 1e-6
    shared_total = xh.shared_probe_total(100, 5.0, PI / 2.0, 0.3)
    assert shared_total >= 0.999
    print(
        f"ACCEPTANCE 7 PASS: cascade audit; reused-probe closed form vs "
        f"recursion max dev {worst_reuse:.2e} (N<=100), shared-probe closed "
        f"form vs enumeration max dev {worst_shared:.2e} (N<=12), limits "
        f"P_T={reuse_total:.8f} -> p and P_T={shared_total:.6f} >= 0.999"
    )


def test_acceptance_8_determinism_and_performance(tmp_path, capsys):
    start = time.perf_counter()
    exit_code = main(["verify", "--suite", "fast"])
    elapsed = time.perf_counter() - start
    assert exit_code == 0
    assert elapsed < 60.0

    csvs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        run_experiment(
            ExperimentConfig(
                "purity-audit", params={"shots": 30_000}, seed=42, out=str(out)
            )
        )
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]

    figs = []
    for name in ("f1.csv", "f2.csv"):
        out = tmp_path / name
        run_experiment(
            ExperimentConfig("fig4", params={"phi_chi_points": 40}, out=str(out))
        )
        figs.append(out.read_bytes())
    assert figs[0] == figs[1]
    print(
        f"ACCEPTANCE 8 PASS: verify fast suite exit 0 in {elapsed:.1f} s; "
        f"identical seeds give bit-identical CSVs"
    )
