"""Self-audit of the scheme: the paper's guarantees over random setups.

The ``mzi`` group checks zero false clicks for transparent setups,
click-conditioned purity 1, the closed forms against exact propagation and
transparency for any probe input; ``loss`` and ``cascade`` check the
absorption model and the chained-setup closed forms; ``elements`` checks
the classical coherent path that bright probes take, the arms of
``mzi.coherent_outputs`` and the clicks of ``mzi._classical_clicks``,
against one exact ``mzi._propagate`` batch of the same probes.  The Fock
and element algebra underneath is tested in ``tests/test_fock.py`` and
``tests/test_elements.py``, not here.

The tolerance ladder is fixed package-wide: algebraic identities at 1e-12,
closed form versus exact propagation at 1e-10 (plus the truncation deficit
for coherent probes), Monte Carlo frequencies within four binomial standard
deviations.  The ``fast`` suite uses small grids and finishes in well under
a minute; ``full`` runs every check at the sizes of the acceptance criteria
(``tests/test_acceptance.py`` asserts on its named checks) and raises the
Monte Carlo campaign to a million shots.  Each group draws from its own
generator, so a group run alone reproduces its part of the whole suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cascade as casc
from . import elements as el
from . import fock as fk
from . import loss as ls
from . import mzi

ALGEBRA_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10
MC_SIGMAS = 4.0


@dataclass
class CheckResult:
    module: str
    name: str
    params: str
    observed: str
    expected: str
    passed: bool

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (
            f"[{status}] {self.module}/{self.name} ({self.params}): "
            f"observed {self.observed}, expected {self.expected}"
        )


def _record(results, module, name, passed, params="", observed="", expected=""):
    results.append(CheckResult(module, name, params, observed, expected, bool(passed)))


def _record_worst(results, module, name, worst, tol, params, label="max dev"):
    """Record a worst-case deviation against the tolerance it must not exceed."""
    observed = f"{label} {worst:.2e}"
    _record(results, module, name, worst <= tol, params, observed, f"<= {tol}")


def random_ket(rng, cutoffs, max_total=None) -> fk.MultiModeKet:
    """Unit-norm ket with Gaussian amplitudes on every occupation tuple, or
    only on those holding at most ``max_total`` photons."""
    totals = np.indices([c + 1 for c in cutoffs]).sum(axis=0)
    keep = totals >= 0 if max_total is None else totals <= max_total
    n = int(keep.sum())
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps = np.zeros(keep.shape, dtype=complex)
    amps[keep] = vec / np.linalg.norm(vec)
    return fk.MultiModeKet(amps)


def random_transparent(rng, phi_chi=None) -> mzi.MziConfig:
    """Random member of either transparency constraint family, with a random
    XPM phase unless ``phi_chi`` is given."""
    theta1 = float(rng.uniform(0.05, math.pi - 0.05))
    phi1 = float(rng.uniform(0.0, 2.0 * math.pi))
    pc = float(rng.uniform(0.0, 2.0 * math.pi)) if phi_chi is None else phi_chi
    k = int(rng.integers(-1, 2))
    l = int(rng.integers(-1, 3))
    if rng.random() < 0.5:
        return mzi.transparent_via_angle_sum(theta1, phi1, pc, k=k, l=l)
    return mzi.transparent_via_angle_diff(theta1, phi1, pc, k=k, l=l)


def _random_nontransparent(rng) -> mzi.MziConfig:
    while True:
        bs1, bs2 = (
            el.BeamSplitterParams(
                float(rng.uniform(0.1, math.pi - 0.1)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            for _ in range(2)
        )
        xpm = el.XpmParams(float(rng.uniform(0.2, 2.0 * math.pi - 0.2)))
        cfg = mzi.MziConfig(bs1, bs2, xpm)
        if not mzi.is_transparent(cfg):
            return cfg


def _random_probe(rng) -> mzi.Probe:
    """Noisy-photon or coherent probe with even odds, random efficiency or
    random complex amplitude."""
    if rng.random() < 0.5:
        return mzi.NoisyPhotonProbe(mzi.NoisySource(float(rng.uniform(0.0, 1.0))))
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    mag = float(rng.uniform(0.05, 2.0))
    return mzi.CoherentProbe(mag * complex(math.cos(ang), math.sin(ang)))


# ---------------------------------------------------------------------------
# module check groups
# ---------------------------------------------------------------------------


def _check_elements(results, rng, dense: bool):
    # the classical path of bright probes against one exact batch of the same
    # truncated probes: per signal slice, the fidelity with the product of
    # the ``coherent_outputs`` arms and the click mass of ``_classical_clicks``
    tol = 100 * fk.TruncationPolicy.tail_tolerance
    cfgs, betas = [], []
    for i in range(10 if dense else 5):
        cfgs.append(_random_nontransparent(rng) if i % 2 else random_transparent(rng))
        betas.append(complex(rng.uniform(0.2, 1.2), rng.uniform(-0.5, 0.5)))
    columns = [fk.make_coherent(beta).amps for beta in betas]
    size = max(column.size for column in columns)
    padded = [np.pad(column, (0, size - column.size))[:, None] for column in columns]
    out = mzi._propagate(mzi._inputs(padded), cfgs)[..., 0, :]  # (A, B, C, slot)
    worst = 0.0
    for at, (cfg, beta) in enumerate(zip(cfgs, betas)):
        for signal, q in enumerate(mzi._classical_clicks(cfg, beta)(0.0)[::-1]):
            arms = mzi.coherent_outputs(cfg, beta, bool(signal))
            b, c = (fk.make_coherent(a).amps[:size] for a in arms)
            exact = out[signal, ..., at]
            fidelity = abs(np.vdot(np.multiply.outer(b, c), exact[: b.size, : c.size]))
            clicks = float(np.sum(np.abs(exact[:, 1:]) ** 2))
            worst = max(worst, abs(fidelity - 1.0), abs(clicks - q))
    _record_worst(
        results, "elements", "classical-vs-exact-path", worst, tol,
        f"{len(cfgs)} random configs, |beta| <= 1.3, signal 0 and 1", "max gap",
    )


def _check_mzi(results, rng, dense: bool):
    # each check draws its configs in the order of a config-by-config loop,
    # then runs them as a few batches (mzi._run_setups, mzi._propagate)
    n_cfg = 1000 if dense else 120
    cfgs, probes = [], []
    for i in range(n_cfg):
        cfgs.append(random_transparent(rng))
        if i % 2 == 0:
            probes.append(mzi.NoisyPhotonProbe(mzi.NoisySource(float(rng.uniform(0, 1)))))
        else:
            mag, ang = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 2.0 * math.pi))
            probes.append(mzi.CoherentProbe(mag * complex(math.cos(ang), math.sin(ang))))
    vacuum = [mzi.NoisySource(0.0)] * n_cfg
    worst = max(outcome.p_click for outcome in mzi._run_setups(cfgs, vacuum, probes))
    _record(
        results, "mzi", "zero-false-click", worst < 1e-12,
        f"{n_cfg} random transparent configs, vacuum signal",
        f"max p(click) {worst:.2e}", "< 1e-12",
    )

    if dense:  # the optimal splitter theta1 = pi/4 is a grid point
        thetas = np.sort(np.append(np.linspace(0.01, math.pi - 0.01, 49), math.pi / 4.0))
    else:
        thetas = np.linspace(0.03, math.pi - 0.03, 15)
    phis = np.linspace(0.0, 2.0 * math.pi, len(thetas))
    full_photon = mzi.NoisyPhotonProbe(mzi.NoisySource(1.0))
    cfgs = [mzi.transparent_via_angle_sum(float(t), 0.0, float(p)) for t in thetas for p in phis]
    outcomes = mzi._run_setups(cfgs, [mzi.NoisySource(1.0)] * len(cfgs), [full_photon] * len(cfgs))
    values = np.reshape([outcome.p_click for outcome in outcomes], (len(thetas), -1))
    worst = max(
        abs(outcome.p_click - mzi.detection_efficiency(cfg, full_photon))
        for cfg, outcome in zip(cfgs, outcomes)
    )
    _record_worst(
        results, "mzi", "closed-form-vs-exact-noisy", worst, CLOSED_FORM_TOL,
        f"{len(thetas)}x{len(phis)} (theta1, phi_chi) grid",
    )
    if dense:
        quarter = int(np.argmin(np.abs(thetas - math.pi / 4.0)))
        columns = [j for j, phi in enumerate(phis) if math.sin(phi / 2.0) ** 2 > 1e-2]
        off = [j for j in columns if int(np.argmax(values[:, j])) != quarter]
        _record(
            results, "mzi", "noisy-exact-peak-at-quarter-pi", not off,
            f"{len(columns)} phi_chi columns with sin^2(phi_chi/2) > 1e-2",
            f"{len(off)} columns peaking elsewhere", "argmax theta1 = pi/4 in each",
        )

    betas = (0.5, 1.0, 2.0) if dense else (1.0,)
    thetas = np.linspace(0.1, math.pi / 2.0, 12 if dense else 8)
    phis = np.linspace(0.0, 2.0 * math.pi, len(thetas))
    if dense:  # the curve at the optimal splitter must reach phi_chi = pi
        thetas = np.sort(np.append(thetas, math.pi / 4.0))
        phis = np.sort(np.append(phis, math.pi))
    quarter = int(np.argmin(np.abs(thetas - math.pi / 4.0)))
    half = int(np.argmin(np.abs(phis - math.pi)))
    grid = [mzi.transparent_via_angle_sum(float(t), 0.0, float(p)) for t in thetas for p in phis]
    cfgs = grid * len(betas)
    probes = [mzi.CoherentProbe(beta) for beta in betas for _ in grid]
    outcomes = mzi._run_setups(cfgs, [mzi.NoisySource(1.0)] * len(cfgs), probes)
    closed = [mzi.detection_efficiency(cfg, probe) for cfg, probe in zip(cfgs, probes)]
    devs = [abs(o.p_click - c) - (1e-8 + o.truncation_deficit) for o, c in zip(outcomes, closed)]
    worst = max(0.0, *devs)
    # the curve over phi_chi at theta1 = pi/4, per beta
    p_clicks = [outcome.p_click for outcome in outcomes]
    curves = np.reshape(p_clicks, (len(betas), len(thetas), -1))[:, quarter]
    _record(
        results, "mzi", "closed-form-vs-exact-coherent", worst <= 0.0,
        f"beta in {betas}, {len(thetas)}x{len(phis)} grid",
        f"max dev beyond allowance {worst:.2e}", "<= 0",
    )
    if dense:  # an inert medium never clicks, pi is optimal, brightness helps
        p_inert = max(curve[0] for curve in curves)
        peaks = [float(phis[int(np.argmax(curve))]) for curve in curves]
        p_e = [curve[half] for curve in curves]
        _record(
            results, "mzi", "coherent-curve-at-optimal-splitter",
            p_inert < 1e-12 and set(peaks) == {math.pi} and p_e[0] < p_e[1] < p_e[2] > 0.98,
            f"theta1 = pi/4, beta in {betas}",
            f"max P(phi_chi=0) {p_inert:.2e}, argmax phi_chi "
            + " ".join(f"{p:.4f}" for p in peaks) + ", P_E(pi) "
            + " ".join(f"{p:.4f}" for p in p_e),
            "< 1e-12, pi, increasing to > 0.98",
        )

    # random entangled (B, C) inputs with vacuum in A, one per slot
    n_cfg = 1000 if dense else 60
    cfgs, amps = [], np.zeros((2, 4, 4, n_cfg), dtype=complex)
    for slot in range(n_cfg):
        cfgs.append(random_transparent(rng))
        amps[0, ..., slot] = random_ket(rng, (3, 3), max_total=3).amps
    # the odd constraint instances negate both field operators, a
    # (-1)^(photons in B and C) phase on each basis state
    signs = np.array([mzi.transparency_sign(cfg) for cfg in cfgs])
    occ = np.indices((4, 4)).sum(axis=0)[None, :, :, None]
    devs = np.abs(mzi._propagate(amps, cfgs) - amps * signs**occ).max(axis=(0, 1, 2))
    worst = float(devs.max())
    worst_strict = float(devs[signs == 1].max(initial=0.0))
    n_strict = int(np.count_nonzero(signs == 1))
    _record_worst(
        results, "mzi", "transparency-generality", worst, ALGEBRA_TOL,
        f"{n_cfg} transparent configs, random entangled (B,C) inputs", "max amplitude dev",
    )
    if dense:
        _record(
            results, "mzi", "transparency-strict-identity",
            worst_strict <= ALGEBRA_TOL and n_strict > 200,
            f"{n_cfg} transparent configs",
            f"{n_strict} sign +1 configs, max dev {worst_strict:.2e}",
            f"> 200 configs, <= {ALGEBRA_TOL}",
        )

    # one probe photon, vacuum in A and C, through each non-transparent config
    n_cfg = 1000 if dense else 60
    cfgs = [_random_nontransparent(rng) for _ in range(n_cfg)]
    amps = np.zeros((2, 4, 4, n_cfg), dtype=complex)
    amps[0, 1, 0] = 1.0
    deviates = np.abs(mzi._propagate(amps, cfgs) - amps) > 1e-12
    found_all = bool(deviates.any(axis=(0, 1, 2)).all())
    _record(
        results, "mzi", "nontransparent-violation-found", found_all,
        f"{n_cfg} random non-transparent configs",
        "violating input found for each" if found_all else "some config looked transparent",
        "single probe photon deviates",
    )

    n_cfg = 60 if dense else 20
    cfgs, sources, probes = [], [], []
    for _ in range(n_cfg):
        # full draws wider phase and source ranges and both probe kinds
        lo, hi, pa_lo = (0.4, 5.9, 0.05) if dense else (0.5, 5.5, 0.1)
        cfgs.append(random_transparent(rng, phi_chi=float(rng.uniform(lo, hi))))
        sources.append(mzi.NoisySource(float(rng.uniform(pa_lo, 1.0))))
        if dense:
            probes.append(_random_probe(rng))
        else:
            probes.append(mzi.NoisyPhotonProbe(mzi.NoisySource(float(rng.uniform(0.3, 1.0)))))
    outcomes = mzi._run_setups(cfgs, sources, probes)
    impure = [abs(out.purity_given_click - 1.0) for out in outcomes if out.p_click > 1e-9]
    worst_purity = max(impure, default=0.0)
    _record_worst(
        results, "mzi", "click-implies-pure-photon", worst_purity, ALGEBRA_TOL,
        f"{n_cfg} random transparent configs", "max 1-purity",
    )

    sweep = np.linspace(0.02, math.pi - 0.02, 81)
    for probe in (
        mzi.NoisyPhotonProbe(mzi.NoisySource(1.0)),
        mzi.CoherentProbe(1.0),
    ):
        values = [
            mzi.detection_efficiency(
                mzi.transparent_via_angle_sum(float(t), 0.0, 1.0), probe
            )
            for t in sweep
        ]
        best = sweep[int(np.argmax(values))]
        ok = abs(best - math.pi / 4.0) <= (sweep[1] - sweep[0])
        _record(
            results, "mzi", "optimal-splitter-sweep", ok,
            f"probe {type(probe).__name__}, 81-point sweep",
            f"argmax {best:.4f}", f"pi/4 within grid step",
        )

    shots = 1_000_000 if dense else 100_000
    cases = 6 if dense else 3
    ok = True
    worst_z = 0.0
    zero_bad = 0
    totals_ok = True
    for i in range(cases):
        cfg = random_transparent(rng, phi_chi=float(rng.uniform(1.0, 5.0)))
        p_a = float(rng.uniform(0.2, 0.9))
        if i % 2 == 0:
            probe = mzi.NoisyPhotonProbe(mzi.NoisySource(float(rng.uniform(0.4, 1.0))))
        else:
            probe = mzi.CoherentProbe(float(rng.uniform(0.5, 1.5)))
        counts = mzi.sample_shots(
            cfg, mzi.NoisySource(p_a), probe, shots, seed=1000 + i
        )
        zero_bad += counts["click_no_photon"]
        totals_ok = totals_ok and sum(counts.values()) == shots
        expected = mzi.detection_efficiency(cfg, probe) * p_a
        freq = counts["click_and_photon"] / shots
        sigma = math.sqrt(expected * (1.0 - expected) / shots)
        z = abs(freq - expected) / sigma if sigma > 0 else 0.0
        worst_z = max(worst_z, z)
        ok = ok and z <= MC_SIGMAS
    _record(
        results, "mzi", "mc-click-frequency", ok,
        f"{cases} configs x {shots} shots", f"max z {worst_z:.2f}",
        f"<= {MC_SIGMAS} sigma",
    )
    _record(
        results, "mzi", "mc-click-without-photon", zero_bad == 0 and totals_ok,
        f"{cases} configs x {shots} shots",
        f"{zero_bad} events" + ("" if totals_ok else ", counts not summing to shots"),
        "exactly 0",
    )


def _check_loss(results, rng, dense: bool):
    worst = 0.0
    for _ in range(10):
        phi_chi = float(rng.uniform(0.3, 6.0))
        theta1 = float(rng.uniform(0.1, math.pi / 2.0 - 0.1))
        beta = float(rng.uniform(0.3, 3.0))
        cfg = mzi.transparent_via_angle_sum(theta1, 0.0, phi_chi)
        q1, q0 = ls.lossy_click_probs(cfg, beta, ls.LossParams(0.0))
        worst = max(
            worst,
            abs(q1 - mzi.detection_efficiency(cfg, mzi.CoherentProbe(beta))),
            q0,
        )
    _record_worst(
        results, "loss", "lossless-limit-matches-ideal", worst, ALGEBRA_TOL,
        "10 random configs",
    )

    cfg = mzi.transparent_via_angle_sum(math.pi / 4.0, 0.0, 2.0)
    q0 = [
        ls.lossy_click_probs(cfg, 1.5, ls.LossParams(float(pa)))[1]
        for pa in np.append(0.0, np.linspace(0.01, 0.99, 25))
    ]
    ok = q0[0] == 0.0 and min(q0[1:]) > 0.0
    _record(
        results, "loss", "faulty-clicks-iff-absorption", ok,
        "absorption grid at beta=1.5", "q0 > 0 iff p_absorb > 0", "same",
    )

    agree = monotone = True
    for beta in (1.0, 4.0):
        prev = math.inf
        for pa in np.linspace(0.0, 0.95, 30):
            report = ls.lossy_heralded_efficiency(0.4, cfg, beta, ls.LossParams(float(pa)))
            gain = (1.0 - pa) * report.q1 * (1.0 - 0.4) > (0.4 * pa + 0.6) * report.q0
            agree = agree and report.improvement == gain
            monotone = monotone and report.p_prime <= prev + 1e-12
            prev = report.p_prime
    _record(
        results, "loss", "improvement-identity", agree,
        "grid over (beta, p_absorb) at p=0.4",
        "inequality forms agree", "same",
    )
    _record(
        results, "loss", "heralded-efficiency-monotone-in-loss", monotone,
        "grid over (beta, p_absorb)", "non-increasing", "non-increasing",
    )

    def bound(phi_chi, beta_sq):
        c = mzi.transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
        return ls.max_tolerable_loss(c, math.sqrt(beta_sq))

    strong = ls.REFERENCE_LOSS_BOUNDS[:3]
    worst = max(abs(bound(phi_chi, beta_sq) - ref) for phi_chi, beta_sq, ref in strong)
    _record(
        results, "loss", "tolerable-loss-reference-values", worst <= 0.05,
        "strong-phase rows", f"max |dev| {worst:.3f}", "<= 0.05",
    )

    if dense:
        # the references' criterion is unstated: deviations are reported,
        # only a proper bound strictly inside (0, 1) is enforced
        weak = [(b, bound(p, b), ref) for p, b, ref in ls.REFERENCE_LOSS_BOUNDS[3:]]
        rows = [f"beta_sq={b:g}: computed {pa:.4f} vs ref {ref}" for b, pa, ref in weak]
        _record(
            results, "loss", "weak-phase-bounds-reported",
            all(0.0 < pa < 1.0 for _, pa, _ in weak),
            "weak-phase rows, reference deviation not enforced",
            "; ".join(rows), "0 < bound < 1",
        )


def _check_cascade(results, rng, dense: bool):
    worst = 0.0
    if dense:
        grid = [(a, phi) for a in (0.5, 4.0, 25.0) for phi in (0.7, math.pi / 2.0, 2.8)]
    else:
        grid = [(2.0, 1.2), (5.0, math.pi / 2.0), (25.0, 2.6)]
    for alpha_sq, phi_chi in grid:
        # setup by setup through the interferometer: a photon-bearing setup
        # clicks with -expm1(-|c beta|^2) and passes b beta on to the next
        setup = mzi.transparent_via_angle_sum(math.pi / 4.0, 0.0, phi_chi)
        b, c = mzi.coherent_outputs(setup, 1.0, True)
        alpha = math.sqrt(alpha_sq)
        beta, survive, recursion = alpha, 1.0, []
        for _ in range(100):
            recursion.append(survive * -math.expm1(-abs(c * beta) ** 2))
            survive *= math.exp(-abs(c * beta) ** 2)
            beta *= b
        closed = [casc.reused_probe_pn(n, alpha, phi_chi) for n in range(1, 101)]
        worst = max(worst, float(np.max(np.abs(np.subtract(recursion, closed)))))
    _record_worst(
        results, "cascade", "reused-closed-form-vs-recursion", worst, ALGEBRA_TOL,
        f"N=100, {len(grid)} parameter points",
    )

    worst = 0.0
    n_max = 12 if dense else 8
    if dense:
        axes = ((0.25, 0.5, 0.9), (1.0, 4.0, 9.0), (0.7, math.pi / 2.0, 2.4))
    else:
        axes = ((0.3, 0.8), (1.0, 4.0), (0.8, math.pi / 2.0))
    points = [(p, a, phi) for p in axes[0] for a in axes[1] for phi in axes[2]]
    for p, alpha_sq, phi_chi in points:
        cfg = casc.CascadeConfig("shared_probe", n_max, math.sqrt(alpha_sq), phi_chi, p)
        sim = casc.simulate_cascade(cfg)
        closed = [
            casc.shared_probe_pn(n, cfg.alpha, phi_chi, p) for n in range(1, n_max + 1)
        ]
        worst = max(worst, float(np.max(np.abs(sim.per_setup - closed))))
    _record_worst(
        results, "cascade", "shared-closed-form-vs-enumeration", worst, CLOSED_FORM_TOL,
        f"N={n_max}, {len(points)} parameter points",
    )

    total = casc.reused_probe_total(100, 5.0, math.pi / 2.0, 0.6)
    _record(
        results, "cascade", "reused-limit-approaches-p", abs(total - 0.6) <= 1e-6,
        "N=100, |alpha|^2=25, phi_chi=pi/2, p=0.6", f"{total:.9f}", "0.6 +- 1e-6",
    )
    total2 = casc.shared_probe_total(100, 5.0, math.pi / 2.0, 0.3)
    _record(
        results, "cascade", "shared-limit-approaches-one", total2 >= 0.999,
        "N=100, |alpha|^2=25, phi_chi=pi/2, p=0.3", f"{total2:.6f}", ">= 0.999",
    )

    sweeps = (
        [casc.reused_probe_total(n, 1.5, 1.0, 0.5) for n in (1, 2, 5, 10, 30)],
        [casc.shared_probe_total(8, a, 1.0, 0.5) for a in (0.5, 1.0, 2.0, 4.0)],
    )
    monotone = all(b >= a - 1e-15 for v in sweeps for a, b in zip([0.0] + v, v))
    _record(
        results, "cascade", "totals-monotone", monotone,
        "N and alpha sweeps", "non-decreasing", "non-decreasing",
    )

    shots = 100_000 if dense else 20_000
    cfg = casc.CascadeConfig("shared_probe", 6, 1.2, math.pi / 2.0, 0.5)
    mc = casc.simulate_cascade(cfg, shots=shots, seed=77)
    closed = np.array(
        [casc.shared_probe_pn(n, cfg.alpha, cfg.phi_chi, cfg.p) for n in range(1, 7)]
    )
    sigma = np.sqrt(np.maximum(closed * (1.0 - closed), 1e-12) / shots)
    worst_z = float(np.max(np.abs(mc.per_setup - closed) / sigma))
    _record(
        results, "cascade", "mc-first-click-histogram", worst_z <= MC_SIGMAS,
        f"{shots} shots", f"max z {worst_z:.2f}", f"<= {MC_SIGMAS} sigma",
    )


def run_suite(suite: str = "fast", modules: list[str] | None = None) -> list[CheckResult]:
    """Run the invariant checks; ``suite`` is ``fast`` or ``full``."""
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    dense = suite == "full"
    results: list[CheckResult] = []
    groups = {
        "elements": _check_elements,
        "mzi": _check_mzi,
        "loss": _check_loss,
        "cascade": _check_cascade,
    }
    # index 0 seeded the retired ``fock`` group, which now selects nothing
    for index, (name, group) in enumerate(groups.items(), start=1):
        if modules is None or name in modules:
            # one generator per group, so a group run alone replays its draws
            rng = np.random.default_rng((20250515, index))
            try:
                group(results, rng, dense)
            except Exception as exc:  # a crashed check is a failed check
                _record(
                    results, name, "check-group-crashed", False,
                    observed=f"{type(exc).__name__}: {exc}", expected="no exception",
                )
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
