"""Acceptance suite: every exit criterion at its stated size and tolerance.

Criteria 1-7 are named checks of ``verify --suite full``, run once; each test
asserts its checks passed and prints one PASS line (see them with ``-v -s``).
"""

import time

import pytest

from xpmherald.cli import main
from xpmherald.experiments import ExperimentConfig, run_experiment
from xpmherald.verify import run_suite

GROUPS = ("elements", "mzi", "loss", "cascade")

# the module/name checks each criterion needs, and the time limits it sets
CRITERIA = {
    1: ["mzi/zero-false-click"],
    2: ["mzi/click-implies-pure-photon", "mzi/mc-click-without-photon"],
    3: ["mzi/closed-form-vs-exact-noisy", "mzi/noisy-exact-peak-at-quarter-pi"],
    4: ["mzi/closed-form-vs-exact-coherent", "mzi/coherent-curve-at-optimal-splitter"],
    5: ["mzi/transparency-generality", "mzi/transparency-strict-identity",
        "mzi/nontransparent-violation-found"],
    6: ["loss/tolerable-loss-reference-values", "loss/weak-phase-bounds-reported"],
    7: ["cascade/reused-closed-form-vs-recursion",
        "cascade/shared-closed-form-vs-enumeration",
        "cascade/reused-limit-approaches-p", "cascade/shared-limit-approaches-one"],
}
TIME_LIMITS = {1: ("mzi", 30.0), 6: ("loss", 10.0)}


@pytest.fixture(scope="module")
def full_suite():
    """The full suite, one group at a time: checks by name, seconds by group."""
    checks, seconds = {}, {}
    for group in GROUPS:
        start = time.perf_counter()
        for r in run_suite("full", modules=[group]):
            checks.setdefault(f"{r.module}/{r.name}", []).append(r)
        seconds[group] = time.perf_counter() - start
    return checks, seconds


def assert_criterion(number, full_suite):
    checks, seconds = full_suite
    lines = []
    for key in CRITERIA[number]:
        assert checks.get(key), f"{key} missing from the full verify report"
        for r in checks[key]:
            assert r.passed, r.line()
            lines.append(r.line())
    if number in TIME_LIMITS:
        group, limit = TIME_LIMITS[number]
        assert seconds[group] < limit
        lines.append(f"{group} group in {seconds[group]:.1f} s (< {limit:g} s)")
    print(f"ACCEPTANCE {number} PASS: " + "; ".join(lines))


def test_acceptance_1_zero_false_click(full_suite):
    assert_criterion(1, full_suite)


def test_acceptance_2_heralded_purity(full_suite):
    assert_criterion(2, full_suite)


def test_acceptance_3_closed_form_noisy_grid(full_suite):
    assert_criterion(3, full_suite)


def test_acceptance_4_closed_form_coherent(full_suite):
    assert_criterion(4, full_suite)


def test_acceptance_5_transparency_generality(full_suite):
    assert_criterion(5, full_suite)


def test_acceptance_6_loss_bounds(full_suite):
    assert_criterion(6, full_suite)


def test_acceptance_7_cascade_audit(full_suite):
    assert_criterion(7, full_suite)


def test_acceptance_8_determinism_and_performance(tmp_path, capsys):
    start = time.perf_counter()
    exit_code = main(["verify", "--suite", "fast"])
    elapsed = time.perf_counter() - start
    assert exit_code == 0
    assert elapsed < 60.0

    for experiment, params, seed in (
        ("purity-audit", {"shots": 30_000}, 42),
        ("fig4", {"phi_chi_points": 40}, None),
    ):
        runs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / f"{experiment}-{name}"
            run_experiment(ExperimentConfig(experiment, params, seed, out=str(out)))
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
    print(
        f"ACCEPTANCE 8 PASS: verify fast suite exit 0 in {elapsed:.1f} s; "
        f"identical seeds give bit-identical CSVs"
    )


# every check of each suite as (module/name, params, expected), in report
# order: a refactor of verify may not rename, resize or drop one unnoticed
FAST_INVENTORY = [
    (
        'elements/classical-vs-exact-path',
        '5 random configs, |beta| <= 1.3, signal 0 and 1',
        '<= 1e-08',
    ),
    ('mzi/zero-false-click', '120 random transparent configs, vacuum signal', '< 1e-12'),
    ('mzi/closed-form-vs-exact-noisy', '15x15 (theta1, phi_chi) grid', '<= 1e-10'),
    ('mzi/closed-form-vs-exact-coherent', 'beta in (1.0,), 8x8 grid', '<= 0'),
    (
        'mzi/transparency-generality',
        '60 transparent configs, random entangled (B,C) inputs',
        '<= 1e-12',
    ),
    (
        'mzi/nontransparent-violation-found',
        '60 random non-transparent configs',
        'single probe photon deviates',
    ),
    ('mzi/click-implies-pure-photon', '20 random transparent configs', '<= 1e-12'),
    (
        'mzi/optimal-splitter-sweep',
        'probe NoisyPhotonProbe, 81-point sweep',
        'pi/4 within grid step',
    ),
    ('mzi/optimal-splitter-sweep', 'probe CoherentProbe, 81-point sweep', 'pi/4 within grid step'),
    ('mzi/mc-click-frequency', '3 configs x 100000 shots', '<= 4.0 sigma'),
    ('mzi/mc-click-without-photon', '3 configs x 100000 shots', 'exactly 0'),
    ('loss/lossless-limit-matches-ideal', '10 random configs', '<= 1e-12'),
    ('loss/faulty-clicks-iff-absorption', 'absorption grid at beta=1.5', 'same'),
    ('loss/improvement-identity', 'grid over (beta, p_absorb) at p=0.4', 'same'),
    ('loss/heralded-efficiency-monotone-in-loss', 'grid over (beta, p_absorb)', 'non-increasing'),
    ('loss/tolerable-loss-reference-values', 'strong-phase rows', '<= 0.05'),
    ('cascade/reused-closed-form-vs-recursion', 'N=100, 3 parameter points', '<= 1e-12'),
    ('cascade/shared-closed-form-vs-enumeration', 'N=8, 8 parameter points', '<= 1e-10'),
    (
        'cascade/reused-limit-approaches-p',
        'N=100, |alpha|^2=25, phi_chi=pi/2, p=0.6',
        '0.6 +- 1e-6',
    ),
    (
        'cascade/shared-limit-approaches-one',
        'N=100, |alpha|^2=25, phi_chi=pi/2, p=0.3',
        '>= 0.999',
    ),
    ('cascade/totals-monotone', 'N and alpha sweeps', 'non-decreasing'),
    ('cascade/mc-first-click-histogram', '20000 shots', '<= 4.0 sigma'),
]
FULL_INVENTORY = [
    (
        'elements/classical-vs-exact-path',
        '10 random configs, |beta| <= 1.3, signal 0 and 1',
        '<= 1e-08',
    ),
    ('mzi/zero-false-click', '1000 random transparent configs, vacuum signal', '< 1e-12'),
    ('mzi/closed-form-vs-exact-noisy', '50x50 (theta1, phi_chi) grid', '<= 1e-10'),
    (
        'mzi/noisy-exact-peak-at-quarter-pi',
        '46 phi_chi columns with sin^2(phi_chi/2) > 1e-2',
        'argmax theta1 = pi/4 in each',
    ),
    ('mzi/closed-form-vs-exact-coherent', 'beta in (0.5, 1.0, 2.0), 13x13 grid', '<= 0'),
    (
        'mzi/coherent-curve-at-optimal-splitter',
        'theta1 = pi/4, beta in (0.5, 1.0, 2.0)',
        '< 1e-12, pi, increasing to > 0.98',
    ),
    (
        'mzi/transparency-generality',
        '1000 transparent configs, random entangled (B,C) inputs',
        '<= 1e-12',
    ),
    ('mzi/transparency-strict-identity', '1000 transparent configs', '> 200 configs, <= 1e-12'),
    (
        'mzi/nontransparent-violation-found',
        '1000 random non-transparent configs',
        'single probe photon deviates',
    ),
    ('mzi/click-implies-pure-photon', '60 random transparent configs', '<= 1e-12'),
    (
        'mzi/optimal-splitter-sweep',
        'probe NoisyPhotonProbe, 81-point sweep',
        'pi/4 within grid step',
    ),
    ('mzi/optimal-splitter-sweep', 'probe CoherentProbe, 81-point sweep', 'pi/4 within grid step'),
    ('mzi/mc-click-frequency', '6 configs x 1000000 shots', '<= 4.0 sigma'),
    ('mzi/mc-click-without-photon', '6 configs x 1000000 shots', 'exactly 0'),
    ('loss/lossless-limit-matches-ideal', '10 random configs', '<= 1e-12'),
    ('loss/faulty-clicks-iff-absorption', 'absorption grid at beta=1.5', 'same'),
    ('loss/improvement-identity', 'grid over (beta, p_absorb) at p=0.4', 'same'),
    ('loss/heralded-efficiency-monotone-in-loss', 'grid over (beta, p_absorb)', 'non-increasing'),
    ('loss/tolerable-loss-reference-values', 'strong-phase rows', '<= 0.05'),
    (
        'loss/weak-phase-bounds-reported',
        'weak-phase rows, reference deviation not enforced',
        '0 < bound < 1',
    ),
    ('cascade/reused-closed-form-vs-recursion', 'N=100, 9 parameter points', '<= 1e-12'),
    ('cascade/shared-closed-form-vs-enumeration', 'N=12, 27 parameter points', '<= 1e-10'),
    (
        'cascade/reused-limit-approaches-p',
        'N=100, |alpha|^2=25, phi_chi=pi/2, p=0.6',
        '0.6 +- 1e-6',
    ),
    (
        'cascade/shared-limit-approaches-one',
        'N=100, |alpha|^2=25, phi_chi=pi/2, p=0.3',
        '>= 0.999',
    ),
    ('cascade/totals-monotone', 'N and alpha sweeps', 'non-decreasing'),
    ('cascade/mc-first-click-histogram', '100000 shots', '<= 4.0 sigma'),
]


def test_verify_fast_inventory_pinned():
    results = run_suite("fast")
    assert [(f"{r.module}/{r.name}", r.params, r.expected) for r in results] == FAST_INVENTORY
    failed = [r.line() for r in results if not r.passed]
    assert not failed


def test_verify_full_inventory_pinned(full_suite):
    checks, _ = full_suite
    rows = [(key, r.params, r.expected) for key, found in checks.items() for r in found]
    assert rows == FULL_INVENTORY
    failed = [r.line() for found in checks.values() for r in found if not r.passed]
    assert not failed
