"""Acceptance suite: every exit criterion at its stated size and tolerance.

Criteria 1-7 are named checks of ``verify --suite full``, run once; each test
asserts its checks passed and prints one PASS line (see them with ``-v -s``).
"""

import time

import pytest

from xpmherald.cli import main
from xpmherald.experiments import ExperimentConfig, run_experiment
from xpmherald.verify import run_suite

GROUPS = ("fock", "elements", "mzi", "loss", "cascade")

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
