import math
import sys

import numpy as np
import pytest

from xpmherald.elements import (
    BeamSplitterParams,
    XpmParams,
    apply_beam_splitter,
    apply_xpm,
)
from xpmherald.errors import (
    ConditioningError,
    ConfigurationError,
    CutoffViolationError,
    ModeMismatchError,
    TruncationError,
)
from xpmherald.fock import (
    CERTIFIABLE_TAIL,
    MAX_AUTO_CUTOFF,
    Ensemble,
    MultiModeKet,
    TruncationPolicy,
    _poisson_weights,
    condition,
    make_coherent,
    make_fock,
    mode_number_distribution,
    tensor,
)
from xpmherald.verify import random_ket


def poisson_tail(mean, n_max):
    # independent tail sum used as oracle for cutoff selection
    term = math.exp(-mean)
    cum = term
    for k in range(1, n_max + 1):
        term *= mean / k
        cum += term
    return 1.0 - cum


def test_make_fock_basis_state():
    ket = make_fock((1, 0, 0), (1, 1, 1))
    assert math.sqrt(ket.squared_norm()) == 1.0
    assert ket.amps[1, 0, 0] == 1.0
    assert ket.amps[0, 1, 0] == 0.0


def test_make_fock_vacuum():
    ket = make_fock((0, 0, 0), (2, 2, 2))
    assert math.sqrt(ket.squared_norm()) == 1.0
    assert ket.amps[0, 0, 0] == 1.0


def test_make_fock_cutoff_violation():
    with pytest.raises(CutoffViolationError):
        make_fock((2, 3), (1, 3))


def test_super_normalized_rejected():
    with pytest.raises(ValueError):
        MultiModeKet(np.array([1.0, 0.1]))


def test_non_finite_amplitudes_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            MultiModeKet(np.array([bad, 0.0]))


def test_cutoffs_read_off_shape_and_empty_axis_rejected():
    ket = MultiModeKet(np.zeros((3, 2)))
    assert ket.cutoffs == (2, 1) and ket.amps.ndim == 2
    for shape in ((0,), (2, 0, 3)):
        with pytest.raises(CutoffViolationError):
            MultiModeKet(np.zeros(shape))


def test_amplitudes_are_read_only():
    ket = make_fock((1, 0), (1, 1))
    with pytest.raises(ValueError):
        ket.amps[0, 0] = 1.0


def test_coherent_beta_zero_is_vacuum():
    ket = make_coherent(0.0)
    assert ket.cutoffs == (0,)
    assert ket.amps[0] == 1.0


def test_coherent_amplitudes_and_minimal_cutoff():
    eps = 1e-10
    ket = make_coherent(1.0, TruncationPolicy(tail_tolerance=eps))
    n_max = ket.cutoffs[0]
    assert poisson_tail(1.0, n_max) < eps
    assert poisson_tail(1.0, n_max - 1) >= eps  # minimality
    assert ket.amps[0] == pytest.approx(math.exp(-0.5), abs=1e-15)
    for n in range(n_max + 1):
        expected = math.exp(-0.5) / math.sqrt(math.factorial(n))
        assert ket.amps[n] == pytest.approx(expected, rel=1e-12)


def two_pass_coherent(beta, tol):
    """The two-pass truncated coherent state that make_coherent builds in
    one pass: the cutoff from a running Poisson sum, then the amplitudes by
    their recurrence.  Returns the amplitudes, or the tail mass the
    TruncationError carries when no cutoff qualifies."""
    if tol < CERTIFIABLE_TAIL:
        return CERTIFIABLE_TAIL
    beta = complex(beta)
    mean = abs(beta) ** 2
    term = cum = math.exp(-mean)
    if cum < sys.float_info.min:  # exp(-mean) underflows: no cutoff is trusted
        return 1.0
    n_max = 0
    if mean != 0.0:
        for n_max in range(MAX_AUTO_CUTOFF + 1):
            if 1.0 - cum < tol:
                break
            term *= mean / (n_max + 1)
            cum += term
        else:
            return max(0.0, 1.0 - cum)
    amps = np.empty(n_max + 1, dtype=np.complex128)
    a = complex(math.exp(-mean / 2.0))
    amps[0] = a
    for n in range(1, n_max + 1):
        a = a * beta / math.sqrt(n)
        amps[n] = a
    return amps


def test_coherent_one_pass_equals_two_pass_oracle():
    # the vacuum, a complex amplitude, the bright-probe threshold |beta|^2 =
    # 16, tolerances at and below the certification floor, a mean whose
    # cutoff would pass MAX_AUTO_CUTOFF, then seeded random draws
    cases = [(0.0, 1e-10), (1.5 - 0.7j, 1e-10), (4.0, 1e-10), (4.0, 1e-15), (2.0, 1e-16)]
    cases.append((math.sqrt(1e5), 1e-10))
    rng = np.random.default_rng(43)
    for _ in range(60):
        beta = complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))
        cases.append((beta, float(10.0 ** rng.uniform(-15.0, -0.5))))
    raised = 0
    for beta, tol in cases:
        expected = two_pass_coherent(beta, tol)
        if isinstance(expected, float):
            with pytest.raises(TruncationError) as err:
                make_coherent(beta, TruncationPolicy(tol))
            assert err.value.tail == expected, (beta, tol)
            raised += 1
        else:
            amps = make_coherent(beta, TruncationPolicy(tol)).amps
            assert amps.dtype == expected.dtype and np.array_equal(amps, expected), (beta, tol)
    assert raised == 2


def test_coherent_underflow_fails_at_once():
    # exp(-27.5^2) underflows to 0, so the Poisson sum can never grow, and
    # exp(-27.0^2) and exp(-27.2^2) are subnormal, so a sum of terms of a
    # few significant bits overshoots 1 and would stop with a true tail of
    # 1.0e-8 and 2.5e-3: the error names the underflow and the classical
    # path, with tail 1, instead of claiming that no cutoff up to
    # MAX_AUTO_CUTOFF meets the tolerance
    for beta in (27.5, 27.0, 27.2):
        with pytest.raises(TruncationError) as err:
            make_coherent(beta)
        assert err.value.tail == 1.0
        assert "underflows" in str(err.value) and "classical" in str(err.value)
        assert str(MAX_AUTO_CUTOFF) not in str(err.value)


def test_last_normal_start_meets_the_tolerance():
    # exp(-708) is still a normal float: the cutoff 884 has a true Poisson
    # tail below the 1e-10 asked (8.35e-11 by a 40-digit sum)
    mp = pytest.importorskip("mpmath")
    terms, _ = _poisson_weights(708.0)
    assert len(terms) - 1 == make_coherent(math.sqrt(708.0)).cutoffs[0] == 884
    with mp.workdps(40):
        mean = mp.mpf(708)
        tail = 1 - mp.fsum(mp.exp(-mean) * mean**n / mp.factorial(n) for n in range(885))
    assert tail < 1e-10


def scalar_poisson_weights(mean, tol):
    """The Poisson terms up to the first cutoff whose tail 1 - sum is below
    tol, and that sum, by the scalar loop make_coherent ran before the
    cutoff rule moved into fock._poisson_weights, with a subnormal
    exp(-mean) an underflow; or the tail the TruncationError carries."""
    if tol < CERTIFIABLE_TAIL:
        return CERTIFIABLE_TAIL
    term = cum = math.exp(-mean)
    terms = [term]
    for n in range(1, MAX_AUTO_CUTOFF + 2 if cum >= sys.float_info.min else 0):
        if 1.0 - cum < tol:
            return terms, cum
        term *= mean / n
        cum += term
        terms.append(term)
    return max(0.0, 1.0 - cum)


def test_poisson_weights_equal_the_scalar_loop_bit_for_bit():
    # the one cutoff rule: weights, cutoff and running sum of the numpy
    # accumulations equal the scalar loop's bit for bit on a dense grid of
    # the click law's means at the default tolerance, then on seeded large
    # means and tolerances, where the sum can stall short of 1 - tol (no
    # cutoff up to MAX_AUTO_CUTOFF) or exp(-mean) is subnormal or 0
    cases = [(float(mean), 1e-10) for mean in np.linspace(0.0, 16.0, 3201)]
    rng = np.random.default_rng(53)
    for _ in range(400):
        cases.append((float(10.0 ** rng.uniform(-6.0, 4.0)), float(10.0 ** rng.uniform(-15.0, -0.5))))
    for _ in range(200):
        cases.append((float(rng.uniform(16.0, 745.0)), float(rng.uniform(1e-15, 1.2e-15))))
    cases += [(740.0, 1e-10), (1e5, 1e-10), (2.0, 1e-16)]
    kinds = set()
    for mean, tol in cases:
        expected = scalar_poisson_weights(mean, tol)
        if isinstance(expected, float):
            with pytest.raises(TruncationError) as err:
                _poisson_weights(mean, TruncationPolicy(tol))
            assert err.value.tail == expected, (mean, tol)
            kinds.add(str(err.value).split()[0])
            continue
        terms, total = _poisson_weights(mean, TruncationPolicy(tol))
        assert terms.dtype == np.float64 and terms.tobytes() == np.array(expected[0]).tobytes()
        assert total == expected[1], (mean, tol)
    assert kinds == {"tail", "no", "exp(-|beta|^2)"}  # the certification floor, no cutoff, underflow
    # make_coherent truncates where the weights do
    for beta in (0.0, 0.3 - 2.0j, 4.0, 12.0):
        mean = abs(complex(beta)) ** 2
        assert make_coherent(beta).cutoffs == (len(_poisson_weights(mean)[0]) - 1,)


def test_coherent_amplitude_recurrence():
    beta = 2.0j
    ket = make_coherent(beta)
    for n in range(ket.cutoffs[0]):
        ratio = ket.amps[n + 1] / ket.amps[n]
        assert ratio == pytest.approx(beta / math.sqrt(n + 1), rel=1e-12)


def test_coherent_not_renormalized():
    ket = make_coherent(2.0, TruncationPolicy(tail_tolerance=1e-6))
    deficit = 1.0 - ket.squared_norm()
    assert 0.0 < deficit < 1e-6


def test_truncation_policy_rejects_bad_values():
    for tail in (math.nan, 0.0, 1.0, -1e-3, math.inf):
        with pytest.raises(ConfigurationError):
            TruncationPolicy(tail_tolerance=tail)


@pytest.mark.parametrize("mode", [2, -1, 5, 0.0])
@pytest.mark.parametrize(
    "apply",
    [
        lambda ket, mode: mode_number_distribution(ket, mode),
        lambda ket, mode: condition(Ensemble([(1.0, ket)]), mode, "at_least_one"),
        lambda ket, mode: apply_xpm(ket, (0, mode), XpmParams(1.0)),
        lambda ket, mode: apply_beam_splitter(
            ket, (0, mode), BeamSplitterParams(0.3, 0.2)
        ),
    ],
    ids=[
        "mode_number_distribution",
        "condition",
        "apply_xpm",
        "apply_beam_splitter",
    ],
)
def test_mode_outside_ket_rejected(apply, mode):
    # modes 2, -1 and 5 name no mode of a two-mode ket, and 0.0
    # is no integer index
    ket = make_fock((1, 0), (1, 1))
    with pytest.raises(ModeMismatchError, match="outside"):
        apply(ket, mode)


def test_unknown_event_rejected():
    # a threshold detector has two events; any other name is an error that
    # names it, not a silent click
    ket = make_fock((1, 0), (1, 1))
    with pytest.raises(ValueError, match="bogus"):
        condition(Ensemble([(1.0, ket)]), 0, "bogus")


def test_tensor_product_basis():
    ket = tensor([make_fock((1,), (1,)), make_fock((0,), (1,))])
    assert ket.amps[1, 0] == 1.0
    assert ket.cutoffs == (1, 1)


def test_tensor_bilinearity():
    a, g = 0.6, 0.8
    left = MultiModeKet(np.array([a, g]))
    ket = tensor([left, make_fock((1,), (1,))])
    assert ket.amps[0, 1] == pytest.approx(a)
    assert ket.amps[1, 1] == pytest.approx(g)


def test_tensor_norm_is_product_of_norms():
    rng = np.random.default_rng(7)
    for _ in range(40):
        k1 = random_ket(rng, (2, 2))
        k2 = random_ket(rng, (3,))
        assert math.sqrt(tensor([k1, k2]).squared_norm()) == pytest.approx(
            math.sqrt(k1.squared_norm()) * math.sqrt(k2.squared_norm()), abs=1e-12
        )


def test_coherent_fock_projections():
    # <n|beta> at a complex amplitude, each number state's projection
    beta = 0.7 + 0.3j
    coh = make_coherent(beta)
    for n in range(5):
        expected = math.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n))
        assert coh.amps[n] == pytest.approx(expected, rel=1e-12)


def test_mode_number_distribution_basis():
    ket = make_fock((0, 1), (1, 1))
    assert np.allclose(mode_number_distribution(ket, 1), [0.0, 1.0])


def test_mode_number_distribution_poisson():
    eps = 1e-10
    for beta in (0.5, 1.0 + 0.5j, 2.0):
        ket = make_coherent(beta, TruncationPolicy(tail_tolerance=eps))
        dist = mode_number_distribution(ket, 0)
        mean = abs(beta) ** 2
        term = math.exp(-mean)
        for n in range(len(dist)):
            # distribution renormalizes by the (sub-unit) ket norm
            assert dist[n] * ket.squared_norm() == pytest.approx(term, abs=eps)
            term *= mean / (n + 1)


def test_mode_number_distribution_superposition():
    amp = 1.0 / math.sqrt(2.0)
    ket = MultiModeKet(np.array([[0.0, amp], [amp, 0.0]]))
    assert np.allclose(mode_number_distribution(ket, 0), [0.5, 0.5])


def test_condition_certain_click():
    ens = Ensemble([(1.0, make_fock((0, 0, 1), (1, 1, 1)))])
    prob, post = condition(ens, 2, "at_least_one")
    assert prob == pytest.approx(1.0)
    assert post.branches[0][1].amps[0, 0, 1] == pytest.approx(1.0)


def test_condition_projects_and_renormalizes():
    rng = np.random.default_rng(13)
    ket = random_ket(rng, (1, 2, 3))
    for event, keep in (("zero", slice(0, 1)), ("at_least_one", slice(1, None))):
        prob, post = condition(Ensemble([(1.0, ket)]), 2, event)
        expected = np.zeros_like(ket.amps)
        expected[:, :, keep] = ket.amps[:, :, keep]
        assert prob == pytest.approx(np.sum(np.abs(ket.amps[:, :, keep]) ** 2), abs=1e-15)
        assert prob == pytest.approx(np.sum(np.abs(expected) ** 2), abs=1e-12)
        out = post.branches[0][1].amps
        assert np.max(np.abs(out - expected / math.sqrt(prob))) <= 1e-12


def test_condition_mixed_branches():
    ens = Ensemble(
        [(0.5, make_fock((0,), (1,))), (0.5, make_fock((1,), (1,)))]
    )
    prob, post = condition(ens, 0, "zero")
    assert prob == pytest.approx(0.5)
    assert len(post.branches) == 1
    assert post.branches[0][1].amps[0] == pytest.approx(1.0)


def test_condition_coherent_click_probability():
    gamma = 0.8
    ens = Ensemble([(1.0, make_coherent(gamma))])
    prob, _ = condition(ens, 0, "at_least_one")
    assert prob == pytest.approx(1.0 - math.exp(-abs(gamma) ** 2), abs=1e-10)


def test_condition_complementarity():
    rng = np.random.default_rng(11)
    for _ in range(40):
        weights = rng.dirichlet(np.ones(3))
        ens = Ensemble(
            [(float(w), random_ket(rng, (1, 2))) for w in weights]
        )
        p0, _ = condition(ens, 1, "zero")
        p1, _ = condition(ens, 1, "at_least_one")
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_condition_zero_probability_event():
    ens = Ensemble([(1.0, make_fock((0,), (1,)))])
    with pytest.raises(ConditioningError):
        condition(ens, 0, "at_least_one")
