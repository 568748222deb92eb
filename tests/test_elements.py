import math

import numpy as np
import pytest

import xpmherald.elements as el
from xpmherald.elements import (
    BeamSplitterParams,
    XpmParams,
    apply_beam_splitter,
    apply_xpm,
)
from xpmherald.errors import ConfigurationError, CutoffViolationError
from xpmherald.fock import MultiModeKet, make_fock, mode_number_distribution
from xpmherald.mzi import MziConfig, coherent_outputs
from xpmherald.verify import random_ket, random_transparent

SQRT2 = math.sqrt(2.0)


def bs_matrix(p):
    """The splitter's substitution matrix, ``el._bs_entries`` as an array."""
    return np.array(el._bs_entries(p), dtype=complex)


def binomial_block(u, n, m):
    """Test-only oracle for one splitter input: the output amplitudes of
    |n, m> as {(p, q): amplitude}, by binomial expansion of the substituted
    creation-operator product
    (u00 b1+ + u01 b2+)^n (u10 b1+ + u11 b2+)^m / sqrt(n! m!) |0>.
    The normalization ratio sqrt(p! q! / (n! m!)) is evaluated as a
    binomial ratio so it stays finite where raw factorials overflow."""
    t1, r1 = u[0, 0], u[0, 1]
    r2, t2 = u[1, 0], u[1, 1]
    total = n + m
    out = {}
    for k in range(n + 1):
        c_nk = math.comb(n, k) * t1**k * r1 ** (n - k)
        for l in range(m + 1):
            coeff = c_nk * math.comb(m, l) * r2**l * t2 ** (m - l)
            p, q = k + l, (n - k) + (m - l)
            out[(p, q)] = out.get((p, q), 0.0 + 0.0j) + coeff
    return {
        (p, q): coeff * math.sqrt(math.comb(total, n) / math.comb(total, p))
        for (p, q), coeff in out.items()
    }


def dense_bs_unitary(theta, phi, cutoff):
    """Independent oracle: exponentiate the two-mode quadratic generator.

    Exact on every total-photon sector that fits the cutoff, because the
    generator conserves photon number.
    """
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    eye = np.eye(d)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    gen = np.exp(1j * phi) * (a1.conj().T @ a2) - np.exp(-1j * phi) * (
        a2.conj().T @ a1
    )
    herm = 1j * gen
    w, v = np.linalg.eigh(herm)
    return v @ np.diag(np.exp(1j * theta * w)) @ v.conj().T


def max_dev(a, b):
    return float(np.max(np.abs(a - b)))


def test_single_photon_splits_evenly():
    ket = make_fock((1, 0), (1, 1))
    out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(math.pi / 4.0, 0.0))
    assert out.amps[1, 0] == pytest.approx(1.0 / SQRT2, abs=1e-15)
    assert out.amps[0, 1] == pytest.approx(1.0 / SQRT2, abs=1e-15)


def test_theta_zero_is_identity():
    rng = np.random.default_rng(2)
    ket = random_ket(rng, (3, 3), max_total=3)
    out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(0.0, 1.3))
    assert max_dev(out.amps, ket.amps) <= 1e-15


def test_two_photon_bunching():
    # both photons leave together; derived by expanding the substituted
    # creation operators on vacuum
    ket = make_fock((1, 1), (2, 2))
    out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(math.pi / 4.0, 0.0))
    assert out.amps[0, 2] == pytest.approx(1.0 / SQRT2, abs=1e-14)
    assert out.amps[2, 0] == pytest.approx(-1.0 / SQRT2, abs=1e-14)
    assert abs(out.amps[1, 1]) < 1e-14


def test_beam_splitter_matches_dense_exponential_oracle():
    rng = np.random.default_rng(42)
    cutoff = 4
    for _ in range(12):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        ket = random_ket(rng, (cutoff, cutoff), max_total=cutoff)
        out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(theta, phi))
        dense_out = dense_bs_unitary(theta, phi, cutoff) @ ket.amps.ravel()
        assert max_dev(out.amps.ravel(), dense_out) <= 1e-10


def test_beam_splitter_norm_preserved():
    rng = np.random.default_rng(9)
    for _ in range(40):
        ket = random_ket(rng, (4, 4), max_total=4)
        out = apply_beam_splitter(
            ket,
            (0, 1),
            BeamSplitterParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 7))),
        )
        assert out.squared_norm() == pytest.approx(ket.squared_norm(), abs=1e-12)


def test_beam_splitter_inverse_roundtrip():
    # the inverse map is the same splitter with negated mixing angle
    rng = np.random.default_rng(31)
    for _ in range(40):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        ket = random_ket(rng, (4, 4), max_total=4)
        out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(theta, phi))
        back = apply_beam_splitter(out, (0, 1), BeamSplitterParams(-theta, phi))
        assert max_dev(back.amps, ket.amps) <= 1e-12


def test_beam_splitter_reversed_mode_pair():
    # feeding the pair in reverse order is the same element with both
    # angles negated: swap-conjugating the substitution matrix
    rng = np.random.default_rng(57)
    ket = random_ket(rng, (3, 3), max_total=3)
    theta, phi = 0.8, 1.7
    swapped = apply_beam_splitter(ket, (1, 0), BeamSplitterParams(theta, phi))
    direct = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(-theta, -phi))
    assert max_dev(swapped.amps, direct.amps) <= 1e-12


def splitter_block(theta, phi, t):
    """Block U_T[p, n] = <p, T-p|U|n, T-n> read off one splitter call: a
    third mode labels the input n, so every column propagates at once."""
    n = np.arange(t + 1)
    amps = np.zeros((t + 1,) * 3, dtype=complex)
    amps[n, t - n, n] = 1.0 / math.sqrt(t + 1)
    ket = MultiModeKet(amps)
    out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(theta, phi)).amps
    p, q = np.indices(out.shape[:2])
    assert not out[p + q != t].any()
    return out[n, t - n] * math.sqrt(t + 1)


def test_blocks_match_binomial_oracle():
    rng = np.random.default_rng(71)
    for _ in range(8):
        theta = float(rng.uniform(-math.pi, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        u = bs_matrix(BeamSplitterParams(theta, phi))
        for t in range(13):
            expected = np.zeros((t + 1, t + 1), dtype=complex)
            for n in range(t + 1):
                for (p, _), amp in binomial_block(u, n, t - n).items():
                    expected[p, n] = amp
            assert max_dev(splitter_block(theta, phi, t), expected) <= 1e-12


def test_blocks_unitary_to_bright_probe_cutoff():
    rng = np.random.default_rng(72)
    for _ in range(4):
        theta = float(rng.uniform(-math.pi, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        for t in range(48):
            b = splitter_block(theta, phi, t)
            assert max_dev(b @ b.conj().T, np.eye(t + 1)) <= 1e-12


def test_block_cache_serves_any_total(monkeypatch):
    # one 50:50 basis stack answers smaller totals by slicing and is rebuilt
    # for larger ones; either way it equals a fresh build and each block is
    # its own inverse
    monkeypatch.setattr(el, "_hadamard_stack", np.zeros((0, 0, 0)))
    for t_max, built in ((5, 6), (20, 21), (3, 21)):
        blocks = el._hadamard_blocks(t_max)
        assert blocks.shape == (t_max + 1,) * 3
        assert el._hadamard_stack.shape[0] == built
        assert np.array_equal(blocks, el._block_recurrence(el._HADAMARD, t_max))
        for t in range(t_max + 1):
            w = blocks[t, : t + 1, : t + 1]
            assert max_dev(w @ w, np.eye(t + 1)) <= 1e-12


def test_mzi_angles_rebuild_bs_unitary():
    # u = D H diag(e^{i theta}, e^{-i theta}) H D^-1 with D = diag(1, e^{i psi})
    rng = np.random.default_rng(74)
    thetas = [*rng.uniform(-math.pi, math.pi, 200), -3.1, -1e-9, 1e-300]
    for theta in thetas:
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        u = bs_matrix(BeamSplitterParams(float(theta), phi))
        mix, psi = el._mzi_angles(u)
        d = np.diag([1.0, np.exp(1j * psi)])
        lam = np.diag([np.exp(1j * mix), np.exp(-1j * mix)])
        h = el._HADAMARD
        assert max_dev(d @ h @ lam @ h @ d.conj().T, u) <= 1e-15


def test_beam_splitter_on_outer_modes_of_three():
    # the splitter on modes (2, 0) acts on each middle-mode slice alone,
    # as the two-mode splitter on the reversed pair
    rng = np.random.default_rng(73)
    shape = (4, 3, 4)
    vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    n0, _, n2 = np.indices(shape)
    vec[n0 + n2 > 3] = 0.0
    ket = MultiModeKet(vec / np.linalg.norm(vec))
    params = BeamSplitterParams(0.9, 0.4)
    out = apply_beam_splitter(ket, (2, 0), params)
    for k in range(3):
        pair = MultiModeKet(ket.amps[:, k, :].T.copy())
        expected = apply_beam_splitter(pair, (0, 1), params)
        assert max_dev(out.amps[:, k, :].T, expected.amps) <= 1e-15


def test_beam_splitter_handles_large_occupation():
    # normalization weights must not overflow where raw factorials would
    ket = make_fock((180, 0), (180, 180))
    out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(0.7, 0.3))
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-9)


def test_beam_splitter_refuses_to_drop_photons():
    ket = make_fock((1, 1), (1, 1))  # no room for the bunched |2,0> component
    with pytest.raises(CutoffViolationError):
        apply_beam_splitter(ket, (0, 1), BeamSplitterParams(math.pi / 4.0, 0.0))


def test_beam_splitter_cutoff_check_follows_occupied_inputs():
    # |0,2> fits a (2, 2) grid only while nothing is sent to |3,_>; with the
    # identity splitter every coefficient off the diagonal is exactly zero
    ket = make_fock((0, 2), (2, 2))
    out = apply_beam_splitter(ket, (0, 1), BeamSplitterParams(0.0, 0.3))
    assert max_dev(out.amps, ket.amps) == 0.0
    narrow = make_fock((0, 2), (1, 2))
    with pytest.raises(CutoffViolationError):
        apply_beam_splitter(narrow, (0, 1), BeamSplitterParams(0.3, 0.0))
    assert apply_beam_splitter(narrow, (0, 1), BeamSplitterParams(0.0, 0.0)).amps[0, 2] == 1.0


def test_element_parameters_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            BeamSplitterParams(bad, 0.0)
        with pytest.raises(ConfigurationError):
            BeamSplitterParams(0.3, bad)
        with pytest.raises(ConfigurationError):
            XpmParams(bad)


def test_xpm_single_pair_phase():
    ket = make_fock((1, 1), (1, 1))
    phi_chi = 0.9
    out = apply_xpm(ket, (0, 1), XpmParams(phi_chi))
    assert out.amps[1, 1] == pytest.approx(
        complex(math.cos(phi_chi), math.sin(phi_chi)), abs=1e-15
    )


def test_xpm_vacuum_control_does_nothing():
    for m in range(4):
        ket = make_fock((0, m), (1, 3))
        out = apply_xpm(ket, (0, 1), XpmParams(2.3))
        assert out.amps[0, m] == 1.0


def test_xpm_product_of_occupations():
    ket = make_fock((2, 3), (2, 3))
    out = apply_xpm(ket, (0, 1), XpmParams(math.pi / 6.0))
    # n*m = 6 turns pi/6 into a half turn
    assert out.amps[2, 3] == pytest.approx(-1.0, abs=1e-14)


def test_xpm_matches_phase_per_occupation():
    rng = np.random.default_rng(19)
    ket = random_ket(rng, (3, 3), max_total=6)
    phi_chi = 1.1
    out = apply_xpm(ket, (1, 0), XpmParams(phi_chi))
    n, m = np.indices(ket.amps.shape)
    assert max_dev(out.amps, ket.amps * np.exp(1j * phi_chi * n * m)) <= 1e-15


def test_xpm_preserves_number_distributions():
    rng = np.random.default_rng(17)
    for _ in range(40):
        ket = random_ket(rng, (3, 3))
        out = apply_xpm(ket, (0, 1), XpmParams(float(rng.uniform(0.0, 7.0))))
        for mode in (0, 1):
            d_in, d_out = (mode_number_distribution(k, mode) for k in (ket, out))
            assert max_dev(d_in, d_out) <= 1e-12


def test_xpm_working_flag():
    assert XpmParams(0.3).working
    assert not XpmParams(0.0).working
    assert not XpmParams(4.0 * math.pi).working


def test_bs_unitary_is_unitary():
    u = bs_matrix(BeamSplitterParams(0.7, 1.9))
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


def test_bs_coherent_splits_probe():
    # the first splitter alone: reflected cos(theta), transmitted
    # exp(-i phi) sin(theta), as bs_matrix(bs1).T @ (beta, 0)
    theta1, phi1 = 0.6, 1.1
    identity = BeamSplitterParams(0.0)
    split = MziConfig(BeamSplitterParams(theta1, phi1), identity, XpmParams(0.0))
    expected = 2.0 * np.array(
        [math.cos(theta1), complex(math.cos(phi1), -math.sin(phi1)) * math.sin(theta1)]
    )
    assert np.max(np.abs(coherent_outputs(split, 2.0, True) - expected)) < 1e-14


def test_bs_coherent_identity():
    # a transparent empty interferometer returns the probe, up to the sign
    identity = BeamSplitterParams(0.0, 2.0)
    out = coherent_outputs(MziConfig(identity, identity, XpmParams(0.0)), 1.5 + 0.5j, False)
    assert out[0] == pytest.approx(1.5 + 0.5j)
    assert out[1] == 0.0
    rng = np.random.default_rng(29)
    for _ in range(50):
        cfg = random_transparent(rng)
        beta = complex(rng.normal(), rng.normal())
        out = coherent_outputs(cfg, beta, False)
        assert abs(out[1]) < 1e-14
        assert min(abs(out[0] - beta), abs(out[0] + beta)) < 1e-14


def test_bs_coherent_conserves_mean_photons():
    rng = np.random.default_rng(23)
    for _ in range(50):
        cfg = MziConfig(
            BeamSplitterParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 7))),
            BeamSplitterParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 7))),
            XpmParams(float(rng.uniform(0, 7))),
        )
        beta = complex(rng.normal(), rng.normal())
        for present in (True, False):
            out = coherent_outputs(cfg, beta, present)
            assert abs(np.sum(np.abs(out) ** 2) - abs(beta) ** 2) < 1e-14 * (
                1.0 + abs(beta) ** 2
            )


def test_xpm_coherent_branch_phase_flip():
    # at phi_chi = pi a photon flips the upper arm
    identity = BeamSplitterParams(0.0)
    empty = MziConfig(identity, identity, XpmParams(math.pi))
    assert np.max(np.abs(coherent_outputs(empty, 1.2, True) - [-1.2, 0.0])) < 1e-15


def test_xpm_coherent_branch_absent_photon():
    # coherent amplitudes map by u1^T, then the XPM phase on the upper arm
    # only when the photon is present, then u2^T
    identity = BeamSplitterParams(0.0)
    empty = MziConfig(identity, identity, XpmParams(math.pi))
    assert np.array_equal(coherent_outputs(empty, 1.2, False), [1.2, 0.0])
    rng = np.random.default_rng(31)
    for _ in range(50):
        bs1, bs2 = (
            BeamSplitterParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 7)))
            for _ in range(2)
        )
        cfg = MziConfig(bs1, bs2, XpmParams(float(rng.uniform(0, 7))))
        beta = complex(rng.normal(), rng.normal())
        phase = complex(math.cos(cfg.xpm.phi_chi), math.sin(cfg.xpm.phi_chi))
        for present in (True, False):
            arms = bs_matrix(bs1).T @ np.array([beta, 0.0])
            arms[0] *= phase if present else 1.0
            out = coherent_outputs(cfg, beta, present)
            assert np.max(np.abs(out - bs_matrix(bs2).T @ arms)) < 1e-14
