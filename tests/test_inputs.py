"""Hostile inputs to the public API raise the package's own error types."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from xpmherald.cascade import (
    CascadeConfig,
    reused_probe_pn,
    reused_probe_total,
    shared_probe_pn,
    shared_probe_total,
)
from xpmherald.cli import main
from xpmherald.elements import (
    BeamSplitterParams,
    XpmParams,
    apply_beam_splitter,
    apply_xpm,
    bs_unitary,
)
from xpmherald.errors import ConfigurationError, ModeMismatchError, check_real
from xpmherald.experiments import ExperimentConfig
from xpmherald.fock import (
    Ensemble,
    TruncationPolicy,
    condition,
    make_coherent,
    make_fock,
    mode_number_distribution,
    tensor,
)
from xpmherald.loss import (
    LossParams,
    lossy_click_probs,
    lossy_heralded_efficiency,
    max_tolerable_loss,
)
from xpmherald.mzi import (
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
    transparent_via_angle_diff,
    transparent_via_angle_sum,
)

CFG = transparent_via_angle_sum(math.pi / 4.0, 0.0, math.pi)
KET = make_fock((0, 1), (1, 1))

HOSTILE = {
    # cascade closed forms: out-of-range or non-finite p, amplitude, phase
    "reused_probe_total p=5": lambda: reused_probe_total(3, 1.0, 1.0, 5.0),
    "shared_probe_pn p=2": lambda: shared_probe_pn(3, 1.0, 1.0, 2.0),
    "shared_probe_total p=-1": lambda: shared_probe_total(3, 1.0, 1.0, -1.0),
    "shared_probe_pn p=nan": lambda: shared_probe_pn(3, 1.0, 1.0, math.nan),
    "reused_probe_pn alpha=inf": lambda: reused_probe_pn(3, math.inf, 1.0),
    "reused_probe_pn phi_chi=nan": lambda: reused_probe_pn(3, 1.0, math.nan),
    "shared_probe_total n=True": lambda: shared_probe_total(True, 1.0, 1.0, 0.5),
    "reused_probe_pn n=2.5": lambda: reused_probe_pn(2.5, 1.0, 1.0),
    # non-numeric parameters
    "NoisySource(None)": lambda: NoisySource(None),
    'NoisySource("0.5")': lambda: NoisySource("0.5"),
    "LossParams(None)": lambda: LossParams(None),
    "BeamSplitterParams(None)": lambda: BeamSplitterParams(None),
    'XpmParams("1")': lambda: XpmParams("1"),
    'CoherentProbe("a")': lambda: CoherentProbe("a"),
    "CascadeConfig p=None": lambda: CascadeConfig("shared_probe", 3, 1.0, 1.0, None),
    'CascadeConfig alpha="x"': lambda: CascadeConfig("reused_probe", 3, "x", 1.0, 0.5),
    "lossy_heralded_efficiency(None)": lambda: lossy_heralded_efficiency(
        None, CFG, 1.0, LossParams(0.1)
    ),
    "run_setup probe=None": lambda: run_setup(CFG, NoisySource(0.5), None),
    "sample_shots probe=None": lambda: sample_shots(CFG, NoisySource(0.5), None, 10, 1),
    'detection_efficiency probe="x"': lambda: detection_efficiency(CFG, "x"),
    # arguments of the wrong kind, not only of the wrong value
    "run_setup source=None": lambda: run_setup(CFG, None, CoherentProbe(1.0)),
    "run_setup cfg=None": lambda: run_setup(None, NoisySource(0.5), CoherentProbe(1.0)),
    "run_setup cfg=None unchecked": lambda: run_setup(
        None, NoisySource(0.5), CoherentProbe(1.0), require_transparent=False
    ),
    "sample_shots source=0.5": lambda: sample_shots(CFG, 0.5, CoherentProbe(1.0), 10, 1),
    "detection_efficiency cfg=None": lambda: detection_efficiency(None, CoherentProbe(1.0)),
    'is_transparent("x")': lambda: is_transparent("x"),
    "lossy_click_probs loss=None": lambda: lossy_click_probs(CFG, 1.0, None),
    "max_tolerable_loss cfg=None": lambda: max_tolerable_loss(None, 1.0),
    "NoisyPhotonProbe(0.5)": lambda: NoisyPhotonProbe(0.5),
    # a truncation policy of the wrong kind, on every route that takes one
    'run_setup policy="x" coherent': lambda: run_setup(
        CFG, NoisySource(0.5), CoherentProbe(1.0), policy="x"
    ),
    'run_setup policy="x" noisy probe': lambda: run_setup(
        CFG, NoisySource(0.5), NoisyPhotonProbe(NoisySource(0.5)), policy="x"
    ),
    "sample_shots policy=0.1": lambda: sample_shots(
        CFG, NoisySource(0.5), CoherentProbe(1.0), 10, 1, policy=0.1
    ),
    "make_coherent policy=1e-3": lambda: make_coherent(1.0, 1e-3),
    'TruncationPolicy("x")': lambda: TruncationPolicy(tail_tolerance="x"),
    "TruncationPolicy(None)": lambda: TruncationPolicy(tail_tolerance=None),
    "propagate_mzi ket=None": lambda: propagate_mzi(None, CFG),
    "propagate_mzi cfg=None": lambda: propagate_mzi(make_fock((0, 0, 0), (1, 1, 1)), None),
    "coherent_outputs cfg=None": lambda: coherent_outputs(None, 1.0, True),
    # non-integer occupations and cutoffs used to be truncated silently
    "make_fock occupation=1.5": lambda: make_fock((1.5,), (2,)),
    "make_fock cutoff=2.7": lambda: make_fock((1,), (2.7,)),
    # a non-finite branch weight used to condition to (nan, Ensemble([]))
    "Ensemble weight=-0.5": lambda: Ensemble([(-0.5, make_fock((1,), (1,)))]),
    "Ensemble weight=nan": lambda: Ensemble([(math.nan, make_fock((1,), (1,)))]),
    "Ensemble weight=inf": lambda: Ensemble([(math.inf, make_fock((1,), (1,)))]),
    # require_transparent was read by truthiness: None and 0 ran a leaky
    # setup without the heralding guarantee, and "no" counted as True
    "run_setup require_transparent=None": lambda: run_setup(
        CFG, NoisySource(0.5), CoherentProbe(1.0), require_transparent=None
    ),
    'run_setup require_transparent="no"': lambda: run_setup(
        CFG, NoisySource(0.5), CoherentProbe(1.0), require_transparent="no"
    ),
    "run_setup require_transparent=0": lambda: run_setup(
        CFG, NoisySource(0.5), CoherentProbe(1.0), require_transparent=0
    ),
    "sample_shots require_transparent=None": lambda: sample_shots(
        CFG, NoisySource(0.5), CoherentProbe(1.0), 10, 1, require_transparent=None
    ),
    'sample_shots require_transparent="no"': lambda: sample_shots(
        CFG, NoisySource(0.5), CoherentProbe(1.0), 10, 1, require_transparent="no"
    ),
    "sample_shots require_transparent=0": lambda: sample_shots(
        CFG, NoisySource(0.5), CoherentProbe(1.0), 10, 1, require_transparent=0
    ),
    # wrong-kind arguments that raised TypeError, AttributeError or a
    # RuntimeWarning with NaN output
    "coherent_outputs beta=None": lambda: coherent_outputs(CFG, None, True),
    "coherent_outputs beta=inf": lambda: coherent_outputs(CFG, math.inf, True),
    'coherent_outputs photon_present="x"': lambda: coherent_outputs(CFG, 1.0, "x"),
    "apply_beam_splitter params=None": lambda: apply_beam_splitter(KET, (0, 1), None),
    "apply_xpm params=None": lambda: apply_xpm(KET, (0, 1), None),
    "apply_beam_splitter ket=None": lambda: apply_beam_splitter(
        None, (0, 1), BeamSplitterParams(0.3)
    ),
    "tensor([None])": lambda: tensor([None]),
    "condition ket=None": lambda: condition(Ensemble([(1.0, None)]), 0, "zero"),
    "mode_number_distribution(None)": lambda: mode_number_distribution(None, 0),
    # a config of missing or wrong-kind fields died in is_transparent,
    # run_setup or detection_efficiency with an AttributeError
    "MziConfig(None, None, None)": lambda: MziConfig(None, None, None),
    "MziConfig xpm=1.0": lambda: MziConfig(CFG.bs1, CFG.bs2, 1.0),
    "MziConfig bs2=XpmParams": lambda: MziConfig(CFG.bs1, CFG.xpm, CFG.xpm),
    "bs_unitary(None)": lambda: bs_unitary(None),
    # the transparent constructors returned a config is_transparent
    # rejects (a fractional or huge k or l), or raised TypeError and
    # OverflowError; an integral float or a bool is no integer either
    "angle_sum k=1.5": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=1.5),
    "angle_sum l=1.5": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, l=1.5),
    "angle_sum l=0.5": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, l=0.5),
    "angle_sum k=2.0": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=2.0),
    "angle_sum l=True": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, l=True),
    'angle_sum k="a"': lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k="a"),
    "angle_sum k=10**400": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=10**400),
    "angle_sum k=10**8": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=10**8),
    "angle_diff k=1.5": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, k=1.5),
    "angle_diff l=0.5": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, l=0.5),
    "angle_diff l=10**400": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, l=10**400),
    "angle_diff k=10**8": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, k=10**8),
}


@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_input_raises_configuration_error(name):
    with pytest.raises(ConfigurationError):
        HOSTILE[name]()


MISMATCHED_MODES = {
    # a 2-mode ket raised a bare "not enough values to unpack"
    "propagate_mzi 2-mode ket": lambda: propagate_mzi(KET, CFG),
}


@pytest.mark.parametrize("name", list(MISMATCHED_MODES))
def test_mode_mismatch_raises_mode_mismatch_error(name):
    with pytest.raises(ModeMismatchError):
        MISMATCHED_MODES[name]()


@pytest.mark.parametrize("tol", [0, 1.0, 2, math.nan])
def test_tail_tolerance_range_has_one_message(tol, tmp_path, capsys):
    # (0, 1) is stated once: 1.0 used to get a second message, and the
    # experiment config reported the policy's field name for its own
    message = rf"must be a finite real in \(0, 1\), got {tol!r}$"
    with pytest.raises(ConfigurationError, match="^tail_tolerance " + message):
        TruncationPolicy(tail_tolerance=tol)
    with pytest.raises(ConfigurationError, match="^field 'trunc_tol' " + message):
        ExperimentConfig("fig4", trunc_tol=tol)
    config = tmp_path / "fig4.json"
    config.write_text('{"experiment": "fig4"}')
    assert main(["run", str(config), "--trunc-tol", repr(tol)]) == 1
    assert "field 'trunc_tol' must be a finite real in (0, 1)" in capsys.readouterr().err


def test_check_real_bounds_and_types():
    check_real("x", 0.0, 0.0, 1.0)
    check_real("x", 1, 0.0, 1.0)
    check_real("x", 1e-300, 0.0, math.inf, open_low=True)
    for value in (0.0, -1.0, math.inf, math.nan, None, "1", True, 1j):
        with pytest.raises(ConfigurationError):
            check_real("x", value, 0.0, math.inf, open_low=True)


# Each bad tolerance used to hang the bisection (0, -1, 1e-300) or skip it
# (nan), so the cases run in a child process that a timeout can stop.
TOL_SCRIPT = textwrap.dedent(
    """
    import json, math
    from xpmherald.errors import ConfigurationError
    from xpmherald.loss import max_tolerable_loss
    from xpmherald.mzi import transparent_via_angle_sum

    cfg = transparent_via_angle_sum(math.pi / 4.0, 0.0, math.pi)
    out = {}
    for tol in (0.0, -1.0, math.nan, math.inf, None, "1e-6"):
        try:
            out[repr(tol)] = repr(max_tolerable_loss(cfg, 1.0, tol=tol))
        except ConfigurationError:
            out[repr(tol)] = "ConfigurationError"
    out["tiny"] = max_tolerable_loss(cfg, 1.0, tol=1e-300)
    out["tiny fixed_p"] = max_tolerable_loss(cfg, 10.0, fixed_p=0.7, tol=1e-300)
    out["default"] = max_tolerable_loss(cfg, 1.0)
    print(json.dumps(out))
    """
)


def test_bisection_tolerance_is_checked_and_always_terminates():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TOL_SCRIPT], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for tol in (0.0, -1.0, math.nan, math.inf, None, "1e-6"):
        assert out[repr(tol)] == "ConfigurationError", tol
    for key in ("tiny", "tiny fixed_p"):
        assert 0.0 <= out[key] <= 1.0
    assert abs(out["tiny"] - out["default"]) <= 1e-6
