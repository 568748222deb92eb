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
from xpmherald.elements import BeamSplitterParams, XpmParams
from xpmherald.errors import ConfigurationError, check_real
from xpmherald.loss import (
    LossParams,
    lossy_click_probs,
    lossy_heralded_efficiency,
    max_tolerable_loss,
)
from xpmherald.mzi import (
    CoherentProbe,
    NoisyPhotonProbe,
    NoisySource,
    detection_efficiency,
    is_transparent,
    run_setup,
    sample_shots,
    transparent_via_angle_sum,
)

CFG = transparent_via_angle_sum(math.pi / 4.0, 0.0, math.pi)

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
}


@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_input_raises_configuration_error(name):
    with pytest.raises(ConfigurationError):
        HOSTILE[name]()


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
