"""Heralded single-photon purification with cross-phase modulation.

A noisy single-photon source emits a mixture of one photon and vacuum.
Feeding it through a Mach-Zehnder interferometer whose upper arm shares a
cross-phase medium with the signal converts it into a heralded pure
single-photon source: when the two beam splitters invert each other, a
detector click on the auxiliary output certifies, with certainty, a photon
in the signal mode.  This package provides exact truncated-Fock-space
propagation of that setup, every closed-form probability describing it, a
phenomenological absorption model with tolerable-loss bounds, chained
multi-setup schemes, and a verification harness that cross-validates all
routes against each other.
"""

__version__ = "0.5.0"

from .cascade import (
    CascadeConfig,
    CascadeResult,
    reused_probe_pn,
    reused_probe_total,
    shared_probe_pn,
    shared_probe_total,
    simulate_cascade,
)
from .elements import (
    BeamSplitterParams,
    XpmParams,
    apply_beam_splitter,
    apply_xpm,
)
from .errors import (
    ConditioningError,
    ConfigurationError,
    CutoffViolationError,
    EnumerationLimitError,
    ModeMismatchError,
    TruncationError,
)
from .fock import (
    Ensemble,
    MultiModeKet,
    TruncationPolicy,
    condition,
    make_coherent,
    make_fock,
    mode_number_distribution,
    tensor,
)
from .loss import (
    LossParams,
    LossyHeraldReport,
    lossy_click_probs,
    lossy_heralded_efficiency,
    max_tolerable_loss,
)
from .mzi import (
    CoherentProbe,
    HeraldOutcome,
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

__all__ = [
    "__version__",
    "BeamSplitterParams",
    "CascadeConfig",
    "CascadeResult",
    "CoherentProbe",
    "ConditioningError",
    "ConfigurationError",
    "CutoffViolationError",
    "Ensemble",
    "EnumerationLimitError",
    "HeraldOutcome",
    "LossParams",
    "LossyHeraldReport",
    "ModeMismatchError",
    "MultiModeKet",
    "MziConfig",
    "NoisyPhotonProbe",
    "NoisySource",
    "TruncationError",
    "TruncationPolicy",
    "XpmParams",
    "apply_beam_splitter",
    "apply_xpm",
    "coherent_outputs",
    "condition",
    "detection_efficiency",
    "is_transparent",
    "lossy_click_probs",
    "lossy_heralded_efficiency",
    "make_coherent",
    "make_fock",
    "max_tolerable_loss",
    "mode_number_distribution",
    "propagate_mzi",
    "reused_probe_pn",
    "reused_probe_total",
    "run_setup",
    "sample_shots",
    "shared_probe_pn",
    "shared_probe_total",
    "simulate_cascade",
    "tensor",
    "transparency_sign",
    "transparent_via_angle_diff",
    "transparent_via_angle_sum",
    "vacuum_leak_amplitude",
]
