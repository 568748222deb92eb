"""Hostile inputs to the public API raise the package's own error types."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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
)
from xpmherald.errors import ConfigurationError, ModeMismatchError, check_real
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
from xpmherald.loss import (
    LossParams,
    lossy_click_probs,
    lossy_heralded_efficiency,
    max_tolerable_loss,
)
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
    transparent_via_angle_diff,
    transparent_via_angle_sum,
)
from xpmherald.verify import run_suite

CFG = transparent_via_angle_sum(math.pi / 4.0, 0.0, math.pi)
WEAK = transparent_via_angle_sum(math.pi / 4.0, 0.0, 0.01)
LEAKY = MziConfig(BeamSplitterParams(0.3), BeamSplitterParams(0.3), XpmParams(math.pi))
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
    # a campaign past the shot cap would sample for hours before any output
    "sample_shots n_shots past the cap": lambda: sample_shots(
        CFG, NoisySource(0.5), CoherentProbe(1.0), MAX_SAMPLE_SHOTS + 1, 1
    ),
    "detection_efficiency cfg=None": lambda: detection_efficiency(None, CoherentProbe(1.0)),
    'is_transparent("x")': lambda: is_transparent("x"),
    "lossy_click_probs loss=None": lambda: lossy_click_probs(CFG, 1.0, None),
    "max_tolerable_loss cfg=None": lambda: max_tolerable_loss(None, 1.0),
    "NoisyPhotonProbe(0.5)": lambda: NoisyPhotonProbe(0.5),
    # a truncation policy of the wrong kind, where one is taken
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
    # the transparent constructors returned a config is_transparent
    # rejects (a fractional or huge k or l), or raised TypeError and
    # OverflowError; an integral float or a bool is no integer either
    "angle_sum k=1.5": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=1.5),
    "angle_sum l=1.5": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, l=1.5),
    "angle_sum l=0.5": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, l=0.5),
    "angle_sum k=2.0": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=2.0),
    "angle_sum k=1.0": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=1.0),
    "angle_diff k=True": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, k=True),
    "angle_diff l=2**53 + 1": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, l=2**53 + 1),
    "angle_sum l=True": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, l=True),
    'angle_sum k="a"': lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k="a"),
    "angle_sum k=10**400": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=10**400),
    "angle_sum k=10**8": lambda: transparent_via_angle_sum(0.3, 0.2, 1.0, k=10**8),
    "angle_diff k=1.5": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, k=1.5),
    "angle_diff l=0.5": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, l=0.5),
    "angle_diff l=10**400": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, l=10**400),
    "angle_diff k=10**8": lambda: transparent_via_angle_diff(0.3, 0.2, 1.0, k=10**8),
    # a bool amplitude was read as 1 (abs(True) == 1)
    "CoherentProbe(True)": lambda: CoherentProbe(True),
    "coherent_outputs beta=True": lambda: coherent_outputs(CFG, True, True),
    "CascadeConfig alpha=True": lambda: CascadeConfig("reused_probe", 3, True, 1.0, 0.5),
    "lossy_click_probs beta=True": lambda: lossy_click_probs(CFG, True, LossParams(0.1)),
    "make_coherent(np.True_)": lambda: make_coherent(np.True_),
    # the loss model assumes transparency
    "lossy_click_probs leaky cfg": lambda: lossy_click_probs(LEAKY, 1.0, LossParams(0.1)),
    "max_tolerable_loss leaky cfg": lambda: max_tolerable_loss(LEAKY, 1.0),
    # a click exponent below the normal float range: the bound and p' drifted,
    # and an exponent rounded to 0 read as a zero click probability
    "max_tolerable_loss |beta| = 1e-155": lambda: max_tolerable_loss(CFG, 1e-155),
    "max_tolerable_loss |beta|^2 = 1e-320": lambda: max_tolerable_loss(WEAK, math.sqrt(1e-320)),
    "lossy_heralded_efficiency |beta| = 1e-159": lambda: lossy_heralded_efficiency(
        0.4, WEAK, 1e-159, LossParams(0.05)
    ),
    "lossy_heralded_efficiency |beta| = 1e-160": lambda: lossy_heralded_efficiency(
        0.4, WEAK, 1e-160, LossParams(0.05)
    ),
    "lossy_heralded_efficiency |beta| = 1e-300j": lambda: lossy_heralded_efficiency(
        0.4, CFG, 1e-300j, LossParams(0.05)
    ),
}


@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_input_raises_configuration_error(name):
    with pytest.raises(ConfigurationError):
        HOSTILE[name]()


def test_transparent_pair_takes_numpy_integers_as_ints():
    # an int skips the Integral test, which still admits numpy integers
    for family in (transparent_via_angle_sum, transparent_via_angle_diff):
        assert family(0.3, 0.2, 1.0, np.int64(1), np.int64(1)) == family(0.3, 0.2, 1.0, 1, 1)


KET3 = make_fock((0, 1, 0), (1, 2, 2))
MISMATCHED_MODES = {
    # a 2-mode ket raised a bare "not enough values to unpack"
    "propagate_mzi 2-mode ket": lambda: propagate_mzi(KET, CFG),
    "make_fock 2 occupations, 3 cutoffs": lambda: make_fock((0, 1), (1, 1, 1)),
    # malformed mode pairs raised TypeError, a bare ValueError or IndexError
    "apply_beam_splitter modes=[1, 1]": lambda: apply_beam_splitter(
        KET3, [1, 1], BeamSplitterParams(0.3)
    ),
    "apply_beam_splitter modes=(0, 1, 2)": lambda: apply_beam_splitter(
        KET3, (0, 1, 2), BeamSplitterParams(0.3)
    ),
    "apply_beam_splitter modes=1": lambda: apply_beam_splitter(KET3, 1, BeamSplitterParams(0.3)),
    "apply_xpm modes=(1,)": lambda: apply_xpm(KET3, (1,), XpmParams(0.3)),
}


@pytest.mark.parametrize("name", list(MISMATCHED_MODES))
def test_mode_mismatch_raises_mode_mismatch_error(name):
    with pytest.raises(ModeMismatchError):
        MISMATCHED_MODES[name]()


def test_elements_take_modes_from_any_sequence():
    # a list or range of two modes acts as the tuple does, byte for byte
    elements = ((apply_beam_splitter, BeamSplitterParams(0.3, 0.2)), (apply_xpm, XpmParams(0.3)))
    for modes in ([1, 2], range(1, 3), (np.int64(1), 2)):
        for element, p in elements:
            out = element(KET3, modes, p).amps
            assert out.tobytes() == element(KET3, (1, 2), p).amps.tobytes()


UNDEFINED = {
    # requests with no defined answer: a plain ValueError naming the cause
    "tensor([])": (lambda: tensor([]), "zero kets"),
    "mode_number_distribution of a zero ket": (
        lambda: mode_number_distribution(MultiModeKet(np.zeros((2, 2))), 0), "zero-norm"
    ),
    "condition weights summing to 0.5": (
        lambda: condition(Ensemble([(0.5, KET)]), 0, "zero"), "sum to 0.5"
    ),
    "apply_beam_splitter on one mode twice": (
        lambda: apply_beam_splitter(KET, (1, 1), BeamSplitterParams(0.3)), "distinct"
    ),
    'run_suite("bogus")': (lambda: run_suite("bogus"), "unknown suite 'bogus'"),
}


@pytest.mark.parametrize("name", list(UNDEFINED))
def test_undefined_request_raises_value_error(name):
    call, message = UNDEFINED[name]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("tol", [0, 1.0, 2, math.nan])
def test_tail_tolerance_range_has_one_message(tol):
    # (0, 1) is stated once: 1.0 used to get a second message
    message = rf"must be a finite real in \(0, 1\), got {tol!r}$"
    with pytest.raises(ConfigurationError, match="^tail_tolerance " + message):
        TruncationPolicy(tail_tolerance=tol)


def test_check_real_bounds_and_types():
    check_real("x", 0.0, 0.0, 1.0)
    check_real("x", 1, 0.0, 1.0)
    check_real("x", 1e-300, 0.0, math.inf, open_low=True)
    for value in (0.0, -1.0, math.inf, math.nan, None, "1", True, 1j):
        with pytest.raises(ConfigurationError):
            check_real("x", value, 0.0, math.inf, open_low=True)


# ---------------------------------------------------------------------------
# CLI argv fuzz: a seeded table of bad, extreme and non-finite arguments over
# every subcommand, run in this process through cli.main
# ---------------------------------------------------------------------------

BAD_REALS = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 1e308, 1e-308, 2.5, "x", None, True]
CASCADE_FLAGS = {
    # cascade sizes stay small enough to run at once: the exact shared-probe
    # enumeration doubles per setup, and the reused-probe chain is O(setups)
    "--scheme": ["reused-probe", "shared-probe", "bogus", ""],
    "--setups": ["-1", "0", "1", "2.5", "nan", "x", "18", "23", "400"],
    "--alpha-sq": ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-308", "x", ""],
    "--phi-chi": ["nan", "inf", "-0.0", "0", "1e308", "6.283185307179586", "x"],
    "--p": ["nan", "-0.0", "0", "1", "1.0000001", "2", "x"],
    "--shots": ["0", "-5", "1", "50", "2.5", "x"],
    "--seed": ["-1", "0", "7", "99999999999999999999999", "1.5", "x"],
}
FUZZ_PARAMS = {
    "fig4": {
        "beta": [[math.nan], [math.inf], [-1.0], [0.0], [1e200], [], "x", 2.0, [1e-300], [30.0]],
        "phi_chi_points": [math.nan, math.inf, -1, 0, 1, 2, 2.5, 1e15, "x", None, True, 50],
    },
    "loss-bounds": {
        "phi_chi": [[math.nan], [0.0], [-1.0], [1e308], [], 3.0, [6.283185307179586]],
        "beta_sq": [[math.nan], [math.inf], [0.0], [-1.0], [1e-300], [1e300], [], ["x"]],
        "fixed_p": BAD_REALS + [1.0, 0.999999],
    },
    "purity-audit": {
        "shots": [0, -1, 1, 50, 2.5, math.nan, math.inf, "x", None],
        "p_a": BAD_REALS + [1.0],
        "p_b": BAD_REALS + [1.0],
        "beta": BAD_REALS + [4.0, 4.1, 30.0, [1.0]],
        "phi_chi": BAD_REALS,
    },
}
FUZZ_SEEDS = [-1, 0, 1.5, "7", True, 2**70, None]


def fuzz_cases(rng, count, config):
    """``count`` seeded argv lists; ``config(table)`` writes a config file."""
    for _ in range(count):
        if rng.random() < 0.6:
            experiment = rng.choice(sorted(FUZZ_PARAMS))
            table = FUZZ_PARAMS[experiment]
            names = rng.sample(sorted(table), rng.randint(1, min(3, len(table))))
            fields = {"experiment": experiment, "params": {n: rng.choice(table[n]) for n in names}}
            if experiment == "purity-audit":
                fields["params"].setdefault("shots", 50)
                fields["seed"] = rng.choice(FUZZ_SEEDS)
            yield ["run", config(fields)]
        else:
            names = rng.sample(sorted(CASCADE_FLAGS), rng.randint(1, 3))
            yield ["cascade"] + [x for n in names for x in (n, rng.choice(CASCADE_FLAGS[n]))]


ZERO_BOUND_WARNING = (
    "warning: no positive absorption keeps the heralded efficiency above the raw source; "
    "returning 0"
)


def run_main(argv, capsys):
    """Exit code, stderr and warnings of one in-process CLI call; an
    exception escaping ``main`` is a traceback."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err, argv
    # main prints a warning as one stderr line; the one documented warning
    # is that no absorption keeps the bound above 0
    assert not caught, (argv, caught)
    warned = [line for line in err.splitlines() if line.startswith("warning")]
    assert all(line == ZERO_BOUND_WARNING for line in warned), err
    return code, err


def test_cli_fuzz_exits_zero_to_three_without_traceback(tmp_path, capsys):
    numbers = itertools.count()

    def config(fields):
        path = tmp_path / f"config{next(numbers)}.json"
        path.write_text(fields if isinstance(fields, str) else json.dumps(fields))
        return str(path)

    fixed = [
        [], ["--version"], ["--help"], ["bogus"], ["run"], ["verify", "extra"],
        ["run", str(tmp_path / "missing.json")],
        ["run", config("{not json")], ["run", config("[1, 2]")], ["run", config({})],
        ["run", config({"experiment": "bogus"})],
        ["run", config({"experiment": "fig4", "params": [1]})],
        ["run", config({"experiment": "fig4", "out": 5})],
        ["run", config({"experiment": "fig4"}), "--seed", "-3"],
        ["run", config({"experiment": "fig4"}), "--seed", "nan"],
        ["cascade", "--bogus"], ["verify", "--suite"], ["verify", "--suite", "fast"],
        ["verify", "--suite", "bogus"], ["verify", "--suite", ""], ["verify", "--suite", "FULL"],
    ]
    cases = fixed + list(fuzz_cases(random.Random(2024), 240, config))
    codes = [run_main(argv, capsys)[0] for argv in cases]
    assert set(codes) <= {0, 1, 2, 3}
    assert codes.count(0) > 20 and codes.count(1) > 100, codes  # both ends reached


@pytest.mark.parametrize("command", ["run", "verify", "cascade"])
def test_cli_rejects_the_removed_trunc_tol_flag(command, tmp_path, capsys):
    argv = [command] + ([str(tmp_path / "fig4.json")] if command == "run" else [])
    (tmp_path / "fig4.json").write_text('{"experiment": "fig4"}')
    code, err = run_main(argv + ["--trunc-tol", "1e-10"], capsys)
    assert code == 1 and "unrecognized arguments: --trunc-tol 1e-10" in err


def test_cli_rejects_a_config_carrying_trunc_tol(tmp_path, capsys):
    config = tmp_path / "fig4.json"
    config.write_text('{"experiment": "fig4", "trunc_tol": 1e-10}')
    code, err = run_main(["run", str(config)], capsys)
    assert code == 1
    assert err == f"config error: config file {config}: unknown field(s) ['trunc_tol']\n"


def test_cli_prints_a_library_warning_as_one_line(tmp_path):
    # a fixed_p at which no absorption helps: one line per distinct warning,
    # without the file, line number or line of code, and exit 0
    config = tmp_path / "loss.json"
    params = {"phi_chi": [3.14159], "beta_sq": [1, 100], "fixed_p": 1.0}
    config.write_text(json.dumps({"experiment": "loss-bounds", "params": params}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONWARNINGS="")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "xpmherald.cli", "run", str(config)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0
    assert done.stderr == ZERO_BOUND_WARNING + "\n"
    assert done.stdout.endswith("3.14159,1.0,0.0,,\n3.14159,100.0,0.0,,\n")
    # the library still warns its API callers
    with pytest.warns(UserWarning, match="returning 0"):
        setup = transparent_via_angle_sum(math.pi / 4, 0.0, 3.14159)
        assert max_tolerable_loss(setup, 1.0, fixed_p=1.0) == 0.0


SUBCOMMAND_HELP = {
    (): """\
usage: xpmherald [-h] [--version] {run,verify,cascade} ...

Heralded single-photon purification simulator

positional arguments:
  {run,verify,cascade}
    run                 run a named experiment from a config file
    verify              run the invariant suites
    cascade             chained setups sharing one probe

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("run",): """\
usage: xpmherald run [-h] [--out OUT] [--seed SEED] config

positional arguments:
  config       JSON config file

options:
  -h, --help   show this help message and exit
  --out OUT    output CSV path (overrides config)
  --seed SEED  seed (overrides config)
""",
    ("verify",): """\
usage: xpmherald verify [-h] [--suite {fast,full}]

options:
  -h, --help           show this help message and exit
  --suite {fast,full}
""",
    ("cascade",): """\
usage: xpmherald cascade [-h] [--scheme {reused-probe,shared-probe}]
                         [--setups SETUPS] [--alpha-sq ALPHA_SQ]
                         [--phi-chi PHI_CHI] [--p P] [--shots SHOTS]
                         [--seed SEED] [--out OUT]

options:
  -h, --help            show this help message and exit
  --scheme {reused-probe,shared-probe}
  --setups SETUPS
  --alpha-sq ALPHA_SQ
  --phi-chi PHI_CHI
  --p P
  --shots SHOTS         Monte Carlo shots (default: exact)
  --seed SEED           required with --shots
  --out OUT             output CSV path
""",
}


@pytest.mark.parametrize("command", SUBCOMMAND_HELP, ids=lambda c: " ".join(c) or "top")
def test_help_text_is_pinned(command, monkeypatch, capsys):
    # argparse wraps at $COLUMNS; Python 3.10 heads the options block
    # "optional arguments:"
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command, "--help"]) == 0
    out = capsys.readouterr().out.replace("optional arguments:", "options:")
    assert out == SUBCOMMAND_HELP[command]
