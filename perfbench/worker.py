"""One repetition of a benchmark workload, in a fresh Python process.

Usage: python3 worker.py JOB.json RESULT.json

The job says what to run: ``setup`` (import the package and exit),
``exact`` (a range of exact-Fock operation blocks) or ``cli`` (one CLI
command).  The result records when ``import xpmherald`` finished, the peak
resident set size, the Python and numpy versions, one record per
operation and, for traced jobs, every span.  The package is imported first
thing, so the parent can time interpreter start to import done.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    import xpmherald  # noqa: F401  (the import whose cost setup_s measures)

    ready = time.perf_counter()
    import json
    import platform
    import resource

    import numpy as np

    from reference import Sampler
    from tracing import Tracer

    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = Tracer() if job.get("trace") else None
    sampler = Sampler()
    sampler.catch_up(at_least=3)
    result = {"ready": ready, "python": platform.python_version(), "numpy": np.__version__}
    if job["kind"] == "exact":
        result.update(run_exact(job, tracer, sampler))
    elif job["kind"] == "cli":
        result.update(run_cli(job, tracer, sampler))
    elif job["kind"] != "setup":
        raise ValueError(f"unknown job kind {job['kind']!r}")
    result.setdefault("rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["refs"] = sampler.durations
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


# ---------------------------------------------------------------------------
# exact-Fock workloads
# ---------------------------------------------------------------------------

RSS_BLOCKS = 3


def build(op: dict):
    """Configuration, source and probe of one generated operation."""
    from xpmherald import (
        BeamSplitterParams,
        CoherentProbe,
        MziConfig,
        NoisyPhotonProbe,
        NoisySource,
        XpmParams,
        transparent_via_angle_diff,
        transparent_via_angle_sum,
    )

    family = op["family"]
    if family == "sum":
        cfg = transparent_via_angle_sum(op["theta1"], op["phi1"], op["phi_chi"], k=op["k"], l=op["l"])
    elif family == "diff":
        cfg = transparent_via_angle_diff(op["theta1"], op["phi1"], op["phi_chi"], k=op["k"], l=op["l"])
    else:
        cfg = MziConfig(
            bs1=BeamSplitterParams(*op["bs1"]),
            bs2=BeamSplitterParams(*op["bs2"]),
            xpm=XpmParams(op["phi_chi"]),
        )
    probe = op["probe"]
    if probe["kind"] == "coherent":
        probe = CoherentProbe(complex(probe["re"], probe["im"]))
    else:
        probe = NoisyPhotonProbe(NoisySource(probe["p"]))
    return cfg, NoisySource(op["p"]), probe


def _n_branches(p: float) -> int:
    return (p > 0.0) + (p < 1.0)


def note_descriptors(op: dict, cfg, outcome, seen: set, descr: dict) -> None:
    """Traffic descriptors from the inputs and public outcome fields only.

    Every propagated branch passes both beam splitters once; a splitter
    call is "new" when its (theta, phi) pair is new to this process.
    """
    probe = op["probe"]
    n_probe = 1 if probe["kind"] == "coherent" else _n_branches(probe["p"])
    per_splitter = _n_branches(op["p"]) * n_probe
    for bs in (cfg.bs1, cfg.bs2):
        key = (bs.theta, bs.phi)
        descr["bs_calls"] += per_splitter
        if key not in seen:
            seen.add(key)
            descr["bs_new"] += 1
    descr["deficit_max"] = max(descr["deficit_max"], outcome.truncation_deficit)
    for state in (outcome.click_state, outcome.no_click_state):
        if state is None:
            continue
        for _, ket in state.branches:
            dense = 1
            for c in ket.cutoffs:
                dense *= c + 1
            descr["cutoff_max"] = max(descr["cutoff_max"], max(ket.cutoffs))
            descr["dense_basis_max"] = max(descr["dense_basis_max"], dense)


def run_exact_op(op: dict, seen: set | None = None, descr: dict | None = None) -> list:
    """Time one ``run_setup`` call and check it:
    [start, ms, failure reason or "", p_click]."""
    from xpmherald import ConditioningError, run_setup

    from checks import check_exact

    p_click = float("nan")
    start = time.perf_counter()
    try:
        cfg, source, probe = build(op)
        start = time.perf_counter()
        outcome = run_setup(
            cfg, source, probe, require_transparent=op.get("require_transparent", True)
        )
        ms = (time.perf_counter() - start) * 1e3
        p_click = outcome.p_click
        try:
            purity = outcome.purity_given_click
        except ConditioningError:
            purity = None
        why = check_exact(
            op, p_click, outcome.detection_efficiency, outcome.total_success,
            outcome.truncation_deficit, purity,
        )
        if descr is not None:
            note_descriptors(op, cfg, outcome, seen, descr)
    except Exception as exc:  # a raising operation is a failed operation
        ms = (time.perf_counter() - start) * 1e3
        why = f"{type(exc).__name__}: {exc}"
    return [start, ms, why or "", p_click]


class ExactLayers:
    """The public calls ``run_setup`` makes on its exact path, each
    wrapped in a span named after its layer when a tracer is given."""

    def __init__(self, tracer=None):
        from xpmherald import (
            apply_beam_splitter,
            apply_xpm,
            condition,
            make_coherent,
            make_fock,
            mode_number_distribution,
            tensor,
        )

        def wrap(name, fn):
            return fn if tracer is None else tracer.wrap(name, fn)

        self.make_coherent = wrap("fock.make_coherent", make_coherent)
        self.make_fock = wrap("fock.make_fock", make_fock)
        self.tensor = wrap("fock.tensor", tensor)
        self.condition = wrap("fock.condition", condition)
        self.mode_number_distribution = wrap(
            "fock.mode_number_distribution", mode_number_distribution
        )
        self.bs_cold = wrap("elements.bs_cold", apply_beam_splitter)
        self.bs_warm = wrap("elements.bs_warm", apply_beam_splitter)
        self.xpm = wrap("elements.xpm", apply_xpm)
        self.seen_angles: set = set()

    def beam_splitter(self, ket, modes, params):
        key = (params.theta, params.phi)
        if key in self.seen_angles:
            return self.bs_warm(ket, modes, params)
        self.seen_angles.add(key)
        return self.bs_cold(ket, modes, params)


def replay_run_setup(layers: ExactLayers, cfg, source, probe, require_transparent=True):
    """``run_setup`` on the exact path, replayed through public calls.

    Mirrors mzi.run_setup for probes at or below the bright-probe
    threshold: probe and signal kets, tensor, splitter / XPM / splitter
    (as in propagate_mzi), the truncation deficit, conditioning on both
    detector events and the click-conditioned purity.  run_setup's own
    per-branch click-mass loop is stood in for by the public
    ``mode_number_distribution`` of the auxiliary mode.  Returns
    (p_click, detection_efficiency, total_success, truncation_deficit,
    purity or None).
    """
    from xpmherald import (
        ConditioningError,
        ConfigurationError,
        Ensemble,
        NoisyPhotonProbe,
        TruncationPolicy,
        is_transparent,
    )
    from xpmherald.mzi import AUX, BRIGHT_PROBE_MEAN_PHOTONS, PROBE, SIGNAL

    if require_transparent and not is_transparent(cfg):
        raise ConfigurationError("configuration is not transparent")
    if isinstance(probe, NoisyPhotonProbe):
        pb = probe.source.p
        probe_branches = [
            (layers.make_fock((n,), (1,)), w) for n, w in ((1, pb), (0, 1.0 - pb)) if w > 0.0
        ]
        cut = 1
    else:
        if abs(probe.beta) ** 2 > BRIGHT_PROBE_MEAN_PHOTONS:
            raise ValueError("bright probes take the classical path, not replayed here")
        ket = layers.make_coherent(probe.beta, TruncationPolicy())
        probe_branches = [(ket, 1.0)]
        cut = ket.cutoffs[0]
    vac_c = layers.make_fock((0,), (cut,))
    branches = []
    for a_occ, wa in ((1, source.p), (0, 1.0 - source.p)):
        if wa <= 0.0:
            continue
        a_ket = layers.make_fock((a_occ,), (1,))
        for b_ket, wb in probe_branches:
            ket = layers.tensor([a_ket, b_ket, vac_c])
            ket = layers.beam_splitter(ket, (PROBE, AUX), cfg.bs1)
            ket = layers.xpm(ket, (SIGNAL, PROBE), cfg.xpm)
            ket = layers.beam_splitter(ket, (PROBE, AUX), cfg.bs2)
            branches.append((wa * wb, a_occ, wb, ket))
    deficit = max(0.0, 1.0 - sum(w * ket.squared_norm() for w, _, _, ket in branches))
    det_eff = 0.0
    for _, a_occ, wb, ket in branches:
        if a_occ == 1:
            no_click = layers.mode_number_distribution(ket, AUX)[0]
            det_eff += wb * ket.squared_norm() * (1.0 - no_click)
    ensemble = Ensemble([(w, ket) for w, _, _, ket in branches])
    try:
        p_click, click_state = layers.condition(ensemble, AUX, "at_least_one")
    except ConditioningError:
        p_click, click_state = 0.0, None
    try:
        layers.condition(ensemble, AUX, "zero")
    except ConditioningError:
        pass
    purity = None
    if click_state is not None:
        purity = float(
            sum(
                w * layers.mode_number_distribution(ket, SIGNAL)[1]
                for w, ket in click_state.branches
            )
        )
    return p_click, det_eff, det_eff * source.p, deficit, purity


def replay_exact_op(op: dict, op_id: int, layers: ExactLayers, tracer) -> list:
    """Traced replay of one operation: [start, ms, failure reason or "", p_click].

    The op span is the parent of every layer span the replay records.
    """
    from checks import check_exact

    replay = tracer.wrap("mzi.run_setup", replay_run_setup)
    p_click = float("nan")
    start = time.perf_counter()
    try:
        cfg, source, probe = build(op)
        tracer.op = op_id
        start = time.perf_counter()
        values = replay(layers, cfg, source, probe, op.get("require_transparent", True))
        ms = (time.perf_counter() - start) * 1e3
        p_click = values[0]
        why = check_exact(op, *values)
    except Exception as exc:  # a raising operation is a failed operation
        ms = (time.perf_counter() - start) * 1e3
        why = f"{type(exc).__name__}: {exc}"
    return [start, ms, why or "", p_click]


def run_exact(job: dict, tracer, sampler) -> dict:
    """Run operation blocks from ``first``, until ``last`` or until the
    time ``budget`` would be overrun by one more block of average cost, but
    at least ``RSS_BLOCKS`` blocks.  Reference samples are taken between
    operations.  The peak RSS is read after ``RSS_BLOCKS`` blocks, so that
    it does not depend on how many blocks the budget allowed."""
    import json
    import resource

    with open(job["ops_file"]) as fh:
        blocks = json.load(fh)
    first, last, budget = job["first"], job.get("last"), job.get("budget")
    last = len(blocks) if last is None else min(last, len(blocks))
    records = []
    seen: set = set()
    descr = {"bs_calls": 0, "bs_new": 0, "cutoff_max": 0, "dense_basis_max": 0, "deficit_max": 0.0}
    layers = None if tracer is None else ExactLayers(tracer)
    rss_mb = None
    start = time.perf_counter()
    b = first
    while b < last:
        done = b - first
        if done == RSS_BLOCKS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if budget is not None and done >= RSS_BLOCKS and elapsed * (done + 1) / done > budget:
            break
        for op in blocks[b]:
            if layers is None:
                records.append(run_exact_op(op, seen, descr))
            else:
                records.append(replay_exact_op(op, len(records), layers, tracer))
            sampler.catch_up()
        b += 1
    result = {"ops": records, "last": b, "descr": descr}
    if rss_mb is not None:
        result["rss_mb"] = rss_mb
    return result


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

VERIFY_GROUPS = ("fock", "elements", "mzi", "loss", "cascade")


def instrument_cli(tracer) -> None:
    """Wrap the public names the CLI reaches, in the module namespaces the
    CLI and the experiment runners call them through."""
    import xpmherald.cli as cli
    import xpmherald.experiments as experiments

    patches = (
        (cli, "run_experiment", "experiments.run_experiment"),
        (cli, "simulate_cascade", "cascade.enumeration"),
        (experiments, "transparent_via_angle_sum", "mzi.closed_form"),
        (experiments, "detection_efficiency", "mzi.closed_form"),
        (experiments, "max_tolerable_loss", "loss.max_tolerable_loss"),
        (experiments, "sample_shots", "mzi.sample_shots"),
        (experiments.ResultTable, "to_csv_text", "experiments.to_csv_text"),
        (experiments.ResultTable, "write", "experiments.write"),
    )
    for owner, attr, name in patches:
        if hasattr(owner, attr):
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    run_suite = cli.run_suite

    def run_suite_by_group(suite="fast", modules=None):
        results = []
        for group in VERIFY_GROUPS:
            if modules is None or group in modules:
                results += tracer.wrap(f"verify.{group}", run_suite)(suite, modules=[group])
        return results

    cli.run_suite = run_suite_by_group


def run_cli(job: dict, tracer, sampler) -> dict:
    """Time ``xpmherald.cli.main(argv)`` once and check its output.
    Reference samples are taken right before and right after."""
    import contextlib
    import hashlib
    import io

    import xpmherald.cli

    from checks import CSV_CHECKS

    main = xpmherald.cli.main
    if tracer is not None:
        instrument_cli(tracer)
        tracer.op = 0
        main = tracer.wrap("cli.main", main)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(job["argv"])
    ms = (time.perf_counter() - start) * 1e3
    sampler.catch_up(at_least=3)
    why, digest = None, None
    if code != 0:
        why = f"exit code {code}: {sink.getvalue()[-300:]}"
    elif job["command"] in CSV_CHECKS:
        with open(job["out"], "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        why = CSV_CHECKS[job["command"]](data.decode(), job["params"])
    return {"start": start, "ms": ms, "why": why or "", "sha256": digest}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
