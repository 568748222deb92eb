"""Seeded input generators for the three benchmark workloads.

Standard library only: the same seed gives the same inputs on any machine,
and the generating process never imports the package under test.  The
program receives only what these functions return.

Exact-Fock inputs come in blocks.  Every block is stratified (its probe
amplitudes cover the whole range evenly, and the shares of vacuum sources,
noisy probes and constraint families are fixed), so a run that completes
more or fewer blocks, or uses another seed, still measures the same mix.
Each |beta| is still uniform on its stratum, but consecutive exact-cold
blocks split the strata between them: operation cost grows like |beta|^4,
and independent draws left the median call time of a run 15-20% apart from
seed to seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact-cold", "exact-grid", "cli")

# exact-cold: 20 configurations per block, 6 vacuum sources (30%),
# 5 noisy-photon probes (25%), 15 coherent probes with |beta| stratified on
# [0.05, 4] so |beta|^2 never exceeds the bright-probe threshold of 16.
COLD_BLOCK = 20
COLD_VACUUM = 6  # 5 coherent (one per three strata) and 1 noisy
COLD_NOISY = 5
COLD_GROUP = 3   # blocks whose |beta| values jointly stratify [0.05, 4] finer
BETA_MIN, BETA_MAX = 0.05, 4.0

# exact-grid: one theta1 row per block; 12 phi_chi points at |beta| = 2 and
# every other one of them at |beta| = 4.  The 2:1 split keeps the median
# call inside the |beta| = 2 cluster and the 90th percentile inside the
# |beta| = 4 cluster, so neither sits on the gap between them.
GRID_PHI_POINTS = 12
GRID_BETAS = (2.0, 4.0)

# Enough blocks that no run exhausts them (a run completes about 25).
DEFAULT_BLOCKS = 400

# cli: the five commands of one pass, in order.
CLI_COMMANDS = ("fig4", "loss_bounds", "purity_audit", "cascade_enum", "verify_fast")
FIG4_POINTS = 5000
AUDIT_SHOTS = 3_000_000
CASCADE_SETUPS = 18


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw in each of n equal slices of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + width * (i + rng.random()) for i in range(n)]


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def exact_cold(seed: int, n_blocks: int = DEFAULT_BLOCKS) -> list[list[dict]]:
    """Random transparent configurations, each with new splitter angles."""
    rng = random.Random(f"exact-cold/{seed}")
    n_coherent = COLD_BLOCK - COLD_NOISY
    width = (BETA_MAX - BETA_MIN) / n_coherent
    blocks = []
    for b in range(n_blocks):
        j = b % COLD_GROUP
        if j == 0:
            # Within a group, each |beta| stratum is split into COLD_GROUP
            # sub-strata, one per block, and each stratum gets a vacuum
            # source in exactly one block.
            sub = [_shuffled(rng, range(COLD_GROUP)) for _ in range(n_coherent)]
            start = rng.randrange(3)
        offset = (start + j) % 3
        noisy_vacuum = rng.randrange(COLD_NOISY)
        cases = [
            ({"kind": "noisy", "p": rng.uniform(0.1, 1.0)}, i == noisy_vacuum)
            for i in range(COLD_NOISY)
        ]
        for i in range(n_coherent):
            beta_abs = BETA_MIN + width * (i + (sub[i][j] + rng.random()) / COLD_GROUP)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            probe = {"kind": "coherent", "re": beta_abs * math.cos(phase), "im": beta_abs * math.sin(phase)}
            cases.append((probe, i % 3 == offset))
        cases = _shuffled(rng, cases)
        families = _shuffled(rng, ["sum", "diff"] * (COLD_BLOCK // 2))
        block = []
        for (probe, vac), family in zip(cases, families):
            block.append(
                {
                    "family": family,
                    "theta1": rng.uniform(0.05, math.pi - 0.05),
                    "phi1": rng.uniform(0.0, 2.0 * math.pi),
                    "phi_chi": rng.uniform(0.0, 2.0 * math.pi),
                    "k": rng.randint(-1, 1),
                    "l": rng.randint(-1, 2),
                    "p": 0.0 if vac else rng.uniform(0.1, 1.0),
                    "probe": probe,
                    "check": "cold",
                }
            )
        blocks.append(block)
    return blocks


def exact_grid(seed: int, n_blocks: int = DEFAULT_BLOCKS) -> list[list[dict]]:
    """theta1 x phi_chi grid rows from transparent_via_angle_sum(theta1, 0, phi_chi)
    at source efficiency 1; each row reuses one pair of splitter angles."""
    rng = random.Random(f"exact-grid/{seed}")
    thetas = _shuffled(rng, _stratified(rng, n_blocks, 0.05, math.pi / 2.0 - 0.05))
    blocks = []
    for theta1 in thetas:
        phis = _stratified(rng, GRID_PHI_POINTS, 0.0, 2.0 * math.pi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        row = []
        for beta_abs, points in ((GRID_BETAS[0], phis), (GRID_BETAS[1], phis[::2])):
            for phi_chi in points:
                row.append(
                    {
                        "family": "sum",
                        "theta1": theta1,
                        "phi1": 0.0,
                        "phi_chi": phi_chi,
                        "k": 0,
                        "l": 1,
                        "p": 1.0,
                        "probe": {
                            "kind": "coherent",
                            "re": beta_abs * math.cos(phase),
                            "im": beta_abs * math.sin(phase),
                        },
                        "check": "grid",
                    }
                )
        blocks.append(row)
    return blocks


def cli_inputs(seed: int) -> dict:
    """Arguments and config files of the five commands of a pass.

    Returns {command: {"config": dict or None, "argv": [...], "params": dict}};
    ``argv`` uses the placeholders ``{config}`` and ``{out}`` for the config
    file and the output CSV, which the runner fills in per invocation.
    """
    rng = random.Random(f"cli/{seed}")
    loss_phis = [0.010, math.pi, rng.uniform(0.5, 3.0)]
    loss_beta_sqs = [1.0, 1e2, 1e4, 1e6] + [10.0 ** rng.uniform(0.0, 6.0) for _ in range(3)]
    audit = {
        "shots": AUDIT_SHOTS,
        "p_a": rng.uniform(0.2, 0.8),
        "p_b": rng.uniform(0.5, 1.0),
        "phi_chi": rng.uniform(1.0, 5.0),
    }
    audit_seed = rng.randrange(1, 2**31)
    cascade = {
        "alpha_sq": rng.uniform(1.0, 9.0),
        "phi_chi": rng.uniform(0.5, 2.5),
        "p": rng.uniform(0.3, 0.9),
    }
    return {
        "fig4": {
            "config": {"experiment": "fig4", "params": {"phi_chi_points": FIG4_POINTS}},
            "argv": ["run", "{config}", "--out", "{out}"],
            "params": {"phi_chi_points": FIG4_POINTS},
        },
        "loss_bounds": {
            "config": {
                "experiment": "loss-bounds",
                "params": {"phi_chi": loss_phis, "beta_sq": loss_beta_sqs},
            },
            "argv": ["run", "{config}", "--out", "{out}"],
            "params": {"phi_chi": loss_phis, "beta_sq": loss_beta_sqs},
        },
        "purity_audit": {
            "config": {"experiment": "purity-audit", "params": audit, "seed": audit_seed},
            "argv": ["run", "{config}", "--out", "{out}"],
            "params": dict(audit, seed=audit_seed),
        },
        "cascade_enum": {
            "config": None,
            "argv": [
                "cascade", "--scheme", "shared-probe",
                "--setups", str(CASCADE_SETUPS),
                "--alpha-sq", repr(cascade["alpha_sq"]),
                "--phi-chi", repr(cascade["phi_chi"]),
                "--p", repr(cascade["p"]),
                "--out", "{out}",
            ],
            "params": dict(cascade, setups=CASCADE_SETUPS),
        },
        "verify_fast": {
            "config": None,
            "argv": ["verify", "--suite", "fast"],
            "params": {},
        },
    }
