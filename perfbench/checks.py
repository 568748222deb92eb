"""Output checks behind ``success_rate``.

Each check returns ``None`` when the output is correct and a one-line
reason otherwise.  Expected values are recomputed here from the generated
inputs, independently of the route that produced the output, except for
the cascade, whose enumeration is audited against the package's closed form
as the verify suite does.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Strong-phase rows of the tolerable-loss reference table:
# (|beta|^2, reference bound) at phi_chi = pi.
STRONG_PHASE_LOSS_REFERENCES = ((1.0, 0.80), (1e2, 0.35), (1e4, 0.06))
LOSS_REFERENCE_TOL = 0.05
MC_SIGMAS = 4.0


def check_exact(op: dict, p_click, det_eff, total_success, deficit, purity) -> str | None:
    """Invariants of one exact-Fock run of the setup.

    ``purity`` is the click-conditioned purity, or None when the outcome
    has no click-conditioned state.
    """
    values = (p_click, det_eff, total_success, deficit)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite outcome {values}"
    if op["check"] == "grid":
        beta_sq = op["probe"]["re"] ** 2 + op["probe"]["im"] ** 2
        s2 = math.sin(op["phi_chi"] / 2.0) ** 2 * math.sin(2.0 * op["theta1"]) ** 2
        closed = 1.0 - math.exp(-beta_sq * s2)
        dev = abs(p_click - closed)
        if dev > 1e-8 + deficit:
            return f"p_click {p_click!r} vs closed form {closed!r}: dev {dev:.3e}"
        return None
    if op["p"] == 0.0 and not p_click < 1e-12:
        return f"false click: p_click {p_click:.3e} with a vacuum source"
    if p_click > 1e-9:
        if purity is None:
            return f"p_click {p_click:.3e} but no click-conditioned state"
        if abs(purity - 1.0) > 1e-12:
            return f"click-conditioned purity {purity!r}"
    if abs(total_success - det_eff * op["p"]) > 1e-12:
        return f"total_success {total_success!r} != detection_efficiency * p"
    return None


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of an experiment CSV (manifest lines skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


def check_fig4(text: str, params: dict) -> str | None:
    header, rows = read_csv(text)
    if header[:3] != ["phi_chi", "beta_abs", "detection_efficiency"]:
        return f"unexpected fig4 header {header}"
    data = np.array([[float(x) for x in row[:3]] for row in rows])
    if len(data) != 3 * params["phi_chi_points"]:
        return f"fig4 has {len(data)} rows"
    phi, beta, eff = data.T
    expected = 1.0 - np.exp(-(beta**2) * np.sin(phi / 2.0) ** 2)
    dev = float(np.max(np.abs(eff - expected)))
    if not dev <= 1e-12:
        return f"fig4 deviates from 1 - exp(-|beta|^2 sin^2(phi_chi/2)) by {dev:.3e}"
    return None


def check_loss_bounds(text: str, params: dict) -> str | None:
    _, rows = read_csv(text)
    n_expected = len(params["phi_chi"]) * len(params["beta_sq"])
    if len(rows) != n_expected:
        return f"loss-bounds has {len(rows)} rows, expected {n_expected}"
    bounds = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    if not all(0.0 <= b <= 1.0 for b in bounds.values()):
        return "loss bound outside [0, 1]"
    for beta_sq, ref in STRONG_PHASE_LOSS_REFERENCES:
        got = bounds.get((math.pi, beta_sq))
        if got is None or abs(got - ref) > LOSS_REFERENCE_TOL:
            return f"strong-phase bound at |beta|^2={beta_sq:g} is {got}, reference {ref}"
    return None


def check_purity_audit(text: str, params: dict) -> str | None:
    header, rows = read_csv(text)
    row = dict(zip(header, rows[0]))
    shots = int(row["shots"])
    if shots != params["shots"]:
        return f"audit ran {shots} shots"
    if int(row["click_no_photon"]) != 0:
        return f"{row['click_no_photon']} click-without-photon events"
    clicks = int(row["click_and_photon"])
    # Symmetric splitter (theta1 = pi/4), noisy probe: eta = p_b sin^2(phi_chi/2).
    expected = params["p_a"] * params["p_b"] * math.sin(params["phi_chi"] / 2.0) ** 2
    sigma = math.sqrt(expected * (1.0 - expected) / shots)
    z = abs(clicks / shots - expected) / sigma
    if z > MC_SIGMAS:
        return f"click frequency {clicks / shots:.6f} is {z:.1f} sigma from {expected:.6f}"
    return None


def check_cascade(text: str, params: dict) -> str | None:
    from xpmherald import shared_probe_pn

    _, rows = read_csv(text)
    if len(rows) != params["setups"]:
        return f"cascade has {len(rows)} rows"
    alpha = math.sqrt(params["alpha_sq"])
    for setup, value in rows:
        closed = shared_probe_pn(int(setup), alpha, params["phi_chi"], params["p"])
        if abs(float(value) - closed) > 1e-10:
            return f"setup {setup}: enumerated {value} vs closed form {closed!r}"
    return None


CSV_CHECKS = {
    "fig4": check_fig4,
    "loss_bounds": check_loss_bounds,
    "purity_audit": check_purity_audit,
    "cascade_enum": check_cascade,
}
