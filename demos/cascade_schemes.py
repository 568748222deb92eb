"""Chaining setups to spend one coherent state more efficiently.

Scheme A retries a single noisy photon against the reused probe until a
click: the success probability climbs toward the source efficiency itself.
Scheme B threads one probe through setups fed by independent noisy
photons: the probability of heralding at least one pure photon climbs
toward certainty.  The exact simulator answers scheme A from its closed
form and scheme B by the exhaustive pattern enumeration; both are set
against a seeded Monte Carlo run.
"""

import math

import xpmherald as xh

PI = math.pi
alpha, phi_chi, p = 2.0, PI / 2.0, 0.6

print(f"probe |alpha|^2 = {alpha**2:g}, phi_chi = pi/2, source efficiency p = {p}")
print()

# --- scheme A: one photon, reused probe -------------------------------------
cfg = xh.CascadeConfig("reused_probe", 8, alpha, phi_chi, p)
exact = xh.simulate_cascade(cfg)
mc = xh.simulate_cascade(cfg, shots=200_000, seed=31)
print("retrying one noisy photon against the reused probe:")
print(f"{'setup':>6s} {'closed form':>12s} {'simulate':>12s} {'monte carlo':>12s}")
for n in range(1, 9):
    closed = xh.reused_probe_pn(n, alpha, phi_chi)
    print(
        f"{n:6d} {closed:12.6f} {exact.per_setup[n-1]:12.6f} {mc.per_setup[n-1]:12.6f}"
    )
print(f"probe magnitude left after 8 no-click passes: {exact.residual_amp:.4f}")
for n_setups in (1, 2, 4, 8, 16, 32):
    total = xh.reused_probe_total(n_setups, alpha, phi_chi, p)
    print(f"  P_T after {n_setups:2d} setups: {total:.6f} (limit {p})")
print()

# --- scheme B: many photons, one probe ---------------------------------------
cfg = xh.CascadeConfig("shared_probe", 8, alpha, phi_chi, p)
exact = xh.simulate_cascade(cfg)
mc = xh.simulate_cascade(cfg, shots=200_000, seed=32)
print("threading the probe through setups with independent noisy photons:")
print(f"{'setup':>6s} {'closed form':>12s} {'enumeration':>12s} {'monte carlo':>12s}")
for n in range(1, 9):
    closed = xh.shared_probe_pn(n, alpha, phi_chi, p)
    print(
        f"{n:6d} {closed:12.6f} {exact.per_setup[n-1]:12.6f} {mc.per_setup[n-1]:12.6f}"
    )
for n_setups in (1, 2, 4, 8, 16, 32):
    total = xh.shared_probe_total(n_setups, alpha, phi_chi, p)
    print(f"  P_T after {n_setups:2d} setups: {total:.6f} (limit 1)")
