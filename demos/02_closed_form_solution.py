"""The closed-form solution of the delayed investment benchmark.

With the two structural constraints

    theta = mu2 e^{lam delta},   mu1 = theta (lam + r + theta)

the value function collapses to V(s, x, x1) = -(1/gamma) Q(s) (x + theta x1)^gamma
with Q solving a scalar Riccati-type ODE that also has a closed form.
merton.MertonParams derives theta and mu1 from these constraints and
validates the parameters, Q(s) included, when it is built.  This script
prints the derived constants, validates the closed-form Q against a
Runge-Kutta integration, and tabulates the optimal controls.
"""

import numpy as np

from delaylab import merton

params = merton.MertonParams(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

print("derived constants")
print(f"  theta = {params.theta:.16g}")
print(f"  mu1   = {params.mu1:.16g}")
print(f"  Delta = {params.delta_coeff:.16g}")

times, oracle = merton.q_ode_oracle(params, n_steps=10_000)
closed = merton.q_closed_form(times, params)
rel = np.max(np.abs(closed - oracle) / np.abs(oracle))
print(f"\nQ(0) = {closed[0]:.12f}, Q(T) = {closed[-1]:.12f}")
print(f"closed form vs RK4 oracle: max rel err {rel:.2e}")

print("\noptimal controls at x = 1 for several moving averages x1")
print(f"{'x1':>6} {'u*':>10} {'c*':>10} {'V(0,1,x1)':>12}")
cand = merton.value_function(params)
for x1 in (0.5, 1.0, 2.0, 4.0):
    u = float(merton.optimal_u(0.0, 1.0, x1, params))
    c = float(merton.optimal_c(0.0, 1.0, x1, params))
    v = float(cand.v(0.0, 1.0, x1))
    print(f"{x1:6.2f} {u:10.4f} {c:10.4f} {v:12.6f}")

no_memory = merton.MertonParams(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.0,
)
print(f"\nmu2 = 0 reduction: u* = "
      f"{float(merton.optimal_u(0.0, 1.0, 1.0, no_memory)):.4f} "
      f"(classical ratio (mu0 - r) / ((1 - gamma) sigma^2) = 2.5)")
