"""Verify the reduced dynamic-programming equation and its compatibility system.

Three diagnostics on the closed-form candidate value:

* the maximized generalized Hamiltonian balances the time derivative on a
  grid of (s, x, x1) probes;
* the balance holds for every value of the pointwise lag x2, i.e. the
  candidate solves a genuinely x2-independent equation;
* the four first-order compatibility equations tying the coefficients'
  x1-sensitivities to their x-sensitivities hold along the feedback controls.

Breaking a structural constraint on purpose shows where each check bites:
merton.MertonParams keeps an explicit mu1 or theta as given instead of
deriving it from the constraints.
"""

import numpy as np

from delaylab import hjb, merton

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

xs = np.linspace(0.5, 5.0, 9)
x1s = np.linspace(0.25, 5.0, 9)
ss = [0.1, 0.3, 0.5, 0.7, 0.9]
x2s = [0.0, -10.0, -5.0, 5.0, 10.0]  # x2 = 0 first: the residual check's slice
xg, x1g = np.meshgrid(xs, x1s, indexing="ij")


def run(tag, **overrides):
    p = merton.MertonParams(**P0, **overrides)
    model = merton.build_model(p)
    policy = merton.build_policy(p)
    cand = merton.value_function(p)

    # One residual sweep over every x2 value; both checks reduce it.
    residual, _ = hjb.hjb_residual(
        model, cand, ss, xg, x1g, np.reshape(x2s, (-1, 1, 1, 1)), maximizer=policy
    )
    res = hjb.hjb_residual_check(residual[0])
    flat = hjb.x2_independence_check(residual)
    compat = hjb.compatibility_pde_check(model, cand, 0.3, xs, x1s, policy)
    print(f"\n{tag}")
    print(f"  equation residual   {res.max_residual:10.3e}  "
          f"{'PASS' if res.passed else 'FAIL'}")
    print(f"  x2 spread           {flat.max_residual:10.3e}  "
          f"{'PASS' if flat.passed else 'FAIL'}")
    print(f"  compatibility       {compat.max_residual:10.3e}  "
          f"{'PASS' if compat.passed else 'FAIL'}")
    for name, worst in compat.extra["per_equation"].items():
        print(f"    {name:<6} {worst:10.3e}")


run("constrained parameters (both structural identities hold)")

p_ok = merton.MertonParams(**P0)
run("mu1 perturbed by +0.01 (drift identity broken)", mu1=p_ok.mu1 + 0.01)
run("theta perturbed by +0.01 (aggregation identity broken)", theta=p_ok.theta + 0.01)
