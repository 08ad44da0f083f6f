"""Simulate the wealth process with delayed drift and inspect its summaries.

The state follows an Euler scheme for

    dX = [b1(t, X, X1, u) + b2(t, X, X1, u) X2] dt + sigma dW,

where X1 is the exponentially weighted moving average of the recent past and
X2 the pointwise lag.  This script runs a small ensemble under the optimal
feedback policy of the delayed investment benchmark and prints summary
statistics of the three state components.
"""

import numpy as np

from delaylab import core, merton, sdde

# MertonParams derives theta and mu1 from the structural constraints and
# validates the parameters when it is built.
params = merton.MertonParams(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)
model = merton.build_model(params)
policy = merton.build_policy(params)

config = core.SimConfig(n_steps=128, n_paths=500, master_seed=7)
ensemble = sdde.simulate_forward(model, policy, lambda tau: 1.0, config)

print(f"ensemble: {ensemble.n_paths} paths, {ensemble.n_steps} steps")
print(f"{'t':>6} {'mean X':>10} {'std X':>10} {'mean X1':>10} {'mean X2':>10}")
# Every 16th node; X1 is kept once per node block and rebuilt by part.
shown = ensemble.part(nodes=slice(None, None, 16))
for k, t in enumerate(shown.times):
    x = shown.x[:, k]
    print(
        f"{t:6.3f} {x.mean():10.4f} {x.std():10.4f}"
        f" {shown.x1[:, k].mean():10.4f} {shown.x2[:, k].mean():10.4f}"
    )

u, c = ensemble.u
print(f"\nrisky fraction u*: mean {u.mean():.4f}, "
      f"range [{u.min():.4f}, {u.max():.4f}]")
print(f"consumption rate c*: mean {c.mean():.4f}")

rerun = sdde.simulate_forward(model, policy, lambda tau: 1.0, config)
print(f"\nbitwise reproducible: {np.array_equal(ensemble.x, rerun.x)}")
