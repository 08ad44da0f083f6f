"""Adjoint trajectories, the maximum condition, and simulated costs.

Along simulated optimal paths this script builds the adjoint processes from
the candidate value, block by block as each check walks the ensemble,
checks that the x2-adjoint vanishes and that the pathwise Hamiltonian is
stationary in the controls, and then compares the regression Monte Carlo
cost of the optimal policy (and scaled variants) against the closed-form
value at the initial state.
"""

from delaylab import core, merton, pmp, sdde, verify

# MertonParams derives theta and mu1 from the structural constraints and
# validates the parameters when it is built.
params = merton.MertonParams(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)
model = merton.build_model(params)
policy = merton.build_policy(params)
cand = merton.value_function(params)
basis = merton.build_basis(params)
initial = lambda tau: 1.0  # noqa: E731

config = core.SimConfig(n_steps=128, n_paths=32, master_seed=31)
ensemble = sdde.simulate_forward(model, policy, initial, config)


def adjoint_of(part):
    """The value-derived adjoints of a part of the ensemble, with the exact q."""
    return pmp.adjoint_from_value(model, cand, part, merton.exact_q_factor(params, part.times))


print("adjoint diagnostics on 32 simulated optimal paths")
p3_worst = pmp.check_p3_zero(model, cand, ensemble, adjoint_of).max_residual
hu_worst = pmp.maximum_condition_check(model, cand, ensemble, adjoint_of).max_residual
print(f"  worst x2-adjoint residual   {p3_worst:.3e}")
print(f"  worst control stationarity  {hu_worst:.3e}")

print("\ncost of the optimal policy vs the closed-form value")
cost_cfg = core.SimConfig(n_steps=64, n_paths=4000, master_seed=1)
cost_ensemble = sdde.simulate_forward(model, policy, initial, cost_cfg)
check = verify.closed_form_cost_check(model, cand, cost_ensemble, basis)
print(f"  J(u*) = {check.extra['cost']:.5f} +- {check.extra['stderr']:.5f}")
print(f"  V     = {check.extra['reference']:.5f}   -> {'PASS' if check.passed else 'FAIL'}")

print("\npaired comparison against scaled policies (common random numbers)")
perturbations = [
    verify.scaled_policy(policy, [0.75, 1.0], "u x 0.75"),
    verify.scaled_policy(policy, [1.25, 1.0], "u x 1.25"),
    verify.scaled_policy(policy, [1.0, 0.75], "c x 0.75"),
    verify.scaled_policy(policy, [1.0, 1.25], "c x 1.25"),
    verify.scaled_policy(policy, [0.0, 1.0], "u = 0"),
]
report = verify.compare_controls(
    model, policy, perturbations, initial, cost_cfg, basis
)
for comp in report["comparisons"]:
    print(f"  {comp['policy']:<9} dJ = {comp['paired_diff_mean']:+.5f} "
          f"+- {comp['paired_diff_stderr']:.5f}")
