"""Perturb a travelling front and watch the a-priori growth bound hold.

A Gaussian perturbation rides on a tanh front.  The mild-solution
integrator advances it; at every record the L2 norm must stay below
e^{(alpha0 + C_phi) t} ||v0||, which is exact for true solutions, so the
margin is a live correctness check on the solver.
"""

from fowler import InitialCondition, SimConfig, WaveProfile, energy_bound_check, evolve, make_grid

grid = make_grid(1024, 40.0)
cfg = SimConfig(
    grid=grid,
    profile=WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0, speed=0.0),
    v0=InitialCondition(kind="gaussian", amplitude=0.1, width=1.0),
    t_end=1.0,
    dt=1e-3,
    output_stride=10,
)
traj = evolve(cfg)
report = energy_bound_check(traj)
print(f"records: {len(traj.records)}, bound holds: {report.ok}")
print(f"||v(0)|| = {traj.records[0].l2:.6f}  ->  ||v(1)|| = {traj.records[-1].l2:.6f}")
print(f"bound at t=1: {traj.params.bound(1.0):.6f} "
      f"(margin {traj.params.bound(1.0) - traj.records[-1].l2:.6f})")
print(f"max mass drift: {max(r.mass_drift for r in traj.records):.2e}")
print(f"typical Picard iterations per step: {traj.records[-1].picard_iters}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.5))
    ts = [r.t for r in traj.records]
    ax1.semilogy(ts, [r.l2 for r in traj.records], label="$\\|v(t)\\|_{L^2}$")
    ax1.semilogy(ts, [r.energy_bound for r in traj.records], "--",
                 label="$e^{(\\alpha_0 + C_\\phi) t} \\|v_0\\|$")
    ax1.set_xlabel("t")
    ax1.legend()

    u_phi = cfg.profile.evaluate(traj.times[-1], grid)
    ax2.plot(grid.points, u_phi.values, color="gray", lw=1, label="front profile")
    ax2.plot(grid.points, u_phi.values + traj.fields[-1].values, label="front + v(1)")
    ax2.set_xlim(-12, 12)
    ax2.set_xlabel("x")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("demos_travelling_wave_perturbation.png", dpi=120)
    print("wrote demos_travelling_wave_perturbation.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
