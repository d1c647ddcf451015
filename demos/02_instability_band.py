"""The anti-diffusive band: which wavelengths grow and how fast.

The linear growth rate of a mode at frequency xi is -Re psi(xi).  It is
positive exactly on 0 < |xi| < xi_c (anti-diffusion wins there, which is the
mechanism that grows dunes out of a flat bed) and negative beyond (plain
diffusion wins).  The fastest-growing frequency xi_star sets the dominant
dune spacing; its rate alpha0 shows up again as the exponent of the
a-priori growth estimate.
"""

import numpy as np

from fowler import ALPHA0, XI_C, XI_STAR, psi_symbol

print(f"band edge        xi_c    = {XI_C:.6f}")
print(f"fastest mode     xi_star = {XI_STAR:.6f}  (wavelength {1 / XI_STAR:.3f})")
print(f"maximal rate     alpha0  = {ALPHA0:.6f}")

xi = np.linspace(0, 2 * XI_C, 400)
rate = -psi_symbol(xi).real
assert rate.max() <= ALPHA0 * (1 + 1e-12)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.plot(xi, rate)
    ax.axhline(0.0, color="k", lw=0.8)
    ax.axvline(XI_C, color="gray", ls=":", label=f"$\\xi_c$ = {XI_C:.3f}")
    ax.plot([XI_STAR], [ALPHA0], "o", label=f"$\\alpha_0$ = {ALPHA0:.3f}")
    ax.set_xlabel("frequency $\\xi$")
    ax.set_ylabel("linear growth rate $-\\mathrm{Re}\\,\\psi(\\xi)$")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demos_instability_band.png", dpi=120)
    print("wrote demos_instability_band.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
