"""Semigroup kernel of the linear part, its convolution action, and norm scalings.

K(t, .) is the inverse transform of e^{-t psi}.  Executable facts checked by
the property suite:

  * unit mass at every t (the symbol is 1 at xi = 0);
  * K(s) * K(t) = K(s+t) under physical-space convolution;
  * K takes negative values (failure of the maximum principle; the
    anti-diffusive band makes the kernel oscillate);
  * gradient norms scale like t^{-3/4} (L2) and t^{-1/2} (L1) as t -> 0,
    where plain diffusion dominates;
  * convolution never amplifies the L2 norm beyond e^{alpha0 t}.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .diagnostics import l2_norm
from .grid import (
    Grid,
    RealField,
    RealSpectrum,
    circular_convolve,
    real_spectrum,
)
from .operator import psi_symbol, symbol_table
from .record import Record

__all__ = [
    "KernelSnapshot",
    "KernelNormFit",
    "kernel_field",
    "convolve_kernel",
    "semigroup_residual",
    "grad_kernel_norms",
    "nyquist_resolution_defect",
]

#: e^{-t Re psi} at the Nyquist frequency must sit below this for a kernel to
#: count as resolved on the grid.
RESOLUTION_LIMIT = 1e-12

#: _gradient_l1 brackets extrema on the FINE x finer grid, held as FINE shifted
#: n-point copies, and polishes them until a Newton step or a bracket is below
#: ROOT_TOL fine spacings dx / FINE
FINE = 8
ROOT_TOL = 1e-9


class KernelSnapshot(NamedTuple):
    """Sampled kernel at one time, with its discrete mass dx * sum(K)."""

    t: float
    field: RealField
    mass: float


class KernelNormFit(Record):
    """Tabulated gradient norms of the kernel with fitted constants.

    K0 and K1 are the envelope constants max_t t^{3/4} ||dK/dx||_L2 and
    max_t t^{1/2} ||dK/dx||_L1 over the sampled times; the log-log slopes
    are fitted over the decade of smallest sampled t.
    """

    __slots__ = ("times", "l1_grad", "l2_grad", "K0", "K1", "slope_l2", "slope_l1")

    def __init__(self, times: np.ndarray, l1_grad: np.ndarray, l2_grad: np.ndarray,
                 K0: float = 0.0, K1: float = 0.0, slope_l2: float = 0.0,
                 slope_l1: float = 0.0):
        self._fill(times, l1_grad, l2_grad, K0, K1, slope_l2, slope_l1)


def nyquist_resolution_defect(t: float, grid: Grid) -> float:
    """|e^{-t psi}| at the Nyquist frequency; above RESOLUTION_LIMIT the
    kernel spectrum is truncated and sampled kernels cannot be trusted.  psi
    is taken at that one frequency (no table is built), as a one-element
    array so that it rounds like the Nyquist entry of symbol_table."""
    return float(np.exp(-t * psi_symbol([0.5 / grid.spacing])[0].real))


def kernel_field(t: float, grid: Grid) -> KernelSnapshot:
    """Sample K(t, .) on the grid by inverse transform of e^{-t psi}.

    Raises FloatingPointError when the samples are not finite: e^{alpha0 t}
    overflows a double once t is past about 391.
    """
    if not (t > 0):
        raise ValueError(f"kernel time must be positive, got {t}")
    values = real_spectrum(grid).inverse(np.exp(-float(t) * symbol_table(grid)))
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"kernel K(t = {t:g}) is not finite in double precision")
    f = RealField(grid, values)
    mass = float(grid.spacing * np.sum(f.values))
    return KernelSnapshot(t=float(t), field=f, mass=mass)


def convolve_kernel(t: float, f: RealField) -> RealField:
    """K(t) * f through the spectral product e^{-t psi} F(f)."""
    if not (t > 0):
        raise ValueError(f"kernel time must be positive, got {t}")
    spectrum = real_spectrum(f.grid)
    coeffs = np.exp(-float(t) * symbol_table(f.grid)) * spectrum.forward(f.values)
    return RealField(f.grid, spectrum.inverse(coeffs))


def semigroup_residual(s: float, t: float, grid: Grid) -> float:
    """Relative L2 distance between K(s) * K(t) and K(s+t).

    The convolution is performed on the sampled kernels in physical space
    (via the discrete convolution theorem), not as a symbol product, so the
    check exercises the whole transform pipeline.
    """
    Ks = kernel_field(s, grid)
    Kt = Ks if t == s else kernel_field(t, grid)
    Kst = kernel_field(s + t, grid)
    conv = circular_convolve(Ks.field, Kt.field)
    return l2_norm(RealField(grid, conv.values - Kst.field.values)) / l2_norm(Kst.field)


def _brackets(dF: np.ndarray, spectrum: RealSpectrum):
    """Fine nodes after which f' changes sign, ascending, and f' at each and
    at the next fine node.  Fine node j FINE + i is sample j of the copy
    shifted by i dx / FINE; the copy after the last is copy 0 rolled by one."""
    dx_fine = spectrum.grid.spacing / FINE
    first = cur = spectrum.shifted(dF, 0.0)
    found = []
    for i in range(FINE):
        nxt = spectrum.shifted(dF, (i + 1) * dx_fine) if i + 1 < FINE else np.roll(first, -1)
        j = np.flatnonzero((cur >= 0) != (nxt >= 0))
        found.append((j * FINE + i, cur[j], nxt[j]))
        cur = nxt
    nodes, d_lo, d_hi = map(np.concatenate, zip(*found))
    order = np.argsort(nodes)
    return nodes[order], d_lo[order], d_hi[order]


def _gradient_l1(F: np.ndarray, dF: np.ndarray, spectrum: RealSpectrum) -> float:
    """||f'||_{L1} of the trig interpolant, as the total variation of f.

    Between consecutive extrema f is monotone, so int |f'| = sum |delta f|
    over extrema.  Sign changes of f' are bracketed on the FINE x finer grid
    and polished by safeguarded Newton (Numerical Recipes' rtsafe),
    vectorised over the brackets: the start is the secant of the two
    samples, f' and f'' come from one dense evaluation per iteration, and a
    bisection step replaces any Newton step that would leave the bracket or
    fails to halve the previous step.  The bracket ends take their signs
    from that same dense evaluation, so a zero within roundoff of a grid
    node cannot send the search to the wrong end.  Iteration stops once the
    step or the bracket is below ROOT_TOL fine spacings; an extremum that
    far off moves f by O(ROOT_TOL^2) only.  Direct summation dx * sum |f'|
    would carry O((dx/width)^2) bias from the kinks of |.| at the zero
    crossings, which for sharply peaked kernels never reaches the 1e-8
    self-convergence target.
    """
    nodes, d_lo, d_hi = _brackets(dF, spectrum)
    if not nodes.size:
        return 0.0
    dx_fine = spectrum.grid.spacing / FINE
    lo = -0.5 * spectrum.grid.length + dx_fine * nodes  # fine-grid nodes
    hi = lo + dx_fine
    m = len(lo)
    derivatives = np.stack([dF, spectrum.derivative * dF])  # f', f''
    f_ends = spectrum.evaluate(dF, np.concatenate([lo, hi]))
    f_lo, f_hi = f_ends[:m], f_ends[m:]
    # orient each bracket so that rising = f' > 0 on the hi side; ends whose
    # dense values do not straddle zero hold the root to roundoff already
    rising = f_hi > 0
    straddle = (f_lo > 0) != rising
    x = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
    secant = lo + dx_fine * d_lo / (d_lo - d_hi)
    x[straddle] = np.clip(secant[straddle], lo[straddle], hi[straddle])
    last_step = np.full(m, dx_fine)
    tol = ROOT_TOL * dx_fine
    active = np.flatnonzero(straddle)
    while active.size:
        xa, la, ha = x[active], lo[active], hi[active]
        f, df = spectrum.evaluate(derivatives, xa)
        below = (f > 0) != rising[active]
        la = np.where(below, xa, la)
        ha = np.where(below, ha, xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xa - f / df
        halves = np.abs(2.0 * f) <= np.abs(last_step[active] * df)
        take = (newton >= la) & (newton <= ha) & halves
        x_new = np.where(take, newton, 0.5 * (la + ha))
        step = x_new - xa
        x[active], lo[active], hi[active], last_step[active] = x_new, la, ha, step
        done = (np.abs(step) <= tol) | (ha - la <= tol)
        active = active[~done]
    extrema = np.sort(x)
    vals = spectrum.evaluate(F, extrema)
    return float(np.sum(np.abs(np.diff(vals))) + abs(vals[0] - vals[-1]))


def grad_kernel_norms(t_samples, grid: Grid) -> KernelNormFit:
    """Tabulate ||dK/dx(t)||_{L1,L2} over t_samples and fit the scalings."""
    times = np.sort(np.asarray(t_samples, dtype=np.float64))
    if times.size < 2:
        raise ValueError("need at least two sample times")
    if not np.all(times > 0):
        raise ValueError("all sample times must be positive")
    decade = times <= 10.0 * times[0]
    if decade.sum() < 2:
        raise ValueError(
            f"need at least two sample times in the fitting decade "
            f"[{times[0]:g}, {10.0 * times[0]:g}]"
        )
    defect = nyquist_resolution_defect(times[0], grid)
    if defect > RESOLUTION_LIMIT:
        raise ValueError(
            f"kernel at t={times[0]} is under-resolved on n={grid.n}: "
            f"Nyquist weight {defect:.2e} > {RESOLUTION_LIMIT}"
        )
    spectrum = real_spectrum(grid)
    psi = symbol_table(grid)
    l1 = np.empty_like(times)
    l2 = np.empty_like(times)
    for i, t in enumerate(times):
        F = np.exp(-float(t) * psi)
        dF = spectrum.derivative * F
        l1[i] = _gradient_l1(F, dF, spectrum)
        l2[i] = spectrum.l2_norm(dF)  # Parseval
    K0 = float(np.max(times**0.75 * l2))
    K1 = float(np.max(times**0.5 * l1))
    slope_l2 = float(np.polyfit(np.log(times[decade]), np.log(l2[decade]), 1)[0])
    slope_l1 = float(np.polyfit(np.log(times[decade]), np.log(l1[decade]), 1)[0])
    return KernelNormFit(
        times=times, l1_grad=l1, l2_grad=l2, K0=K0, K1=K1,
        slope_l2=slope_l2, slope_l1=slope_l1,
    )
