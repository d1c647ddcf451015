"""The nonlocal dune operator: symbol form, singular-integral form, Sobolev norms.

The operator acts in Fourier space as multiplication by

    m(xi) = -a |xi|^{4/3} + i b xi |xi|^{1/3},

with a = 2 pi^2 Gamma(2/3) and b = sqrt(3) a; this is the factorized form
4 pi^2 Gamma(2/3) |xi|^{4/3} (-1/2 + i (sqrt 3 / 2) sgn xi).  The combined
symbol of the operator together with minus the second derivative is

    psi(xi) = 4 pi^2 xi^2 - a |xi|^{4/3} + i b xi |xi|^{1/3},

whose real part is negative exactly on the band 0 < |xi| < xi_c: the low
frequencies are amplified (anti-diffusion, the mechanism that grows dunes)
while the xi^2 diffusion wins beyond the band.

The same operator also has a pointwise singular-integral form,

    (2 pi)^{2/3} (4/9) int_{-inf}^{0} (phi(x+z) - phi(x) - phi'(x) z) / |z|^{7/3} dz,

implemented here by graded-panel quadrature with closed-form corrections
at both ends of the integration range; every piece is a Fourier multiplier
built from the quadrature nodes alone, so the two routes cross-validate each
other.  The prefactor follows from the Levy identity
int_0^inf (e^{-ws} - 1 + ws) s^{-7/3} ds = Gamma(-4/3) w^{4/3}: the bare
4/9 kernel alone realizes the symbol Gamma(2/3) (2 pi i xi)^{4/3}, and
matching m(xi) = 4 pi^2 Gamma(2/3) (i xi)^{4/3} requires the extra
(2 pi)^{2/3}.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .grid import Grid, RealField, real_spectrum
from .record import Record

__all__ = [
    "GAMMA_TWO_THIRDS",
    "A_I",
    "B_I",
    "XI_C",
    "XI_STAR",
    "ALPHA0",
    "QuadratureSpec",
    "psi_symbol",
    "nonlocal_multiplier",
    "apply_nonlocal_fourier",
    "apply_nonlocal_integral",
    "sobolev_norm",
]

# Euler Gamma(2/3), evaluated at import; regression value 1.35411793943 (12
# digits) is pinned in the test suite against an independent quadrature.
GAMMA_TWO_THIRDS = math.gamma(2.0 / 3.0)

A_I = 2.0 * math.pi**2 * GAMMA_TWO_THIRDS
B_I = math.sqrt(3.0) * A_I

# The amplified band in closed form: Re psi < 0 exactly for 0 < |xi| < XI_C,
# the most amplified frequency is XI_STAR, and ALPHA0 = -Re psi(XI_STAR) > 0
# is the maximal linear growth rate.
XI_C = (A_I / (4.0 * math.pi**2)) ** 1.5
XI_STAR = (A_I / (6.0 * math.pi**2)) ** 1.5
ALPHA0 = A_I**3 / (108.0 * math.pi**4)

# Warn when a field is not band-limited enough for the multiplier routes:
# top third of the spectrum above this fraction of the spectral peak.
BAND_LIMIT_WARN = 1e-8

# Far quadrature nodes per block when the integral route's multiplier is
# summed: a block holds NODE_CHUNK x (n/2)^{1/2} coarse and as many fine
# phases (264 KB at n = 8192), and takes one vector-matrix product per
# coarse row, so larger blocks mean fewer, longer products.
NODE_CHUNK = 128

# Gauss-Legendre nodes per quadrature panel.
GAUSS_ORDER = 10

# Most panels a quadrature rule may have: 40,960 nodes, with which operator-check
# at n = 8192 takes 0.5-1.5 s and 34 MiB on 2 vCPUs; far more would ask numpy
# for gigabytes of nodes.
MAX_PANELS = 4096

# (2 pi)^{2/3} (4/9): the singular-integral form's prefactor (module docstring).
LEVY_PREFACTOR = (4.0 / 9.0) * (2.0 * math.pi) ** (2.0 / 3.0)


def psi_symbol(xi):
    """Symbol psi(xi) = 4 pi^2 xi^2 - a |xi|^{4/3} + i b xi |xi|^{1/3}.

    Accepts a scalar or an ndarray of frequencies; psi(0) = 0 exactly and
    psi(-xi) = conj(psi(xi)).
    """
    xi = np.asarray(xi, dtype=np.float64)
    return 4.0 * np.pi**2 * xi**2 + nonlocal_multiplier(xi)


def nonlocal_multiplier(xi):
    """Fourier multiplier of the nonlocal operator alone: psi(xi) - 4 pi^2 xi^2."""
    xi = np.asarray(xi, dtype=np.float64)
    mag = np.abs(xi)
    out = -A_I * mag ** (4.0 / 3.0) + 1j * B_I * xi * mag ** (1.0 / 3.0)
    if out.ndim == 0:
        return complex(out)
    return out


@functools.lru_cache(maxsize=16)
def symbol_table(grid: Grid) -> np.ndarray:
    """Half-spectrum (k = 0..n/2) psi(xi_k) on a grid, shared and read-only.

    The unpaired Nyquist mode carries the real part of psi only: the odd
    imaginary term has no -k partner at k = n/2, and projecting it out keeps
    every exponential e^{-t psi} the Nyquist entry of a real kernel.
    """
    psi = psi_symbol(real_spectrum(grid).frequencies)
    psi[-1] = psi[-1].real
    psi.setflags(write=False)
    return psi


def apply_nonlocal_fourier(f: RealField) -> RealField:
    """Apply the nonlocal operator through its Fourier multiplier.

    Warns when the top third of the spectrum (the modes above the 2/3 rule's
    band) exceeds BAND_LIMIT_WARN of the spectral peak.  The odd imaginary
    part of the multiplier drops out at the Nyquist entry: irfft keeps only
    the real part of that (real) coefficient times the multiplier.

    Raises FloatingPointError on a non-finite result, e.g. an overflowed transform.
    """
    spectrum = real_spectrum(f.grid)
    coeffs = spectrum.forward(f.values)
    peak = np.abs(coeffs).max()
    top = np.abs(coeffs[spectrum.dealias_modes:]).max()
    if top > BAND_LIMIT_WARN * peak:
        warnings.warn(
            f"apply_nonlocal_fourier: top third of the spectrum is {top / peak:.2e} "
            "of the peak; the field is not band-limited enough for a trustworthy "
            "evaluation",
            stacklevel=2,
        )
    values = spectrum.inverse(coeffs * nonlocal_multiplier(spectrum.frequencies))
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("Fourier route produced non-finite values")
    return RealField(f.grid, values)


class QuadratureSpec(Record):
    """Graded-panel quadrature for the singular integral form.

    The integral over [-z_max, -z_min] is split into `panels` geometrically
    graded panels clustered toward -z_min, with a GAUSS_ORDER-node
    Gauss-Legendre rule per panel.
    """

    __slots__ = ("z_max", "z_min", "panels")

    def __init__(self, z_max: float, z_min: float, panels: int):
        self._fill(z_max, z_min, panels)
        if not (0 < self.z_min < self.z_max):
            raise ValueError(
                f"need 0 < z_min < z_max, got z_min={self.z_min}, z_max={self.z_max}"
            )
        if self.panels < 16:
            raise ValueError(f"panels must be at least 16, got {self.panels}")
        if self.panels > MAX_PANELS:
            raise ValueError(f"panels must be at most {MAX_PANELS}, got {self.panels}")

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes z in [-z_max, -z_min] and weights for dz."""
        edges = self.z_min * (self.z_max / self.z_min) ** (
            np.arange(self.panels + 1) / self.panels
        )
        # Golub-Welsch: the Gauss-Legendre nodes are the eigenvalues of the
        # Jacobi matrix with off-diagonal k / sqrt(4 k^2 - 1), the weights
        # twice the squared first components of its eigenvectors
        k = np.arange(1.0, GAUSS_ORDER)
        ref_x, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
        ref_w = 2.0 * vectors[0] ** 2
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        s = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
        w = (half[:, None] * ref_w[None, :]).ravel()
        return -s, w


@functools.lru_cache(maxsize=16)
def _quadrature_multiplier(grid: Grid, q: QuadratureSpec) -> np.ndarray:
    """Half-spectrum multiplier of the whole integral route: M(0) = 0 and

        M(xi) = sum_j c_j (e^{2 i pi z_j xi} - 1 - 2 i pi xi z_j)
                + P ((3/4) z_min^{2/3} (2 i pi xi)^2 - (3/4) z_max^{-4/3}
                     + 3 z_max^{-1/3} (2 i pi xi)).

    The sum is the graded-panel quadrature body, c_j the node weight times
    P |z_j|^{-7/3} (P = LEVY_PREFACTOR).  The P term is the leading Taylor
    term (1/2) phi'' z^2 of the integrand over the gap (-z_min, 0) plus the
    closed form of -phi(x) - phi'(x) z over the tail (-inf, -z_max]; the
    tail's phi(x+z) part decays like the field times |z|^{-7/3} and is
    dropped.  M(0) = 0 removes the mean, which the operator annihilates and
    which would unbalance the tail's constant term (constants map to zero).

    The body is summed with no sine per node and mode; with omega = 2 pi xi:
    - near nodes, |z_j| omega_max <= 1, enter through their moments
      mu_m = sum_j c_j z_j^m as sum_{m >= 2} mu_m (i omega)^m / m!, by
      Horner in omega and cut where the terms fall below roundoff (about 16
      terms).  No difference of large terms is formed, so tiny z_j do not
      cancel: z_min = 1e-30 still passes operator-check;
    - the other nodes enter as sum_j c_j e^{i z_j omega_k} - sum_j c_j
      - i omega_k sum_j c_j z_j, where mode k = a B + b (B ~ sqrt(n/2)) takes
      the coarse phase e^{i z_j omega_{aB}} times the fine phase
      e^{i z_j omega_b}.  Per block of NODE_CHUNK nodes each coarse row a is
      one vector-matrix product with the fine phases.
    So the work is O(nodes sqrt n) exponentials plus nodes x n/2
    multiply-adds, where the per-node formula (tests/reference_spectrum.py)
    takes 2 nodes x n/2 sines; the two agree to 6e-12 relative at n = 8192
    on the default rule, worst at k = 1, where the far nodes' sum cancels
    down to M.

    Built from the quadrature nodes and the two end terms alone, never from
    nonlocal_multiplier, so the integral route stays an independent check
    of the Levy prefactor.  Memory is O(n) however many panels the rule
    has.  Cached per (grid, rule), read-only; may be non-finite when
    |z|^{-7/3} overflows, which the caller reports.
    """
    spectrum = real_spectrum(grid)
    z, w = q.nodes_weights()
    omega = 2.0 * np.pi * spectrum.frequencies
    size, omega_max = len(omega), omega[-1]
    weights = LEVY_PREFACTOR * w * np.abs(z) ** (-7.0 / 3.0)
    near = np.abs(z) * omega_max <= 1.0
    # series[m - 2] = mu_m omega_max^m / m!, which bounds its term for
    # every omega <= omega_max: all c_j z_j^m share one sign
    x = z[near] * omega_max
    term = weights[near] * (0.5 * x * x)
    series = [term.sum()]
    while abs(series[-1]) > np.finfo(np.float64).eps * abs(series[0]):
        term *= x / (len(series) + 2)
        series.append(term.sum())
    s = 1j * omega / omega_max
    multiplier = np.zeros(size, dtype=np.complex128)
    for b in reversed(series):
        multiplier += b
        multiplier *= s
    multiplier *= s
    z, weights = z[~near], weights[~near]
    block = math.isqrt(size - 1) + 1
    far = np.zeros((-(-size // block), block), dtype=np.complex128)
    for start in range(0, len(z), NODE_CHUNK):
        nodes = slice(start, start + NODE_CHUNK)
        fine = np.exp(1j * np.outer(z[nodes], omega[:block]))
        coarse = np.exp(1j * np.outer(omega[::block], z[nodes]))
        coarse *= weights[nodes]
        for a, row in enumerate(coarse):  # far[a, b] = sum_j c_j coarse_ja fine_jb
            far[a] += row @ fine
    multiplier += far.ravel()[:size]
    multiplier -= weights.sum() + 1j * omega * (weights @ z)
    multiplier += LEVY_PREFACTOR * (  # gap Taylor term and closed-form tail
        0.75 * q.z_min ** (2.0 / 3.0) * spectrum.laplacian - 0.75 * q.z_max ** (-4.0 / 3.0)
        + 3.0 * q.z_max ** (-1.0 / 3.0) * spectrum.derivative
    )
    multiplier[0] = 0.0  # mean removal
    multiplier.setflags(write=False)
    return multiplier


def apply_nonlocal_integral(f: RealField, q: QuadratureSpec) -> RealField:
    """Apply the nonlocal operator through its singular-integral form.

    (2 pi)^{2/3} (4/9) int_{-inf}^{0} (phi(x+z) - phi(x) - phi'(x) z) / |z|^{7/3} dz
    (prefactor: module docstring), with phi(x+z) the periodic spectral
    interpolant.  Quadrature body, gap term and tail are all multipliers, so
    the route is one product on the half spectrum (_quadrature_multiplier)
    between one forward and one inverse transform; irfft keeps only the real
    part of the (real) Nyquist coefficient times the multiplier, the cosine
    of the real interpolant's shift.

    Raises FloatingPointError when the quadrature yields non-finite values,
    e.g. a z_min so small that |z|^{-7/3} overflows.
    """
    grid = f.grid
    if q.z_max > grid.length / 2.0 + 1e-12:
        raise ValueError(
            f"z_max={q.z_max} exceeds half the box ({grid.length / 2.0}); "
            "the periodic wrap would double-count"
        )
    spectrum = real_spectrum(grid)
    values = spectrum.inverse(spectrum.forward(f.values) * _quadrature_multiplier(grid, q))
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(
            f"integral route produced non-finite values (z_min = {q.z_min:g}, "
            f"z_max = {q.z_max:g})"
        )
    return RealField(grid, values)


def sobolev_norm(f: RealField, s: float) -> float:
    """Discrete Sobolev norm (sum_k (1 + xi_k^2)^s |coeffs_k|^2 / L)^{1/2}.

    At s = 0 this is the L^2 norm by the Parseval identity.
    """
    spectrum = real_spectrum(f.grid)
    energy = spectrum.mode_energy(spectrum.forward(f.values))
    weight = (1.0 + spectrum.frequencies**2) ** s
    return float(np.sqrt(np.sum(weight * energy) / f.grid.length))
