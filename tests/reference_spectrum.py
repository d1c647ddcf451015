"""Full-spectrum transforms in FFT storage order: the test oracle for the
package's half spectrum (grid.RealSpectrum), with the same centring phase and
dx, 1/L scaling.  The unpaired Nyquist mode sits at index n/2, frequency -n/(2L).

Also samples on a finer grid by zero padding, the oracle for shifted
copies of a field (grid.RealSpectrum.shifted), and the integral route's
multiplier summed node by node and mode by mode, the oracle for
operator._quadrature_multiplier.
"""

from dataclasses import dataclass, field

import numpy as np

from fowler.grid import Grid, RealField, _as_locked_array, make_grid, real_spectrum
from fowler.operator import LEVY_PREFACTOR, QuadratureSpec

# Relative tolerance on the Hermitian-symmetry check; violations beyond this
# signal a symbol or symmetry bug upstream, not roundoff.
HERMITIAN_RTOL = 1e-8


def frequencies(grid: Grid) -> np.ndarray:
    """Grid frequencies xi_k = k/L (cycles per unit), FFT order."""
    return np.fft.fftfreq(grid.n, d=grid.spacing)


def nyquist_index(grid: Grid) -> int:
    """Index of the unpaired k = -n/2 mode in FFT storage order."""
    return grid.n // 2


@dataclass(frozen=True)
class SpectralField:
    """Discrete Fourier coefficients of a field, FFT storage order.

    coeffs[m] approximates the continuous transform at xi_k = k/L where
    k = m for m < n/2 and k = m - n otherwise.
    """

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", _as_locked_array(self.coeffs, self.grid.n, np.complex128)
        )

    def coefficient(self, k: int) -> complex:
        """Coefficient of integer wavenumber k in [-n/2, n/2)."""
        n = self.grid.n
        if not (-n // 2 <= k < n // 2):
            raise IndexError(f"wavenumber {k} outside [-{n // 2}, {n // 2})")
        return complex(self.coeffs[k % n])


def _centering_phase(n: int) -> np.ndarray:
    # e^{-2 i pi x_0 xi_k} = (-1)^k accounts for the grid starting at -L/2.
    phase = np.ones(n)
    phase[1::2] = -1.0
    return phase


def forward_transform(f: RealField) -> SpectralField:
    """coeffs(k) = dx * sum_j e^{-2 i pi x_j xi_k} f(x_j); coeffs(0) is the
    discrete mass dx * sum f."""
    grid = f.grid
    coeffs = grid.spacing * _centering_phase(grid.n) * np.fft.fft(f.values)
    return SpectralField(grid=grid, coeffs=coeffs)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """Max deviation from coeffs(-k) == conj(coeffs(k)), relative to the peak."""
    n = len(coeffs)
    mirrored = coeffs[(-np.arange(n)) % n]
    scale = np.abs(coeffs).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(coeffs - np.conj(mirrored)).max() / scale)


def inverse_transform(F: SpectralField) -> RealField:
    """Invert forward_transform, rejecting spectra without Hermitian symmetry
    (they have no real field)."""
    defect = hermitian_defect(F.coeffs)
    if defect > HERMITIAN_RTOL:
        raise ValueError(
            f"coefficients are not Hermitian-symmetric (relative defect {defect:.3e}); "
            "cannot produce a real field"
        )
    grid = F.grid
    values = np.fft.ifft(F.coeffs * _centering_phase(grid.n)).real / grid.spacing
    return RealField(grid=grid, values=values)


def spectral_derivative(F: SpectralField, order: int) -> SpectralField:
    """Multiply by (2 i pi xi_k)^order, order 1 or 2; odd orders zero the
    unpaired Nyquist mode so derivatives of real fields stay real."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    grid = F.grid
    multiplier = (2j * np.pi * frequencies(grid)) ** order
    if order % 2 == 1:
        multiplier[nyquist_index(grid)] = 0.0
    return SpectralField(grid=grid, coeffs=F.coeffs * multiplier)


def reference_oversample(F: SpectralField, factor: int) -> np.ndarray:
    """Samples on the factor x finer grid of the same box of the field with
    full spectrum F: the spectrum padded with zeros, its Nyquist coefficient
    split evenly over +n/2 and -n/2, and one inverse transform of length
    factor * n."""
    n, m = F.grid.n, F.grid.n * factor
    padded = np.zeros(m, dtype=np.complex128)
    padded[: n // 2] = F.coeffs[: n // 2]
    padded[m - n // 2 + 1 :] = F.coeffs[n // 2 + 1 :]
    padded[n // 2] = padded[m - n // 2] = 0.5 * F.coeffs[n // 2].real
    return inverse_transform(SpectralField(make_grid(m, F.grid.length), padded)).values


def quadrature_multiplier_reference(grid: Grid, q: QuadratureSpec) -> np.ndarray:
    """operator._quadrature_multiplier with two sines per node and mode: the
    body's real part is -2 sin^2(theta/2), free of the cancellation in
    cos(theta) - 1, and its imaginary part sin(theta) - theta, summed in
    blocks of 32 nodes."""
    spectrum = real_spectrum(grid)
    z, w = q.nodes_weights()
    omega = 2.0 * np.pi * spectrum.frequencies
    versine = np.zeros(len(omega))  # sum_j c_j sin^2(theta_j / 2)
    odd = np.zeros(len(omega))  # sum_j c_j (sin theta_j - theta_j)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = LEVY_PREFACTOR * w * np.abs(z) ** (-7.0 / 3.0)
        for start in range(0, len(z), 32):
            block = slice(start, start + 32)
            theta = np.outer(z[block], omega)
            half_sine = np.sin(0.5 * theta)
            versine += weights[block] @ (half_sine * half_sine)
            odd += weights[block] @ (np.sin(theta) - theta)
        multiplier = -2.0 * versine + 1j * odd
        multiplier += LEVY_PREFACTOR * (  # gap Taylor term and closed-form tail
            0.75 * q.z_min ** (2.0 / 3.0) * spectrum.laplacian - 0.75 * q.z_max ** (-4.0 / 3.0)
            + 3.0 * q.z_max ** (-1.0 / 3.0) * spectrum.derivative
        )
    multiplier[0] = 0.0  # mean removal
    return multiplier
