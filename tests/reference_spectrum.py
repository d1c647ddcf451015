"""Full-spectrum transforms in FFT storage order: the test oracle for the
package's half spectrum (grid.RealSpectrum), with the same centring phase and
dx, 1/L scaling.  The unpaired Nyquist mode sits at index n/2, frequency -n/(2L).
"""

from dataclasses import dataclass, field

import numpy as np

from fowler.grid import Grid, RealField, _as_locked_array

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
