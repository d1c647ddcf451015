"""Periodic grid, the Fourier transform convention, and spectral calculus.

The whole line is approximated by a periodic box of length L centered at 0,
sampled at x_j = -L/2 + j*dx.  Transforms carry the physical dx and 1/L
factors so that discrete coefficients approximate the continuous transform

    F f (xi) = int e^{-2 i pi x xi} f(x) dx

directly, with frequencies xi_k = k/L in cycles per unit length.  Every
symbol formula downstream is written in these continuous-frequency units and
evaluated verbatim on the grid frequencies.

Real fields have Hermitian spectra, coeffs(-k) = conj(coeffs(k)), so the
package stores only the half spectrum k = 0..n/2 (RealSpectrum, built on
rfft/irfft); it is the one transform convention, and only this module calls
numpy.fft.  The Nyquist entry k = n/2 is unpaired: it is real, contributes
through its cosine only, and first derivatives zero it.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .record import Record

__all__ = [
    "Grid",
    "RealField",
    "make_grid",
    "load_samples",
    "circular_convolve",
    "RealSpectrum",
    "real_spectrum",
]

_COMPLEX = np.dtype(np.complex128)


class Grid(NamedTuple):
    """Uniform periodic 1-D grid with n points on a box of length L."""

    n: int
    length: float

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def points(self) -> np.ndarray:
        """Sample points x_j = -L/2 + j*dx, j = 0..n-1."""
        x = -0.5 * self.length + self.spacing * np.arange(self.n)
        x.setflags(write=False)
        return x


def make_grid(n: int, length: float) -> Grid:
    """Build a Grid, validating the point count and box length.

    n must be even (the FFT layout pairs +k with -k and keeps a single
    Nyquist slot) and at least 8; length must be positive and finite, and
    large enough that the spectral tables are: the Laplacian's Nyquist entry
    (pi n / L)^2 is their largest.
    """
    if n != int(n) or n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if n < 8:
        raise ValueError(f"n must be at least 8, got {n}")
    if not (0 < length < math.inf):
        raise ValueError(f"length must be positive and finite, got {length}")
    nyquist = math.pi * int(n) / float(length)  # Python floats: inf, not a warning
    if not math.isfinite(nyquist * nyquist):
        raise ValueError(f"length {length} is too small for n = {n}: the spectral "
                         f"tables' largest entry, (pi n / length)^2, overflows")
    return Grid(n=int(n), length=float(length))


def load_samples(path, grid: Grid) -> RealField:
    """Read a field on grid from a comma-separated text file.

    One row per grid point; the last column holds the values (leading
    columns, such as x, are ignored).  Raises OSError when the file cannot be
    read and ValueError when it is not numeric, is ragged, has the wrong
    number of rows, or holds non-finite values.
    """
    with warnings.catch_warnings():  # an empty file fails the row count below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(path, delimiter=",", ndmin=2)[:, -1]
    if len(values) != grid.n:
        raise ValueError(f"{path} has {len(values)} rows, grid has {grid.n} points")
    return RealField(grid, values)


def _as_locked_array(values, n: int, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class RealField(Record):
    """A real function sampled on a Grid.  Immutable after construction."""

    __slots__ = ("grid", "values")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity ==, so a field hashes

    def __init__(self, grid: Grid, values: np.ndarray):
        self._fill(grid, _as_locked_array(values, grid.n, np.float64))

    def __repr__(self) -> str:
        return f"RealField(grid={self.grid!r})"


def circular_convolve(f: RealField, g: RealField) -> RealField:
    """Periodic physical-space convolution (f * g)(x_i) = dx * sum_j f(x_i - x_j) g(x_j).

    In the continuous-coefficient convention this is the product of the
    coefficients; the centring phases account for samples starting at
    x = -L/2 while convolution offsets start at 0.
    """
    if f.grid != g.grid:
        raise ValueError("fields must share a grid")
    spectrum = real_spectrum(f.grid)
    F = spectrum.forward(f.values)
    coeffs = F * (F if g is f else spectrum.forward(g.values))
    return RealField(grid=f.grid, values=spectrum.inverse(coeffs))


class RealSpectrum:
    """Half-spectrum (rfft) transforms of real fields on one grid.

    Entry k = 0..n/2 of a coefficient array approximates the continuous
    transform at xi_k = k/L (the k < 0 half is its conjugate and is never
    stored).  The Nyquist entry is real for real fields; `derivative`
    zeroes it, `laplacian` keeps it.  A coefficient array may also be a
    leading band k = 0..m-1, whose modes above the band are zero: forward,
    inverse, mode_energy and l2_norm take one, and dealias_modes is the 2/3
    rule's band.  Off-grid samples come from the same tables: `shifted`
    translates the grid, `shifted_copies` samples the m times finer grid as
    m copies shifted by dx/m (with no transform longer than n), `evaluate`
    takes any points.
    Stored tables are read-only; build instances through real_spectrum,
    which caches them.
    """

    def __init__(self, grid: Grid):
        n = grid.n
        self.grid = grid
        self.size = n // 2 + 1
        self.frequencies = np.fft.rfftfreq(n, d=grid.spacing)
        # e^{-2 i pi x_0 xi_k} = (-1)^k accounts for the grid starting at -L/2
        phase = np.ones(self.size)
        phase[1::2] = -1.0
        # complex: the same bits as the real tables, without a cast per multiply
        self._to_coeffs = (grid.spacing * phase).astype(np.complex128)
        self._to_values = (phase / grid.spacing).astype(np.complex128)
        self.derivative = 2j * np.pi * self.frequencies
        self.derivative[-1] = 0.0
        self.laplacian = -((2.0 * np.pi * self.frequencies) ** 2)
        # 2/3 rule: keep |k| <= n/3, so quadratic products alias only into
        # modes outside the band k = 0..dealias_modes-1
        self.dealias_modes = n // 3 + 1
        for arr in (self.frequencies, self._to_coeffs, self._to_values,
                    self.derivative, self.laplacian):
            arr.setflags(write=False)
        # the 2/3 band's phase tables, so the stepper's transforms slice none
        self._band_to_coeffs = self._to_coeffs[: self.dealias_modes]
        self._band_to_values = self._to_values[: self.dealias_modes]

    def forward(self, values: np.ndarray, modes: int | None = None) -> np.ndarray:
        """Half-spectrum coefficients dx * sum_j e^{-2 i pi x_j xi_k} f(x_j) of
        the leading band k = 0..modes-1, all n/2 + 1 of them by default.  With
        modes = dealias_modes the band is the 2/3 rule: the entries of the full
        spectrum that the rule keeps, without the zeros above them.  Either way
        the result is a new array that owns its memory."""
        coeffs = np.fft.rfft(values)
        if modes is None or modes >= self.size:
            coeffs *= self._to_coeffs  # in place: no second temporary
            return coeffs
        # a compact band: a view of the rfft output would pin all of it
        if modes == self.dealias_modes:
            return coeffs[:modes] * self._band_to_coeffs
        return coeffs[:modes] * self._to_coeffs[:modes]

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Real samples of the field whose half-spectrum coefficients are
        coeffs, a leading band k = 0..len(coeffs)-1; the modes above the band
        are zero (irfft pads them)."""
        m = coeffs.shape[-1]
        table = self._band_to_values if m == self.dealias_modes else self._to_values[:m]
        return np.fft.irfft(coeffs * table, self.grid.n)

    def evaluate(self, coeffs: np.ndarray, x) -> np.ndarray:
        """Evaluate the trigonometric interpolant with half-spectrum
        coefficients coeffs at arbitrary points x.

        The sum is the DC term, twice the real part of the interior modes,
        and the unpaired Nyquist mode through its cosine only, matching the
        real interpolant that shifted samples.  A 2-D coeffs (one
        spectrum per row) returns one row of values per spectrum.

        Mode k = a*B + b is split into a coarse and a fine phase,
        e^{2 i pi x xi_k} = e^{2 i pi x xi_{aB}} e^{2 i pi x xi_b} with
        B ~ sqrt(n/2), so a point costs O(sqrt n) exponentials and one
        O(n) matrix product instead of n/2 exponentials.
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        xi = self.frequencies
        modes = self.size - 1  # k = 0..n/2-1; the Nyquist entry goes apart
        block = math.isqrt(modes - 1) + 1
        rows = -(-modes // block)
        interior = np.zeros(coeffs.shape[:-1] + (rows * block,), dtype=np.complex128)
        interior[..., 1:modes] = coeffs[..., 1:-1]
        interior = interior.reshape(coeffs.shape[:-1] + (rows, block))
        fine = np.exp(2j * np.pi * np.outer(x, xi[:block]))
        coarse = np.exp(2j * np.pi * np.outer(x, xi[: modes : block]))
        # sum_a coarse_a sum_b fine_b c_{aB+b}, per point, as two short sums
        # (einsum's own loops: too small to be worth a BLAS call)
        partial = np.einsum("pb,...ab->...pa", fine, interior)
        sums = np.einsum("pa,...pa->...p", coarse, partial).real
        nyquist = np.cos(2 * np.pi * x * xi[-1]) * coeffs[..., -1:].real
        return (coeffs[..., :1].real + 2.0 * sums + nyquist) / self.grid.length

    def shift_phase(self, s: float) -> np.ndarray:
        """The translation by s, e^{2 i pi xi_k s} for k = 0..n/2.  The phase
        has period L in s, so s is first wrapped into the box (exactly, and
        unchanged inside it): a finite s cannot overflow it."""
        return np.exp(2j * np.pi * self.frequencies * math.remainder(s, self.grid.length))

    def shifted(self, coeffs: np.ndarray, s: float) -> np.ndarray:
        """Samples at x_j + s of the interpolant with half-spectrum
        coefficients coeffs.  irfft keeps only the real part of the (real)
        Nyquist coefficient times its phase, the cosine of the real
        interpolant."""
        return self.inverse(coeffs * self.shift_phase(s))

    def shifted_copies(self, coeffs: np.ndarray, m: int, phase: np.ndarray | None = None):
        """Yield shifted(coeffs, j dx / m) for j = 0..m-1: together the m
        n-point copies hold the nodes of the m times finer grid, fine node
        i m + j being sample i of copy j.  Copy 0 is inverse(coeffs), and
        each later copy steps the coefficients by one multiply with
        phase = shift_phase(dx / m) instead of forming its own exponential;
        a caller that shifts many spectra by the same m passes the phase in.
        A copy is transformed only when it is asked for, and the generator
        holds one coefficient array of its own."""
        if phase is None:
            phase = self.shift_phase(self.grid.spacing / m)
        for j in range(m):
            if j == 1:
                coeffs = coeffs * phase  # a new array: the caller's stays as it is
            elif j:
                coeffs *= phase
            yield self.inverse(coeffs)

    def mode_energy(self, coeffs: np.ndarray) -> np.ndarray:
        """|coeffs|^2 per entry of a leading band, interior entries counted
        twice (once for their -k partner) and the Nyquist entry, when the band
        reaches it, once; sums to the full-spectrum sum of |coeffs|^2."""
        energy = coeffs.real**2 + coeffs.imag**2
        energy[1 : self.size - 1] *= 2.0  # the interior, never the Nyquist entry
        return energy

    def l2_norm(self, coeffs: np.ndarray) -> float:
        """L2 norm by Parseval, sqrt(sum_k |coeffs(k)|^2 / L), of the field
        whose leading band is coeffs; the unpaired Nyquist entry counts once
        when the band reaches it.  One pass over the float view of the band
        (einsum: np.dot would load BLAS and its buffers), which is copied
        first only when it is not a contiguous complex128 array.  The rest is
        Python float arithmetic, where inf and nan propagate without a
        floating-point warning."""
        if coeffs.dtype is not _COMPLEX or not coeffs.flags.c_contiguous:
            coeffs = np.ascontiguousarray(coeffs, dtype=_COMPLEX)
        v = coeffs.view(np.float64)
        c0 = coeffs.item(0)
        energy = 2.0 * float(np.einsum("i,i->", v, v)) - c0.real * c0.real - c0.imag * c0.imag
        if coeffs.size == self.size:
            cn = coeffs.item(-1)
            energy = energy - cn.real * cn.real - cn.imag * cn.imag
        return math.sqrt(energy / self.grid.length)


@functools.lru_cache(maxsize=16)
def real_spectrum(grid: Grid) -> RealSpectrum:
    """Shared RealSpectrum for a grid."""
    return RealSpectrum(grid)
