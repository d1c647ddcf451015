"""Mild-solution time stepping for the perturbation and full dune equations.

Each step advances the Duhamel fixed-point map

    (Theta w)(dt) = K(dt) * v  -  int_0^dt dK/dx(dt - s) * N(w(s), t+s) ds,

with N(w, t) = w^2/2 + u_phi(t) w for the perturbation equation and w^2/2
for the full equation.  Per spectral mode the map reads

    w_hat = E v_hat - dt D [(phi1 - phi2) N0_hat + phi2 N1_hat],

where E = e^{-psi dt}, D = 2 i pi xi, and phi1, phi2 are the exponential
integrals of the two-point (endpoint) product rule in s - a second-order
exponential-trapezoid.  The implicit N1_hat is resolved by Picard iteration
seeded with the linear prediction E v_hat.

Step control works on evidence: each dt step is first tried whole and, when
Picard contracts by a ratio above RHO_MAX, misses picard_tol or goes
non-finite, retried from the same state in 2, 4, 8, ... equal pieces, up to
MAX_SUBSTEPS.  The lemma's closed-form step t_star (contraction_time_bound)
is a worst case: it is reported and is a test oracle, but does not steer.

Nonlinear products are formed in physical space and dealiased with the 2/3
rule by default (state, profile, and products all masked), so quadratic
aliasing cannot contaminate the energy-bound checks.

The stepping state is the half spectrum k = 0..n/2 of the real field
(grid.RealSpectrum): every transform is an rfft/irfft pair, every spectral
array has n/2 + 1 entries, and norms use the half-spectrum Parseval sum.
The kernel constants K0 and K1 that enter t_star are pinned in
STEP_CONSTANTS rather than refitted per run; stepping_norm_fit() is the
refit, and the test suite checks the two agree to 1e-12 relative.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord, EnergyBoundParams, c1b_norm, l2_norm
from .grid import Grid, RealField, RealSpectrum, load_samples, make_grid, real_spectrum
from .kernel import KernelNormFit, grad_kernel_norms
from .operator import unstable_band
from .profiles import WaveProfile

__all__ = [
    "InitialCondition",
    "SimConfig",
    "Trajectory",
    "ContractionBound",
    "StepResult",
    "BlowUpError",
    "PicardError",
    "nonlinear_flux",
    "duhamel_step",
    "contraction_time_bound",
    "StepConstants",
    "STEP_CONSTANTS",
    "stepping_norm_fit",
    "evolve",
    "evolve_full",
]

#: the a-priori bound is exact for true solutions; exceeding it by this
#: factor can only be a numerical fault
BLOWUP_FACTOR = 1e6

#: reference window for the kernel constants entering the step-size control;
#: the constants grow with the horizon, and the per-step bound needs them at
#: the dt scale, not at T = O(1)
CONTROL_WINDOW = (1e-4, 1e-2)

#: an unconverged Picard iterate contracting by a ratio above this aborts
#: the step, which is then retried in smaller pieces
RHO_MAX = 0.5

#: a dt step that still fails when cut into this many pieces is a numerical
#: fault
MAX_SUBSTEPS = 1024


class BlowUpError(RuntimeError):
    """Trajectory crossed the blow-up guard or produced non-finite values."""


class PicardError(RuntimeError):
    """Inner fixed-point iteration failed to converge."""

    def __init__(self, message: str, last_ratio: float):
        super().__init__(message)
        self.last_ratio = last_ratio


@dataclass(frozen=True)
class InitialCondition:
    """Initial perturbation: a preset shape or samples read from a file."""

    kind: str = "gaussian"
    amplitude: float = 0.1
    width: float = 1.0
    offset: float = 0.0
    mode_k: int = 12
    seed: int = 0
    path: str | None = None

    def build(self, grid: Grid) -> RealField:
        x = grid.points
        if self.kind == "zero":
            return RealField(grid, np.zeros(grid.n))
        if self.kind == "constant":
            return RealField(grid, np.full(grid.n, self.amplitude))
        if self.kind == "gaussian":
            u = (x - self.offset) / self.width
            return RealField(grid, self.amplitude * np.exp(-(u**2)))
        if self.kind == "mode":
            if abs(self.mode_k) >= grid.n // 2:
                raise ValueError(
                    f"mode_k = {self.mode_k} aliases on n = {grid.n}: need |mode_k| < {grid.n // 2}"
                )
            xi = self.mode_k / grid.length
            return RealField(grid, self.amplitude * np.cos(2 * np.pi * xi * (x - self.offset)))
        if self.kind == "white-noise":
            rng = np.random.default_rng(self.seed)
            return RealField(grid, self.amplitude * rng.standard_normal(grid.n))
        if self.kind == "file":
            if not self.path:
                raise ValueError("file initial condition requires a path")
            return load_samples(self.path, grid)
        raise ValueError(f"unknown initial condition kind {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one evolution run."""

    grid: Grid
    profile: WaveProfile
    v0: InitialCondition
    t_end: float = 1.0
    dt: float = 1e-3
    picard_tol: float = 1e-10
    picard_max: int = 25
    dealias: bool = True
    output_stride: int = 10
    linear_only: bool = False  # test hook: drop the nonlinear term entirely

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be at least dt, got {self.t_end} < {self.dt}")
        if not (0 < self.picard_tol <= 1e-2):
            raise ValueError(f"picard_tol must lie in (0, 1e-2], got {self.picard_tol}")
        if self.picard_max < 1:
            raise ValueError(f"picard_max must be >= 1, got {self.picard_max}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")


@dataclass(frozen=True)
class StepResult:
    field: RealField
    iterations: int
    ratio: float


@dataclass
class Trajectory:
    """Recorded time series: fields plus diagnostics at each record time."""

    times: list[float] = field(default_factory=list)
    fields: list[RealField] = field(default_factory=list)
    records: list[DiagnosticsRecord] = field(default_factory=list)
    params: EnergyBoundParams | None = None
    max_substeps: int = 1  # most pieces any dt step was cut into

    @property
    def substepping_engaged(self) -> bool:
        return self.max_substeps > 1

    def append(self, t: float, f: RealField, record: DiagnosticsRecord) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError("record times must be strictly increasing")
        self.times.append(t)
        self.fields.append(f)
        self.records.append(record)


@dataclass(frozen=True)
class ContractionBound:
    """Safe step size from the uniqueness lemma's contraction constant.

    t_star solves ratio_bound(t) = 2 M K0 t^{1/4} + 2 K1 t^{1/2} u = 1 in
    closed form, where M is the norm budget of the two iterates being
    compared and u the C^1_b norm of the profile.
    """

    M: float
    K0: float
    K1: float
    u_phi_norm: float
    t_star: float

    def equation_residual(self) -> float:
        return abs(self.ratio_bound(self.t_star) - 1.0)

    def ratio_bound(self, dt: float) -> float:
        """Contraction factor the lemma guarantees for steps of size dt."""
        return (
            2.0 * self.M * self.K0 * dt**0.25
            + 2.0 * self.K1 * math.sqrt(dt) * self.u_phi_norm
        )


@dataclass(frozen=True)
class StepConstants:
    """Kernel gradient constants of the contraction bound: K0 bounds
    t^{3/4} ||dK/dx||_L2 and K1 bounds t^{1/2} ||dK/dx||_L1."""

    K0: float
    K1: float


#: K0 and K1 of stepping_norm_fit(), pinned: they are constants of the
#: continuous kernel over CONTROL_WINDOW, so step control never refits them.
#: tests/test_evolution.py refits them and compares to 1e-12 relative.
STEP_CONSTANTS = StepConstants(K0=0.34418969225222185, K1=0.808638649332362)


def contraction_time_bound(
    M: float, fit: KernelNormFit | StepConstants, u_phi_norm: float
) -> ContractionBound:
    """Closed-form positive root of 2 M K0 t^{1/4} + 2 K1 t^{1/2} u = 1.

    In y = t^{1/4} this is a y^2 + b y - 1 = 0, whose positive root is taken
    in the rationalized form y = 2 / (b + sqrt(b^2 + 4 a)): it covers a = 0
    and never subtracts nearly equal numbers, which the textbook form
    (-b + sqrt(b^2 + 4 a)) / (2 a) does whenever 4 a << b^2.
    """
    K0, K1 = fit.K0, fit.K1
    if M < 0 or u_phi_norm < 0:
        raise ValueError("norm budgets cannot be negative")
    a = 2.0 * K1 * u_phi_norm  # quadratic coefficient in y = t^{1/4}
    b = 2.0 * M * K0
    if a == 0.0 and b == 0.0:
        raise ValueError("all-zero inputs: no contraction constraint to solve")
    t_star = (2.0 / (b + math.sqrt(b * b + 4.0 * a))) ** 4
    bound = ContractionBound(M=M, K0=K0, K1=K1, u_phi_norm=u_phi_norm, t_star=t_star)
    if bound.equation_residual() > 1e-10:
        raise ArithmeticError(
            f"contraction root lost precision: residual {bound.equation_residual():.2e}"
        )
    return bound


@functools.lru_cache(maxsize=1)
def stepping_norm_fit() -> KernelNormFit:
    """Kernel gradient constants over the small-t control window, fitted on a
    dedicated grid fine enough to resolve the smallest time: the reference
    that STEP_CONSTANTS pins."""
    grid = make_grid(8192, 40.0)
    times = np.logspace(
        math.log10(CONTROL_WINDOW[0]), math.log10(CONTROL_WINDOW[1]), 9
    )
    return grad_kernel_norms(times, grid)


# ---------------------------------------------------------------------------
# spectral stepping core (raw arrays; the dataclass wrappers validate on the
# way in and out)

def _phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2 with series fallback
    near z = 0 where the direct formulas cancel."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 0.25
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        ez = np.exp(zs)
        phi1 = (ez - 1.0) / zs
        phi2 = (ez - 1.0 - zs) / zs**2
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(13):
        s1 += term / math.factorial(k + 1)
        s2 += term / math.factorial(k + 2)
        term = term * z
    return np.where(small, s1, phi1), np.where(small, s2, phi2)


@dataclass(frozen=True)
class _StepTables:
    spectrum: RealSpectrum
    dt: float
    E: np.ndarray
    A0: np.ndarray  # dt * D * (phi1 - phi2), weight of the s = 0 sample
    A1: np.ndarray  # dt * D * phi2, weight of the s = dt sample
    mask: np.ndarray | None


@functools.lru_cache(maxsize=64)
def _step_tables(n: int, length: float, dt: float, dealias: bool) -> _StepTables:
    from .operator import symbol_table

    grid = make_grid(n, length)
    spectrum = real_spectrum(grid)
    psi = symbol_table(grid).psi
    E = np.exp(-dt * psi)
    phi1, phi2 = _phi_functions(-dt * psi)
    A0 = dt * spectrum.derivative * (phi1 - phi2)
    A1 = dt * spectrum.derivative * phi2
    for arr in (E, A0, A1):
        arr.setflags(write=False)
    mask = spectrum.dealias_mask if dealias else None
    return _StepTables(spectrum=spectrum, dt=dt, E=E, A0=A0, A1=A1, mask=mask)


def _masked_coeffs(values: np.ndarray, spectrum: RealSpectrum,
                   mask: np.ndarray | None) -> np.ndarray:
    coeffs = spectrum.forward(values)
    return coeffs if mask is None else coeffs * mask


def _nonlinear_hat(coeffs: np.ndarray, u_phi_values: np.ndarray | None,
                   spectrum: RealSpectrum, mask: np.ndarray | None) -> np.ndarray:
    """F(w^2/2 [+ u_phi w]) with the product formed in physical space."""
    w = spectrum.inverse(coeffs)
    N = 0.5 * w * w
    if u_phi_values is not None:
        N += u_phi_values * w
    return _masked_coeffs(N, spectrum, mask)


def nonlinear_flux(v: RealField, u_phi: RealField, dealias: bool) -> RealField:
    """Spatial derivative of v^2/2 + u_phi v (the conservative flux term).

    With dealias set, both factors and the product are truncated by the 2/3
    rule, so the quadratic term is free of aliasing.
    """
    if v.grid != u_phi.grid:
        raise ValueError("fields must share a grid")
    spectrum = real_spectrum(v.grid)
    mask = spectrum.dealias_mask if dealias else None
    u_vals = u_phi.values
    if mask is not None:
        u_vals = spectrum.inverse(_masked_coeffs(u_vals, spectrum, mask))
    N_hat = _nonlinear_hat(_masked_coeffs(v.values, spectrum, mask), u_vals, spectrum, mask)
    return RealField(v.grid, spectrum.inverse(spectrum.derivative * N_hat))


def _single_step(
    vhat: np.ndarray,
    t0: float,
    t1: float,
    cfg: SimConfig,
    tables: _StepTables,
    u_of_t,
) -> tuple[np.ndarray, int, float]:
    """One Duhamel step of size tables.dt from t0 to t1; u_of_t samples the
    profile coupling, or is None when the term is absent (full-equation
    flux).  An unconverged iterate contracting by a ratio above RHO_MAX
    aborts the loop with a PicardError."""
    E, A0, A1 = tables.E, tables.A0, tables.A1
    spectrum, mask = tables.spectrum, tables.mask
    linear = E * vhat
    if cfg.linear_only:
        return linear, 0, 0.0
    u0 = u1 = None
    if u_of_t is not None:
        u0, u1 = u_of_t(t0), u_of_t(t1)
    N0 = _nonlinear_hat(vhat, u0, spectrum, mask)
    base = linear - A0 * N0
    w = linear  # Picard seed: the linear prediction
    # relative to the field's size, absolute for fields of norm <= 1
    tol = cfg.picard_tol * max(spectrum.l2_norm(linear), 1.0)
    prev_delta = None
    ratio = 0.0
    for iteration in range(1, cfg.picard_max + 1):
        N1 = _nonlinear_hat(w, u1, spectrum, mask)
        w_new = base - A1 * N1
        delta = spectrum.l2_norm(w_new - w)
        if not math.isfinite(delta):
            raise BlowUpError(f"non-finite Picard iterate at t = {t1} (step {tables.dt:g})")
        if prev_delta is not None and prev_delta > 0.0:
            ratio = delta / prev_delta
        w = w_new
        if delta <= tol:
            return w, iteration, ratio
        if ratio > RHO_MAX:
            raise PicardError(
                f"Picard contraction ratio {ratio:.3f} above {RHO_MAX} at "
                f"t = {t0} (step {tables.dt:g})",
                last_ratio=ratio,
            )
        prev_delta = delta
    raise PicardError(
        f"Picard loop did not reach {tol:g} within {cfg.picard_max} "
        f"iterations at t = {t0} (step {tables.dt:g}, last contraction ratio "
        f"{ratio:.3f})",
        last_ratio=ratio,
    )


def duhamel_step(v: RealField, t_now: float, dt: float, cfg: SimConfig) -> StepResult:
    """Advance the field by one exponential-trapezoid Duhamel step of size dt.

    The step is taken as given: a Picard fault raises PicardError or
    BlowUpError, and splitting the step is the job of the stepping loop in
    evolve/evolve_full.
    """
    tables = _step_tables(cfg.grid.n, cfg.grid.length, dt, cfg.dealias)
    u_of_t = _profile_sampler(cfg, tables)
    vhat = _masked_coeffs(v.values, tables.spectrum, tables.mask)
    vhat, iters, ratio = _single_step(vhat, t_now, t_now + dt, cfg, tables, u_of_t)
    return StepResult(
        field=RealField(cfg.grid, tables.spectrum.inverse(vhat)),
        iterations=iters,
        ratio=ratio,
    )


def _profile_sampler(cfg: SimConfig, tables: _StepTables):
    """Callable t -> physical profile samples, dealiased in step with the state.

    A static profile is sampled once; a moving one keeps its last sample, so
    the sample at the end of one step serves the start of the next.
    """
    static = cfg.profile.speed == 0.0

    @functools.lru_cache(maxsize=1)
    def sample_at(t: float) -> np.ndarray:
        values = cfg.profile.evaluate(t, cfg.grid).values
        if tables.mask is None:
            return values
        return tables.spectrum.inverse(_masked_coeffs(values, tables.spectrum, tables.mask))

    return lambda t: sample_at(0.0 if static else float(t))


def _advance(cfg: SimConfig, initial: RealField, profile_coupling: bool,
             t_offset: float) -> Trajectory:
    """March the state forward; in full-equation mode (profile_coupling off)
    diagnostics measure the perturbation u - u_phi(t), not u itself."""
    grid = cfg.grid
    full_mode = not profile_coupling
    _, _, alpha0 = unstable_band()
    u_norm = c1b_norm(cfg.profile, grid)
    c_phi = 0.5 * u_norm

    tables = _step_tables(grid.n, grid.length, cfg.dt, cfg.dealias)
    spectrum = tables.spectrum
    u_of_t = _profile_sampler(cfg, tables) if profile_coupling else None

    vhat = _masked_coeffs(initial.values, spectrum, tables.mask)
    mass0 = vhat[0].real
    tail_modes = np.arange(spectrum.size) > grid.n / 3

    def perturbation_norm(t: float) -> float:
        if not full_mode:
            return spectrum.l2_norm(vhat)
        u_phi = cfg.profile.evaluate(t, grid).values
        return l2_norm(RealField(grid, spectrum.inverse(vhat) - u_phi))

    v0_norm = perturbation_norm(t_offset)
    if not math.isfinite(v0_norm):
        raise BlowUpError("initial data norm is not finite")
    params = EnergyBoundParams(alpha0=alpha0, c_phi=c_phi, v0_norm=v0_norm)
    traj = Trajectory(params=params)

    def record(t, iters, ratio):
        energy = spectrum.mode_energy(vhat)
        total = float(energy.sum())
        tail = float(energy[tail_modes].sum() / total) if total > 0 else 0.0
        f = RealField(grid, spectrum.inverse(vhat))
        rec = DiagnosticsRecord(
            t=t,
            l2=perturbation_norm(t),
            energy_bound=params.bound(t - t_offset),
            mass=vhat[0].real,
            mass_drift=abs(vhat[0].real - mass0),
            picard_iters=iters,
            picard_ratio=ratio,
            spectral_tail=tail,
        )
        traj.append(t, f, rec)

    def grid_time(step_index: int, j: int, pieces: int) -> float:
        # the last piece of a step ends on the same float the next step
        # starts on, so a moving profile's sample is reused across it
        return t_offset + (step_index - 1 + j / pieces) * cfg.dt

    def take_step(step_index: int) -> tuple[np.ndarray, int, float]:
        """One dt step from vhat: whole first, then from the same state in
        2, 4, 8, ... pieces while Picard reports a fault."""
        pieces, first_fault = 1, None
        while True:
            piece_tables = _step_tables(grid.n, grid.length, cfg.dt / pieces, cfg.dealias)
            w, iters, ratio = vhat, 0, 0.0
            try:
                for j in range(pieces):
                    w, it, r = _single_step(
                        w, grid_time(step_index, j, pieces),
                        grid_time(step_index, j + 1, pieces),
                        cfg, piece_tables, u_of_t,
                    )
                    iters, ratio = max(iters, it), max(ratio, r)
            except (PicardError, BlowUpError) as exc:
                if pieces >= MAX_SUBSTEPS:
                    raise
                first_fault = first_fault or exc
                pieces *= 2
                continue
            if pieces > 1:
                if not traj.substepping_engaged:
                    warnings.warn(
                        f"sub-stepping engaged ({pieces} pieces per dt = "
                        f"{cfg.dt:g} step): {first_fault}",
                        stacklevel=3,
                    )
                traj.max_substeps = max(traj.max_substeps, pieces)
            return w, iters, ratio

    record(t_offset, 0, 0.0)
    n_steps = int(round(cfg.t_end / cfg.dt))
    for step_index in range(1, n_steps + 1):
        vhat, iters, ratio = take_step(step_index)
        t = t_offset + step_index * cfg.dt
        l2_now = perturbation_norm(t)
        if not math.isfinite(l2_now) or l2_now > BLOWUP_FACTOR * max(
            params.bound(t - t_offset), 1e-300
        ):
            raise BlowUpError(
                f"norm {l2_now:g} crossed the blow-up guard at t = {t:g}; "
                "mild solutions exist globally, so this is a numerical fault"
            )
        if step_index % cfg.output_stride == 0 or step_index == n_steps:
            record(t, iters, ratio)
    return traj


def evolve(
    cfg: SimConfig,
    *,
    v0_override: RealField | None = None,
    t_offset: float = 0.0,
) -> Trajectory:
    """Advance the perturbation equation from 0 to t_end.

    The run takes round(t_end / dt) whole steps of size dt.  v0_override
    replaces the configured initial condition (used for restarts); t_offset
    shifts the absolute time seen by a moving profile, so evolving to t1 and
    restarting reproduces a single longer run.
    """
    initial = v0_override if v0_override is not None else cfg.v0.build(cfg.grid)
    return _advance(cfg, initial, profile_coupling=True, t_offset=t_offset)


def evolve_full(
    cfg: SimConfig,
    *,
    v0_override: RealField | None = None,
    t_offset: float = 0.0,
) -> Trajectory:
    """Advance the full equation for u = profile + perturbation directly.

    The state is u itself with flux u^2/2 and no coupling term.  Records
    report the perturbation norm ||u - u_phi(t)|| so the energy-bound column
    stays meaningful; mass is the mass of u.
    """
    v0 = v0_override if v0_override is not None else cfg.v0.build(cfg.grid)
    u0 = RealField(cfg.grid, cfg.profile.evaluate(t_offset, cfg.grid).values + v0.values)
    return _advance(cfg, u0, profile_coupling=False, t_offset=t_offset)
