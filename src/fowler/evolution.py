"""Mild-solution time stepping for the perturbation and full dune equations.

Each step advances the Duhamel fixed-point map

    (Theta w)(dt) = K(dt) * v  -  int_0^dt dK/dx(dt - s) * N(w(s), t+s) ds,

with N(w, t) = w^2/2 + u_phi(t) w for the perturbation equation and w^2/2
for the full equation.  Per spectral mode the map reads

    w_hat = E v_hat - dt D [(phi1 - phi2) N0_hat + phi2 N1_hat],

where E = e^{-psi dt}, D = 2 i pi xi, and phi1, phi2 are the exponential
integrals of the two-point (endpoint) product rule in s - a second-order
exponential-trapezoid.  The implicit N1_hat is resolved by Picard iteration
seeded with an exponential Adams-Bashforth prediction of order q <= 7: N1_hat
is extrapolated from the step's start term N0_hat and the start terms of up
to six earlier steps of the same size, each ending where the next starts,
with the weights (-1)^j binomial(q, j + 1) on the j-th term, newest first:
(1), (2, -1), (3, -3, 1), ... up to (7, -21, 35, -35, 21, -7, 1).  Order
control works on evidence.  The order climbs from 1 to 4 one step at a time;
from there it moves up, to at most 7, after a step whose seed missed the
tolerance, and down, to no less than 4, after a step whose seed met it.  So
a run whose order-4 steps take one iteration never seeds above order 4.  A
step whose Picard iterate contracted by a ratio above RHO_HISTORY drops the
history, and a first step, piece 1 of a split step and the step after a
split have none, so each of them seeds with exponential Euler, N1_hat =
N0_hat, and the order climbs back one step at a time; a resumed run
continues the history of the run it resumes.  Only the starting iterate
depends on the seed, not the fixed point.  A step returns the iterate w
whose residual met the tolerance and N(w, t1), which the next step, or a
retry from the same state, takes as its N0_hat.  The stepper
carries every term as 2 N_hat, the transform of w^2 [+ 2 u_phi w], and its
tables carry the 1/2: scaling by 2 is exact, so this saves a multiply per
term and changes no bit.

Step control works on evidence: each dt step is first tried whole and, when
Picard contracts by a ratio above RHO_MAX, misses picard_tol or goes
non-finite, retried from the same state in 2, 4, 8, ... equal pieces, up to
MAX_SUBSTEPS.  The lemma's closed-form step t_star
(diagnostics.contraction_time_bound) is a worst case: it is reported and is
a test oracle, but does not steer.

Nonlinear products are formed in physical space and dealiased with the 2/3
rule by default, so quadratic aliasing cannot contaminate the energy-bound
checks.

The stepping state is the retained band of the real field's half spectrum
(grid.RealSpectrum): k = 0..n/3 under the 2/3 rule, so state, profile and
products carry n//3 + 1 entries and the modes above are zero by
construction, and all of k = 0..n/2 without it.  Every transform is an
rfft/irfft pair, every spectral array of a step holds the band, and norms
use the half-spectrum Parseval sum.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .diagnostics import DiagnosticsRecord, EnergyBoundParams, c1b_norm
from .grid import RealField, RealSpectrum, make_grid, real_spectrum
from .operator import ALPHA0, symbol_table
from .profiles import WaveProfile
from .record import Record

if TYPE_CHECKING:  # the run's description; the stepper only reads its fields
    from .config import SimConfig

__all__ = ["Trajectory", "BlowUpError", "PicardError", "evolve", "evolve_full"]

#: the a-priori bound is exact for true solutions; exceeding it by this
#: factor can only be a numerical fault
BLOWUP_FACTOR = 1e6

#: an unconverged Picard iterate contracting by a ratio above this aborts
#: the step, which is then retried in smaller pieces
RHO_MAX = 0.5

#: a step whose Picard iterate contracted by a ratio above this drops the
#: seed's history: extrapolating a term that changes fast over one step
#: overshoots, and the next step seeds with exponential Euler
RHO_HISTORY = 0.2

#: weights of the order-q Picard seed on the start terms (N0, N_-1, ...),
#: newest first, for q = 1..7: (-1)^j binomial(q, j + 1) on N_-j, so (1),
#: (2, -1), (3, -3, 1), ... (7, -21, 35, -35, 21, -7, 1); complex scalars,
#: since a complex band times a float first casts the float
SEED_WEIGHTS = tuple(tuple(np.complex128((-1) ** j * math.comb(q, j + 1)) for j in range(q))
                     for q in range(1, 8))

#: the seed's history grows one term per step up to this length (order 4),
#: and moves on evidence above it, up to len(SEED_WEIGHTS) - 1 terms
HISTORY_FLOOR = 3

#: a dt step that still fails when cut into this many pieces is a numerical
#: fault
MAX_SUBSTEPS = 1024


class BlowUpError(ArithmeticError):
    """Trajectory crossed the blow-up guard or produced non-finite values."""


class PicardError(ArithmeticError):
    """Inner fixed-point iteration failed to converge."""

    def __init__(self, message: str, last_ratio: float, iterations: int):
        super().__init__(message)
        self.last_ratio = last_ratio
        self.iterations = iterations  # nonlinear terms the failed loop evaluated


class Trajectory:
    """Recorded time series: diagnostics at each record time, the fields
    appended with them, and the run's Picard work.  A list left None starts
    empty (steps_by_seed_order at one zero per seed order)."""

    __slots__ = ("fields", "records", "params", "max_substeps", "picard_iters_total",
                 "steps_by_seed_order", "end", "picard_iters_max", "picard_ratio_max")

    def __init__(self, fields: list[RealField] | None = None,
                 records: list[DiagnosticsRecord] | None = None,
                 params: EnergyBoundParams | None = None, max_substeps: int = 1,
                 picard_iters_total: int = 0, steps_by_seed_order: list[int] | None = None,
                 end: _StepState | None = None, picard_iters_max: int = 0,
                 picard_ratio_max: float = 0.0):
        self.fields = [] if fields is None else fields
        self.records = [] if records is None else records
        self.params = params
        self.max_substeps = max_substeps  # most pieces any dt step was cut into
        self.picard_iters_total = picard_iters_total  # over every attempt, failed ones included
        # the most iterations and the largest contraction ratio of any
        # accepted step or piece
        self.picard_iters_max = picard_iters_max
        self.picard_ratio_max = picard_ratio_max
        # accepted steps and pieces by the order of their Picard seed, 1..7
        self.steps_by_seed_order = ([0] * len(SEED_WEIGHTS) if steps_by_seed_order is None
                                    else steps_by_seed_order)
        # the state after the last step, which evolve(..., resume=) continues from
        self.end = end

    @property
    def substepping_engaged(self) -> bool:
        return self.max_substeps > 1

    @property
    def times(self) -> list[float]:
        return [r.t for r in self.records]

    def append(self, f: RealField | None, record: DiagnosticsRecord) -> None:
        if self.records and record.t <= self.records[-1].t:
            raise ValueError("record times must be strictly increasing")
        if f is not None:
            self.fields.append(f)
        self.records.append(record)


# ---------------------------------------------------------------------------
# spectral stepping core (raw arrays; evolve and evolve_full validate on the
# way in and out)

def _phi_functions(z: np.ndarray, ez: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2, given ez = e^z, with
    series on |z| < 0.25, where the direct formulas cancel (and z = 0)."""
    small = np.abs(z) < 0.25
    phi1, phi2 = np.empty_like(z), np.empty_like(z)
    zd, ed = z[~small], ez[~small]
    phi1[~small] = (ed - 1.0) / zd
    phi2[~small] = (ed - 1.0 - zd) / zd**2
    zs = z[small]
    s1, s2, term = np.zeros_like(zs), np.zeros_like(zs), np.ones_like(zs)
    for k in range(13):
        s1 += term / math.factorial(k + 1)
        s2 += term / math.factorial(k + 2)
        term = term * zs
    phi1[small], phi2[small] = s1, s2
    return phi1, phi2


class _StepTables(Record):
    """E = e^{-psi dt}; A0 = dt D (phi1 - phi2) / 2 and A1 = dt D phi2 / 2,
    the weights of the s = 0 and s = dt samples of 2 N_hat; the stepped band
    k = 0..modes-1, the 2/3 rule's under dealias."""

    __slots__ = ("spectrum", "dt", "E", "A0", "A1", "modes")

    def __init__(self, spectrum: RealSpectrum, dt: float, E: np.ndarray, A0: np.ndarray,
                 A1: np.ndarray, modes: int):
        self._fill(spectrum, dt, E, A0, A1, modes)


@functools.lru_cache(maxsize=64)
def _step_tables(n: int, length: float, dt: float, dealias: bool) -> _StepTables:
    grid = make_grid(n, length)
    spectrum = real_spectrum(grid)
    modes = spectrum.dealias_modes if dealias else spectrum.size
    z = -dt * symbol_table(grid)[:modes]
    E = np.exp(z)
    phi1, phi2 = _phi_functions(z, E)
    D = spectrum.derivative[:modes]
    A0 = 0.5 * dt * D * (phi1 - phi2)
    A1 = 0.5 * dt * D * phi2
    for arr in (E, A0, A1):
        arr.setflags(write=False)
    return _StepTables(spectrum=spectrum, dt=dt, E=E, A0=A0, A1=A1, modes=modes)


def _nonlinear_hat(coeffs: np.ndarray, two_u: np.ndarray | None,
                   spectrum: RealSpectrum, modes: int) -> np.ndarray:
    """2 N_hat = F(w^2 [+ 2 u_phi w]) on the band k = 0..modes-1, with the
    product formed in physical space; two_u holds the samples of 2 u_phi,
    and the step tables carry the 1/2 (module docstring)."""
    w = spectrum.inverse(coeffs)
    # products in place on fresh arrays: the stepper's peak memory is its
    # live temporaries, and these run several times per Picard iteration
    if two_u is None:
        w *= w
        return spectrum.forward(w, modes)
    N = w * w
    w *= two_u
    N += w
    del w  # not alive while the forward transform allocates its output
    return spectrum.forward(N, modes)


def _single_step(
    vhat: np.ndarray,
    N0: np.ndarray | None,
    t0: float,
    t1: float,
    cfg: SimConfig,
    tables: _StepTables,
    u_of_t,
    history: tuple[np.ndarray, ...] = (),
) -> tuple[np.ndarray, np.ndarray | None, int, float]:
    """One Duhamel step of size tables.dt from t0 to t1 with start term N0;
    u_of_t samples the profile coupling, or is None when the term is absent
    (full-equation flux).  Returns (w, N(w, t1), iterations, ratio) for the
    first iterate w with |Theta w - w| <= tol.  An unconverged iterate
    contracting by a ratio above RHO_MAX, or going non-finite, aborts the
    loop with a PicardError.  history holds the start terms of up to six
    earlier same-size steps, newest first (see the module docstring); the
    seed's order is 1 + len(history).  N0, history and the returned term are
    2 N_hat, and u_of_t samples 2 u_phi (_nonlinear_hat)."""
    E, A0, A1 = tables.E, tables.A0, tables.A1
    spectrum, modes = tables.spectrum, tables.modes
    w = E * vhat  # the linear prediction, until the terms' parts are taken off
    if cfg.linear_only:
        return w, None, 0, 0.0
    # relative to the field's size, absolute for fields of norm <= 1
    tol = cfg.picard_tol * max(spectrum.l2_norm(w), 1.0)
    u1 = None if u_of_t is None else u_of_t(t1)
    w -= A0 * N0
    # the extrapolated end term P = sum_k c_k N_k over the start terms,
    # newest first; the seed is Theta's image of an iterate whose term is P
    weights = SEED_WEIGHTS[len(history)]
    P = weights[0] * N0
    for c, term in zip(weights[1:], history):
        P += c * term
    w -= A1 * P
    prev_delta = None
    ratio = 0.0
    for iteration in range(1, cfg.picard_max + 1):
        N1 = _nonlinear_hat(w, u1, spectrum, modes)
        # Theta w - w = -A1 (N1 - P): the residual without forming Theta w
        d = N1 - P
        d *= A1
        delta = spectrum.l2_norm(d)
        if not math.isfinite(delta):
            raise PicardError(
                f"non-finite Picard iterate on [{t0}, {t1}] (step {tables.dt:g})",
                last_ratio=ratio, iterations=iteration,
            )
        if prev_delta is not None and prev_delta > 0.0:
            ratio = delta / prev_delta
        if delta <= tol:
            return w, N1, iteration, ratio
        if ratio > RHO_MAX:
            raise PicardError(
                f"Picard contraction ratio {ratio:.3f} above {RHO_MAX} on "
                f"[{t0}, {t1}] (step {tables.dt:g})",
                last_ratio=ratio, iterations=iteration,
            )
        w -= d  # Theta w, whose end term is N1
        P, prev_delta = N1, delta
        del d  # not alive while the next iteration forms its term
    raise PicardError(
        f"Picard loop did not reach {tol:g} within {cfg.picard_max} "
        f"iterations on [{t0}, {t1}] (step {tables.dt:g}, last contraction "
        f"ratio {ratio:.3f})",
        last_ratio=ratio, iterations=cfg.picard_max,
    )


def _per_step_time(profile: WaveProfile, fn):
    """Callable t -> fn(t).  A moving profile gets fn itself, since a run asks
    each step time once; a static one, fn(0.0) computed here, once a run."""
    if profile.speed != 0.0:
        return fn
    value = fn(0.0)
    return lambda t: value


def _profile_sampler(cfg: SimConfig, tables: _StepTables):
    """Callable t -> physical samples of 2 u_phi(t), the coupling the
    stepper's terms take (_nonlinear_hat), dealiased in step with the state."""

    def sample_at(t: float) -> np.ndarray:
        values = cfg.profile.evaluate(t, cfg.grid).values
        if cfg.dealias:  # doubled in place: no second n-point array at once
            values = tables.spectrum.inverse(tables.spectrum.forward(values, tables.modes))
            values *= 2.0
            return values
        return 2.0 * values

    return _per_step_time(cfg.profile, sample_at)


class _StepState(Record):
    """A run after `step` steps of size dt, at t = step * dt: the band vhat,
    its term N(vhat, t) (None without the term), the seed's history, the
    start mass that mass drift is measured against, and whether the band is
    the perturbation v (coupled to the profile) or u = u_phi + v."""

    __slots__ = ("vhat", "nhat", "history", "step", "dt", "mass0", "coupled")
    __eq__, __hash__ = object.__eq__, object.__hash__  # arrays: no value == of use

    def __init__(self, vhat: np.ndarray, nhat: np.ndarray | None,
                 history: tuple[np.ndarray, ...], step: int, dt: float, mass0: float,
                 coupled: bool):
        self._fill(vhat, nhat, history, step, dt, mass0, coupled)


def _next_history(history: tuple[np.ndarray, ...], N0: np.ndarray | None, iters: int,
                  ratio: float) -> tuple[np.ndarray, ...]:
    """The history the next same-size step seeds from, after a step that
    started on N0 with history, took iters iterations and contracted by
    ratio (see the module docstring)."""
    if N0 is None or ratio > RHO_HISTORY:
        return ()
    size = len(history)  # the order is size + 1
    # Measured on tests/picard_sweep.py: order 4 climbing only after three
    # iterations held a static front at two per step; with no descent a moving
    # bump takes 162 iterations, not 112.
    if size < HISTORY_FLOOR or iters > 1:
        keep = min(size + 1, len(SEED_WEIGHTS) - 1)
    else:  # the seed met the tolerance: one order less may serve
        keep = max(size - 1, HISTORY_FLOOR)
    return ((N0,) + history)[:keep]


def _take_step(state: _StepState, cfg: SimConfig, tables, u_of_t, traj: Trajectory):
    """One dt step from state: whole first, on the caller's tables of step
    cfg.dt, then from the same state in 2, 4, 8, ... pieces while Picard
    reports a fault.  Returns the next state and the step's largest Picard
    iterations and ratio; traj counts the work."""
    grid, k, pieces, first_fault = cfg.grid, state.step, 1, None
    while True:
        # history only from earlier steps of the same size
        w, N, iters, ratio = state.vhat, state.nhat, 0, 0.0
        history = state.history if pieces == 1 else ()
        try:
            for j in range(pieces):
                # the last piece of a step ends on the same float the next
                # step starts on, so the term N(w, t) it ends with is the
                # next step's start term, bit for bit
                w, N_end, it, r = _single_step(
                    w, N, (k + j / pieces) * cfg.dt, (k + (j + 1) / pieces) * cfg.dt,
                    cfg, tables, u_of_t, history,
                )
                traj.picard_iters_total += it
                traj.steps_by_seed_order[len(history)] += 1
                history = _next_history(history, N, it, r)
                N = N_end
                iters, ratio = max(iters, it), max(ratio, r)
        except PicardError as exc:
            traj.picard_iters_total += exc.iterations
            if pieces >= MAX_SUBSTEPS:
                raise
            first_fault = first_fault or exc
            pieces *= 2
            tables = _step_tables(grid.n, grid.length, cfg.dt / pieces, cfg.dealias)
            continue
        if pieces > 1:
            if not traj.substepping_engaged:
                warnings.warn(f"sub-stepping engaged ({pieces} pieces per dt = {cfg.dt:g} "
                              f"step): {first_fault}", stacklevel=4)  # at evolve's caller
            traj.max_substeps = max(traj.max_substeps, pieces)
            history = ()
        return _StepState(w, N, history, k + 1, state.dt, state.mass0, state.coupled), iters, ratio


def _advance(cfg: SimConfig, v0_override: RealField | None, resume: Trajectory | None,
             profile_coupling: bool, keep_fields: bool) -> Trajectory:
    """March the initial data, or resume's end state, forward by cfg.steps
    steps; in full-equation mode (profile_coupling off) the state is
    u = u_phi + v and diagnostics measure the perturbation u - u_phi(t)."""
    grid = cfg.grid
    tables = _step_tables(grid.n, grid.length, cfg.dt, cfg.dealias)
    spectrum = tables.spectrum

    if not profile_coupling:  # ||u - u_phi(t)|| by Parseval against the profile's spectrum
        # negated once a run for a static profile: a complex copy costs less
        # than a complex negation
        minus_profile_hat = _per_step_time(
            cfg.profile, lambda t: -spectrum.forward(cfg.profile.evaluate(t, grid).values)
        )

    def perturbation_norm(vhat: np.ndarray, t: float) -> float:
        if profile_coupling:
            return spectrum.l2_norm(vhat)
        diff = minus_profile_hat(t).copy()  # the profile's modes above the band count too
        diff[: vhat.size] += vhat
        return spectrum.l2_norm(diff)

    def record(state: _StepState, t: float, l2: float, iters: int, ratio: float) -> None:
        vhat = state.vhat
        energy = spectrum.mode_energy(vhat)
        total = float(energy.sum())
        tail = float(energy[spectrum.dealias_modes:].sum() / total) if total > 0 else 0.0
        f = RealField(grid, spectrum.inverse(vhat)) if keep_fields else None
        traj.append(f, DiagnosticsRecord(
            t=t, l2=l2, energy_bound=traj.params.bound(t), mass=vhat[0].real,
            mass_drift=abs(vhat[0].real - state.mass0), picard_iters=iters,
            picard_ratio=ratio, spectral_tail=tail,
        ))

    if resume is not None:
        if v0_override is not None:
            raise ValueError("a resumed run starts from its end state, not from v0_override")
        state = resume.end
        wanted = (tables.modes, cfg.dt, profile_coupling)
        if (state.vhat.size, state.dt, state.coupled) != wanted:
            raise ValueError(f"cannot resume a run of (modes, dt, profile coupling) = "
                             f"{(state.vhat.size, state.dt, state.coupled)} as {wanted}")
        traj = Trajectory(params=resume.params)
    else:
        v0 = (v0_override if v0_override is not None else cfg.v0.build(grid)).values
        if not profile_coupling:
            v0 = cfg.profile.evaluate(0.0, grid).values + v0
        vhat = spectrum.forward(v0, tables.modes)
        v0_norm = perturbation_norm(vhat, 0.0)
        if not math.isfinite(v0_norm):
            raise BlowUpError("initial data norm is not finite")
        c_phi = 0.5 * c1b_norm(cfg.profile, grid)
        traj = Trajectory(params=EnergyBoundParams(alpha0=ALPHA0, c_phi=c_phi, v0_norm=v0_norm))
        state = _StepState(vhat, None, (), 0, cfg.dt, vhat[0].real, profile_coupling)
        record(state, 0.0, v0_norm, 0, 0.0)
    u_of_t = _profile_sampler(cfg, tables) if profile_coupling and not cfg.linear_only else None
    # after the finiteness check: an overflow in N is Picard's to report
    if resume is None and not cfg.linear_only:
        u0 = None if u_of_t is None else u_of_t(0.0)
        state = state._replace(nhat=_nonlinear_hat(state.vhat, u0, spectrum, tables.modes))
    last = state.step + cfg.steps
    while state.step < last:
        state, iters, ratio = _take_step(state, cfg, tables, u_of_t, traj)
        traj.picard_iters_max = max(traj.picard_iters_max, iters)
        traj.picard_ratio_max = max(traj.picard_ratio_max, ratio)
        t = state.step * cfg.dt
        l2 = perturbation_norm(state.vhat, t)
        if not math.isfinite(l2) or l2 > BLOWUP_FACTOR * max(traj.params.bound(t), 1e-300):
            raise BlowUpError(
                f"norm {l2:g} crossed the blow-up guard at t = {t:g}; "
                "mild solutions exist globally, so this is a numerical fault"
            )
        if state.step % cfg.output_stride == 0 or state.step == last:
            record(state, t, l2, iters, ratio)
    traj.end = state
    return traj


def evolve(cfg: SimConfig, *, v0_override: RealField | None = None,
           resume: Trajectory | None = None, keep_fields: bool = True) -> Trajectory:
    """Advance the perturbation equation by t_end.

    t_end is a whole number of steps of size dt (cfg.steps of them), so a
    single step is a run with t_end = dt and output_stride = 1.  v0_override
    replaces the configured initial condition.  resume continues a run of
    the same grid, dt and equation from the state its last step ended in
    (Trajectory.end), on that run's clock and energy bound, and records no
    start record: evolving to t1 and resuming for t2 - t1 gives the records
    and the end state of one run to t2, bit for bit.  keep_fields off
    records diagnostics only, without the field at each record time.
    """
    return _advance(cfg, v0_override, resume, profile_coupling=True, keep_fields=keep_fields)


def evolve_full(cfg: SimConfig, *, v0_override: RealField | None = None,
                resume: Trajectory | None = None, keep_fields: bool = True) -> Trajectory:
    """Advance the full equation for u = profile + perturbation directly.

    The state is u itself with flux u^2/2 and no coupling term.  Records
    report the perturbation norm ||u - u_phi(t)|| so the energy-bound column
    stays meaningful; mass is the mass of u.  v0_override, resume and
    keep_fields as in evolve.
    """
    return _advance(cfg, v0_override, resume, profile_coupling=False, keep_fields=keep_fields)
