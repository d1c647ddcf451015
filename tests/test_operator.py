"""Symbol anchors, the two evaluation routes, and the Sobolev-norm machinery."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from fowler import operator
from fowler.grid import RealField, make_grid
from fowler.operator import (
    A_I,
    ALPHA0,
    B_I,
    GAMMA_TWO_THIRDS,
    XI_C,
    XI_STAR,
    QuadratureSpec,
    apply_nonlocal_fourier,
    apply_nonlocal_integral,
    nonlocal_multiplier,
    psi_symbol,
    sobolev_norm,
    symbol_table,
)

from conftest import band_limited_field, gamma_two_thirds_oracle, spy_transforms, traced_peak
from reference_spectrum import quadrature_multiplier_reference

# 12-digit regression value for Gamma(2/3), derived once from the quadrature
# oracle below.
GAMMA_TWO_THIRDS_REFERENCE = 1.35411793943


def test_gamma_against_independent_quadrature():
    oracle = gamma_two_thirds_oracle()
    assert abs(GAMMA_TWO_THIRDS - oracle) < 1e-10
    assert GAMMA_TWO_THIRDS == pytest.approx(GAMMA_TWO_THIRDS_REFERENCE, abs=5e-12)


def test_symbol_coefficients_from_gamma_oracle():
    oracle = gamma_two_thirds_oracle()
    assert abs(A_I - 2.0 * math.pi**2 * oracle) < 1e-10
    assert abs(B_I - 2.0 * math.sqrt(3.0) * math.pi**2 * oracle) < 1e-10
    assert B_I == pytest.approx(math.sqrt(3.0) * A_I, rel=1e-15)


def test_psi_at_zero_is_exactly_zero():
    assert psi_symbol(0.0) == 0.0 + 0.0j


def test_psi_at_one():
    val = psi_symbol(1.0)
    assert val == pytest.approx(complex(4.0 * math.pi**2 - A_I, B_I), rel=1e-14)
    # frozen anchor, derived from the Gamma quadrature oracle
    assert val.real == pytest.approx(12.749200855243721, abs=1e-10)
    assert val.imag == pytest.approx(46.29636145598596, abs=1e-10)


def test_psi_hermitian():
    for xi in (1.0, 0.3, 7.25):
        assert psi_symbol(-xi) == pytest.approx(np.conj(psi_symbol(xi)), rel=1e-15)


def test_unstable_band_against_search_oracles():
    # bisection oracle for the band edge
    xi_c_oracle = optimize.brentq(lambda x: psi_symbol(x).real, 0.1, 1.0, xtol=1e-14)
    assert abs(XI_C - xi_c_oracle) < 1e-12
    # golden-section oracle for the maximal growth rate
    res = optimize.minimize_scalar(
        lambda x: psi_symbol(x).real,
        bracket=(0.1, 0.3, XI_C),
        method="golden",
        options={"xtol": 1e-13},
    )
    assert abs(ALPHA0 - (-res.fun)) < 1e-8
    assert abs(XI_STAR - res.x) < 1e-6
    # frozen anchors
    assert XI_C == pytest.approx(0.5571084478374956, abs=1e-12)
    assert ALPHA0 == pytest.approx(1.8152458474729194, abs=1e-12)


def test_band_sign_structure():
    assert psi_symbol(2.0 * XI_C).real > 0
    assert psi_symbol(0.5 * XI_C).real < 0
    assert psi_symbol(XI_STAR).real == pytest.approx(-ALPHA0, rel=1e-12)


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_symbol_table_symmetry(n):
    # half spectrum k = 0..n/2: the k < 0 entries are the conjugates that
    # test_psi_hermitian checks on the symbol; the unpaired Nyquist entry
    # keeps the real part only
    g = make_grid(n, 40.0)
    psi = symbol_table(g)
    assert psi.shape == (n // 2 + 1,)
    assert psi[0] == 0.0
    for k in range(1, n // 2):
        assert psi[k] == pytest.approx(psi_symbol(k / g.length), rel=1e-14)
    assert psi[n // 2] == pytest.approx(psi_symbol(0.5 * n / g.length).real, rel=1e-14)
    assert psi[n // 2].imag == 0.0


def test_fourier_route_annihilates_constants(grid_1024):
    out = apply_nonlocal_fourier(RealField(grid_1024, np.full(1024, 3.7)))
    assert np.abs(out.values).max() < 1e-12


def test_fourier_route_gaussian_anchor(grid_1024):
    # value at x = 0 against direct quadrature of the multiplier integral
    oracle, _ = integrate.quad(
        lambda xi: -2.0
        * math.pi**2
        * GAMMA_TWO_THIRDS
        * abs(xi) ** (4.0 / 3.0)
        * math.exp(-math.pi * xi**2),
        -np.inf,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    closed_form = -2.0 * math.pi ** (5.0 / 6.0) * GAMMA_TWO_THIRDS * math.gamma(7.0 / 6.0)
    assert oracle == pytest.approx(closed_form, abs=1e-11)

    # the discrete route evaluates the periodized operator; the |xi|^{4/3}
    # kink in the symbol leaves O(L^{-7/3}) image tails, ~4e-4 at L = 40
    def center_value(n, length):
        g = make_grid(n, length)
        out = apply_nonlocal_fourier(RealField(g, np.exp(-np.pi * g.points**2)))
        idx = np.argmin(np.abs(g.points))
        assert g.points[idx] == 0.0
        return out.values[idx]

    v40 = center_value(1024, 40.0)
    assert v40 == pytest.approx(oracle, abs=1e-3)
    assert v40 == pytest.approx(-6.522208157723845, abs=1e-3)
    v80 = center_value(2048, 80.0)
    assert abs(v80 - oracle) < abs(v40 - oracle)  # periodization error shrinks


def test_fourier_route_single_mode_two_mode_oracle(grid_1024):
    # cos mode: reconstruct the action from 2x2 complex arithmetic
    g = grid_1024
    k = 9
    xi1 = k / g.length
    f = RealField(g, np.cos(2 * np.pi * xi1 * g.points))
    out = apply_nonlocal_fourier(f)
    m = nonlocal_multiplier(xi1)
    expected = 0.5 * (
        m * np.exp(2j * np.pi * xi1 * g.points)
        + np.conj(m) * np.exp(-2j * np.pi * xi1 * g.points)
    )
    assert np.abs(expected.imag).max() < 1e-12
    assert np.abs(out.values - expected.real).max() < 1e-9


def test_symbol_consistency_per_mode(grid_1024):
    # applying the Fourier route to a grid mode multiplies it by
    # psi(xi_k) - 4 pi^2 xi_k^2
    g = grid_1024
    k = 21
    xi = k / g.length
    cos_part = apply_nonlocal_fourier(RealField(g, np.cos(2 * np.pi * xi * g.points)))
    sin_part = apply_nonlocal_fourier(RealField(g, np.sin(2 * np.pi * xi * g.points)))
    acted = cos_part.values + 1j * sin_part.values  # action on e^{2 i pi xi x}
    expected = (psi_symbol(xi) - 4 * np.pi**2 * xi**2) * np.exp(
        2j * np.pi * xi * g.points
    )
    assert np.abs(acted - expected).max() < 1e-9 * abs(psi_symbol(xi))


def test_band_limit_warning():
    g = make_grid(64, 40.0)
    rng = np.random.default_rng(3)
    with pytest.warns(UserWarning, match="band-limited"):
        apply_nonlocal_fourier(RealField(g, rng.standard_normal(64)))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError, match="z_min"):
        QuadratureSpec(z_max=1.0, z_min=2.0, panels=32)
    with pytest.raises(ValueError, match="panels"):
        QuadratureSpec(z_max=10.0, z_min=1e-4, panels=8)


def test_gauss_legendre_rule_matches_leggauss():
    # unit panel [1, 2]: the rule's nodes and weights, mapped back to [-1, 1]
    x, w = QuadratureSpec(z_max=2.0, z_min=1.0, panels=16).nodes_weights()
    panel = slice(0, operator.GAUSS_ORDER)
    half = 0.5 * (2.0 ** (1 / 16) - 1.0)
    ref_x, ref_w = np.polynomial.legendre.leggauss(operator.GAUSS_ORDER)
    assert np.abs((-x[panel] - 1.0 - half) / half - ref_x).max() < 1e-13
    assert np.abs(w[panel] / half - ref_w).max() < 1e-13


@pytest.mark.parametrize("n", [256, 2048, 16384])
@pytest.mark.parametrize("z_min", [1e-8, 1e-4, 0.1])
@pytest.mark.parametrize("panels, box_fraction", [(16, 0.5), (96, 0.25)])
def test_quadrature_multiplier_matches_per_node_reference(n, z_min, panels, box_fraction):
    # near-node moment series and coarse/fine phase products against two
    # sines per node and mode
    g = make_grid(n, 40.0)
    q = QuadratureSpec(z_max=box_fraction * g.length, z_min=z_min, panels=panels)
    fast = operator._quadrature_multiplier(g, q)
    reference = quadrature_multiplier_reference(g, q)
    assert fast[0] == 0.0
    assert np.all(np.abs(fast[1:] - reference[1:]) <= 1e-9 * np.abs(reference[1:]))


def test_integral_route_rejects_half_box_violation(grid_1024):
    q = QuadratureSpec(z_max=30.0, z_min=1e-4, panels=32)
    f = RealField(grid_1024, np.exp(-np.pi * grid_1024.points**2))
    with pytest.raises(ValueError, match="half the box"):
        apply_nonlocal_integral(f, q)


def test_integral_route_annihilates_constants(grid_1024):
    q = QuadratureSpec(z_max=grid_1024.length / 2, z_min=1e-4, panels=48)
    out = apply_nonlocal_integral(RealField(grid_1024, np.full(1024, 2.5)), q)
    assert np.abs(out.values).max() < 1e-12


def test_integral_route_matches_fourier_on_gaussian(grid_2048):
    g = grid_2048
    f = RealField(g, np.exp(-np.pi * g.points**2))
    q = QuadratureSpec(z_max=20.0, z_min=1e-4, panels=48)
    by_integral = apply_nonlocal_integral(f, q)
    by_fourier = apply_nonlocal_fourier(f)
    err = np.abs(by_integral.values - by_fourier.values).max()
    assert err / np.abs(by_fourier.values).max() < 1e-3


def test_integral_route_refinement_converges(grid_1024):
    # start coarse enough that the inner-cutoff error dominates: it decays
    # like z_min^{5/3} down to the tail floor
    g = grid_1024
    f = RealField(g, np.exp(-np.pi * g.points**2))
    reference = apply_nonlocal_fourier(f).values
    scale = np.abs(reference).max()
    errs = []
    for z_min, panels in [(0.256, 16), (0.064, 32), (0.016, 64)]:
        q = QuadratureSpec(z_max=20.0, z_min=z_min, panels=panels)
        out = apply_nonlocal_integral(f, q)
        errs.append(np.abs(out.values - reference).max() / scale)
    assert errs[0] > errs[1] > errs[2]


def test_integral_route_is_one_transform_pair(grid_1024, monkeypatch):
    # quadrature body, gap term, tail and mean removal are one cached
    # multiplier: one forward and one inverse transform per application
    calls = spy_transforms(monkeypatch)
    f = RealField(grid_1024, np.exp(-np.pi * grid_1024.points**2))
    apply_nonlocal_integral(f, QuadratureSpec(z_max=20.0, z_min=1e-4, panels=48))
    assert calls == ["forward", "inverse"]


def test_integral_route_never_reads_the_fourier_symbol(grid_1024, monkeypatch):
    # the multiplier is built from the quadrature nodes and the end terms,
    # so the route stays an independent check of the Levy prefactor
    def forbidden(xi):
        raise AssertionError("integral route used nonlocal_multiplier")

    monkeypatch.setattr(operator, "nonlocal_multiplier", forbidden)
    operator._quadrature_multiplier.cache_clear()
    f = RealField(grid_1024, np.exp(-np.pi * grid_1024.points**2))
    q = QuadratureSpec(z_max=20.0, z_min=1e-4, panels=48)
    by_integral = apply_nonlocal_integral(f, q)
    monkeypatch.undo()
    by_fourier = apply_nonlocal_fourier(f)
    err = np.abs(by_integral.values - by_fourier.values).max()
    assert err / np.abs(by_fourier.values).max() < 1e-3


def test_equivalence_on_random_corpus(grid_1024):
    rng = np.random.default_rng(42)
    g = grid_1024
    q = QuadratureSpec(z_max=g.length / 2, z_min=1e-4, panels=48)
    for _ in range(5):
        f = band_limited_field(g, rng)
        a = apply_nonlocal_fourier(f)
        b = apply_nonlocal_integral(f, q)
        h2 = sobolev_norm(f, 2.0)
        l2_diff = math.sqrt(g.spacing * np.sum((a.values - b.values) ** 2))
        assert l2_diff / h2 < 1e-3


def test_sobolev_norm_s0_is_l2():
    rng = np.random.default_rng(5)
    g = make_grid(256, 20.0)
    f = RealField(g, rng.standard_normal(256))
    l2 = math.sqrt(g.spacing * np.sum(f.values**2))
    assert sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.0])
def test_sobolev_norm_constant(s):
    g = make_grid(64, 8.0)
    f = RealField(g, np.ones(64))
    assert sobolev_norm(f, s) == pytest.approx(math.sqrt(8.0), rel=1e-12)


def test_sobolev_norm_single_mode_ratio():
    g = make_grid(64, 8.0)
    xi1 = 1.0 / g.length
    f = RealField(g, np.cos(2 * np.pi * xi1 * g.points))
    ratio = sobolev_norm(f, 1.0) / sobolev_norm(f, 0.0)
    assert ratio == pytest.approx(math.sqrt(1.0 + xi1**2), rel=1e-12)


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
def test_sobolev_bound(s, grid_1024):
    rng = np.random.default_rng(101)
    bound_const = 4.0 * math.pi**2 * GAMMA_TWO_THIRDS
    for _ in range(5):
        f = band_limited_field(grid_1024, rng)
        lhs = sobolev_norm(apply_nonlocal_fourier(f), s - 4.0 / 3.0)
        rhs = bound_const * sobolev_norm(f, s)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_sobolev_bound_sharpness(grid_2048):
    # spectrum concentrated at high |xi| pushes the ratio toward 1
    g = grid_2048
    xi0 = 400 / g.length  # = 10
    f = RealField(g, np.cos(2 * np.pi * xi0 * g.points))
    bound_const = 4.0 * math.pi**2 * GAMMA_TWO_THIRDS
    ratio = sobolev_norm(apply_nonlocal_fourier(f), 2.0 - 4.0 / 3.0) / (
        bound_const * sobolev_norm(f, 2.0)
    )
    assert ratio >= 0.99
    assert ratio <= 1.0 + 1e-12


def test_integral_route_memory_is_linear_in_n():
    # the quadrature body is one multiplier summed in node blocks: no
    # nodes x n matrix, so doubling the rule adds only its O(nodes) node
    # arrays to the peak
    from fowler.operator import _quadrature_multiplier

    g = make_grid(8192, 40.0)
    f = RealField(g, np.exp(-np.pi * g.points**2))
    apply_nonlocal_integral(f, QuadratureSpec(z_max=20.0, z_min=1e-4, panels=16))
    peaks = []
    for panels in (48, 96):
        _quadrature_multiplier.cache_clear()
        peaks.append(traced_peak(apply_nonlocal_integral, f,
                                 QuadratureSpec(z_max=20.0, z_min=1e-4, panels=panels)))
    assert peaks[0] <= 8 * 2**20
    assert peaks[1] - peaks[0] <= 64 * 2**10
