"""Pseudo-spectral simulator and verification harness for the Fowler dune equation.

The package evaluates the nonlocal fractional operator by two independent
routes (Fourier multiplier and singular integral), builds the semigroup
kernel of the linear part, advances mild solutions of the travelling-wave
perturbation equation by a Duhamel/Picard integrator, and ships executable
checks for the quantitative properties of all of these.
"""

__version__ = "0.1.0"

#: module -> the public names the package re-exports from it.  A name is
#: looked up in its module on first use (PEP 562 __getattr__), so
#: `import fowler` loads neither numpy nor any module of the package.
_EXPORTS = {
    "grid": ("Grid", "RealField", "circular_convolve", "make_grid"),
    "operator": ("A_I", "ALPHA0", "B_I", "XI_C", "XI_STAR", "QuadratureSpec",
                 "apply_nonlocal_fourier", "apply_nonlocal_integral", "psi_symbol",
                 "sobolev_norm"),
    "kernel": ("KernelNormFit", "KernelSnapshot", "convolve_kernel", "grad_kernel_norms",
               "kernel_field", "semigroup_residual"),
    "profiles": ("WaveProfile",),
    "evolution": ("BlowUpError", "PicardError", "Trajectory", "evolve", "evolve_full"),
    "diagnostics": ("ContractionBound", "DiagnosticsRecord", "EnergyBoundParams", "K0", "K1",
                    "c1b_norm", "contraction_time_bound", "energy_bound_check", "l2_norm"),
    "config": ("ConfigError", "InitialCondition", "RunSettings", "SimConfig", "parse_config"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
