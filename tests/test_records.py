"""The package's record types keep the constructors, immutability, checked
copies, == and hash they had as dataclasses.  They are typing.NamedTuple
classes or subclasses of record.Record (no module imports dataclasses, see
test_spectral_guard.py)."""

import inspect
import math

import numpy as np
import pytest

from fowler import config, diagnostics, evolution, grid, kernel, operator, profiles, reporting
from fowler.diagnostics import c1b_norm
from fowler.grid import Grid, RealField, make_grid, real_spectrum
from fowler.operator import QuadratureSpec, symbol_table
from fowler.profiles import WaveProfile
from fowler.record import Record

REQUIRED = inspect.Parameter.empty

#: constructor parameters and defaults, as the dataclasses had them; a list
#: the dataclass built with a default factory now defaults to None and starts
#: empty (Trajectory's steps_by_seed_order at one zero per seed order), and
#: Trajectory's Picard maxima came later, after all the others
SIGNATURES = {
    (grid, "Grid"): [("n", REQUIRED), ("length", REQUIRED)],
    (grid, "RealField"): [("grid", REQUIRED), ("values", REQUIRED)],
    (profiles, "WaveProfile"): [("kind", REQUIRED), ("amplitude", 1.0), ("width", 1.0),
                                ("offset", 0.0), ("speed", 0.0), ("samples", None)],
    (operator, "QuadratureSpec"): [("z_max", REQUIRED), ("z_min", REQUIRED),
                                   ("panels", REQUIRED)],
    (diagnostics, "DiagnosticsRecord"): [
        ("t", REQUIRED), ("l2", REQUIRED), ("energy_bound", REQUIRED), ("mass", REQUIRED),
        ("mass_drift", REQUIRED), ("picard_iters", REQUIRED), ("picard_ratio", REQUIRED),
        ("spectral_tail", REQUIRED)],
    (diagnostics, "EnergyBoundParams"): [("alpha0", REQUIRED), ("c_phi", REQUIRED),
                                         ("v0_norm", REQUIRED)],
    (diagnostics, "EnergyBoundReport"): [("margins", REQUIRED), ("ok", REQUIRED),
                                         ("first_violation", REQUIRED)],
    (config, "InitialCondition"): [("kind", "gaussian"), ("amplitude", 0.1), ("width", 1.0),
                                  ("offset", 0.0), ("mode_k", 12), ("seed", 0),
                                  ("file", None)],
    (config, "SimConfig"): [
        ("grid", REQUIRED), ("profile", REQUIRED), ("v0", REQUIRED), ("t_end", 1.0),
        ("dt", 1e-3), ("picard_tol", 1e-10), ("picard_max", 25), ("dealias", True),
        ("output_stride", 10), ("linear_only", False)],
    (evolution, "Trajectory"): [
        ("fields", None), ("records", None), ("params", None), ("max_substeps", 1),
        ("picard_iters_total", 0), ("steps_by_seed_order", None), ("end", None),
        ("picard_iters_max", 0), ("picard_ratio_max", 0.0)],
    (diagnostics, "ContractionBound"): [("M", REQUIRED), ("u_phi_norm", REQUIRED),
                                        ("t_star", REQUIRED)],
    (evolution, "_StepTables"): [("spectrum", REQUIRED), ("dt", REQUIRED), ("E", REQUIRED),
                                 ("A0", REQUIRED), ("A1", REQUIRED), ("modes", REQUIRED)],
    (evolution, "_StepState"): [("vhat", REQUIRED), ("nhat", REQUIRED), ("history", REQUIRED),
                                ("step", REQUIRED), ("dt", REQUIRED), ("mass0", REQUIRED),
                                ("coupled", REQUIRED)],
    (kernel, "KernelSnapshot"): [("t", REQUIRED), ("field", REQUIRED), ("mass", REQUIRED)],
    (kernel, "KernelNormFit"): [("times", REQUIRED), ("l1_grad", REQUIRED),
                                ("l2_grad", REQUIRED), ("K0", 0.0), ("K1", 0.0),
                                ("slope_l2", 0.0), ("slope_l1", 0.0)],
    (config, "RunSettings"): [("sim", REQUIRED), ("v0_field", REQUIRED),
                              ("quadrature", REQUIRED), ("kernel_times", REQUIRED),
                              ("snapshots", REQUIRED), ("seed", REQUIRED)],
    (reporting, "CsvTable"): [("header", REQUIRED), ("columns", REQUIRED)],
    (reporting, "RunManifest"): [("entries", None)],
}
MUTABLE = {"Trajectory", "CsvTable", "RunManifest"}


def record_id(key):
    return key[1]


@pytest.mark.parametrize("key", SIGNATURES, ids=record_id)
def test_constructor_signature_is_the_dataclass_one(key):
    module, name = key
    params = inspect.signature(getattr(module, name)).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[key]


def test_every_record_subclass_names_its_fields_in_init_order():
    # Record._fill and Record._replace pair __slots__ with the __init__
    # parameters by position and by name
    subclasses = Record.__subclasses__()
    assert {cls.__name__ for cls in subclasses} == {
        "RealField", "WaveProfile", "QuadratureSpec", "DiagnosticsRecord", "EnergyBoundReport",
        "SimConfig", "_StepTables", "_StepState", "KernelNormFit"}
    for cls in subclasses:
        names = [p for p in inspect.signature(cls).parameters]
        assert list(cls.__slots__) == names, cls.__name__


@pytest.fixture(scope="module")
def instances():
    g = make_grid(16, 4.0)
    field = RealField(g, np.linspace(0.0, 1.0, 16))
    profile = WaveProfile("tanh-front", amplitude=0.5)
    v0 = config.InitialCondition()
    sim = config.SimConfig(grid=g, profile=profile, v0=v0, t_end=0.01, dt=1e-3)
    quadrature = QuadratureSpec(z_max=2.0, z_min=1e-4, panels=48)
    state = evolution._StepState(np.zeros(6, complex), None, (), 0, 1e-3, 0.0, True)
    return {
        "Grid": g,
        "RealField": field,
        "WaveProfile": profile,
        "QuadratureSpec": quadrature,
        "DiagnosticsRecord": diagnostics.DiagnosticsRecord(0.0, 1.0, 1.0, 0.0, 0.0, 0, 0.0, 0.0),
        "EnergyBoundParams": diagnostics.EnergyBoundParams(1.0, 0.5, 1.0),
        "EnergyBoundReport": diagnostics.EnergyBoundReport(np.zeros(3), True, None),
        "InitialCondition": v0,
        "SimConfig": sim,
        "ContractionBound": diagnostics.contraction_time_bound(1.0, 1.0),
        "_StepTables": evolution._step_tables(16, 4.0, 1e-3, True),
        "_StepState": state,
        "KernelSnapshot": kernel.kernel_field(0.1, g),
        "KernelNormFit": kernel.KernelNormFit(np.ones(2), np.ones(2), np.ones(2)),
        "RunSettings": config.RunSettings(sim, field, quadrature, (0.1,), False, 0),
    }


FROZEN = [name for _, name in SIGNATURES if name not in MUTABLE]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_reject_assignment(instances, name):
    obj = instances[name]
    assert type(obj).__name__ == name
    field = next(iter(inspect.signature(type(obj)).parameters))
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown = 1.0


def test_mutable_records_start_with_fresh_lists():
    first, second = evolution.Trajectory(), evolution.Trajectory()
    assert first.fields == first.records == [] and first.steps_by_seed_order == [0] * 7
    first.records.append(None)
    first.steps_by_seed_order[0] += 1
    assert second.records == [] and second.steps_by_seed_order == [0] * 7
    manifest = reporting.RunManifest()
    manifest.add("a", 1)
    assert manifest.entries == [("a", "1")] and reporting.RunManifest().entries == []
    first.max_substeps = 4  # mutable: plain attributes
    assert first.max_substeps == 4


@pytest.mark.parametrize("name, changes, message", [
    ("SimConfig", dict(dt=0.0), "dt must be > 0"),
    ("SimConfig", dict(t_end=0.0105), "whole number of dt steps"),
    ("WaveProfile", dict(amplitude=math.inf), "must be finite"),
    ("WaveProfile", dict(kind="sampled"), "requires samples"),
    ("QuadratureSpec", dict(panels=8), "at least 16"),
    ("DiagnosticsRecord", dict(l2=math.nan), "non-finite entries"),
], ids=["SimConfig-dt", "SimConfig-t_end", "WaveProfile-amplitude", "WaveProfile-kind",
        "QuadratureSpec-panels", "DiagnosticsRecord-l2"])
def test_copy_with_changes_validates_again(instances, name, changes, message):
    with pytest.raises(ValueError, match=message):
        instances[name]._replace(**changes)


def test_copy_with_changes_keeps_the_other_fields(instances):
    sim = instances["SimConfig"]
    copy = sim._replace(dt=5e-4, output_stride=2)
    assert (copy.dt, copy.output_stride, copy.steps) == (5e-4, 2, 20)
    assert copy == sim._replace(output_stride=2)._replace(dt=5e-4)
    assert copy.grid is sim.grid and copy.profile is sim.profile and copy.t_end == sim.t_end
    assert sim._replace() == sim and sim.dt == 1e-3
    with pytest.raises(TypeError):
        sim._replace(step=1)
    g = instances["Grid"]
    assert g._replace(n=32) == make_grid(32, 4.0)


def test_value_records_compare_and_hash_by_value(instances):
    for name in ("Grid", "WaveProfile", "QuadratureSpec", "SimConfig", "DiagnosticsRecord",
                 "EnergyBoundParams", "InitialCondition", "ContractionBound"):
        obj = instances[name]
        twin = type(obj)(*(getattr(obj, p) for p in inspect.signature(type(obj)).parameters))
        assert twin is not obj and twin == obj and hash(twin) == hash(obj), name
    sim = instances["SimConfig"]
    assert sim != sim._replace(dealias=False)
    assert instances["QuadratureSpec"] != (2.0, 1e-4, 48)  # a Record equals its own type only


def test_equal_grids_share_cache_entries():
    real_spectrum.cache_clear()
    symbol_table.cache_clear()
    a, b = make_grid(64, 10.0), Grid(64, 10.0)
    assert a is not b
    assert real_spectrum(a) is real_spectrum(b)
    assert real_spectrum.cache_info().hits == 1
    assert symbol_table(a) is symbol_table(b)
    assert symbol_table.cache_info().hits == 1
    assert real_spectrum(make_grid(64, 20.0)) is not real_spectrum(a)


def test_equal_profiles_share_the_c1b_norm():
    g = make_grid(64, 10.0)
    c1b_norm.cache_clear()
    first = c1b_norm(WaveProfile("tanh-front", amplitude=0.5), g)
    assert c1b_norm(WaveProfile("tanh-front", amplitude=0.5), g) == first
    assert c1b_norm.cache_info().hits == 1


def test_real_field_compares_and_hashes_by_identity():
    g = make_grid(16, 4.0)
    a, b = RealField(g, np.ones(16)), RealField(g, np.ones(16))
    assert a == a and a != b and len({a, b, a}) == 2
    assert hash(a) == object.__hash__(a)
    # so a sampled profile equals another only when it holds the same field
    sampled = WaveProfile("sampled", samples=a)
    assert sampled == WaveProfile("sampled", samples=a)
    assert hash(sampled) == hash(WaveProfile("sampled", samples=a))
    assert sampled != WaveProfile("sampled", samples=b)
    with pytest.raises(ValueError, match="read-only"):
        a.values[0] = 2.0


def test_state_compares_by_identity(instances):
    state = instances["_StepState"]
    assert state == state and state != state._replace()


def test_repr_names_the_fields(instances):
    assert repr(instances["Grid"]) == "Grid(n=16, length=4.0)"
    assert repr(instances["QuadratureSpec"]) == (
        "QuadratureSpec(z_max=2.0, z_min=0.0001, panels=48)")
    assert repr(instances["RealField"]) == "RealField(grid=Grid(n=16, length=4.0))"
    assert repr(instances["DiagnosticsRecord"]).startswith("DiagnosticsRecord(t=0.0, l2=1.0, ")
