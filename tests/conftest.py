import numpy as np
import pytest

from ricciflow import (
    ConformalMetric,
    FlowConfig,
    generate_genus2,
    normalize_area,
    perturb_metric,
    run_flow,
    track_branches,
)
from ricciflow import mesh as mesh_module
from ricciflow.tracking import BranchTracker

from meshes import flat_torus_metric, icosphere_metric, tetrahedron_metric
from oracles import solve_every_sample


@pytest.fixture
def no_subdivision(monkeypatch):
    """Make any barycentric subdivision fail: a mesh level that a range
    check lets through raises at once instead of allocating ~6x per level."""

    def refuse(*args):
        raise AssertionError("a subdivided mesh was built")

    monkeypatch.setattr(mesh_module, "_barycentric_subdivide", refuse)


@pytest.fixture(scope="session")
def tetra_metric():
    return tetrahedron_metric()


@pytest.fixture(scope="session")
def torus16_metric():
    return flat_torus_metric(16)


@pytest.fixture(scope="session")
def sphere_metric():
    return icosphere_metric(2)


@pytest.fixture(scope="session")
def octagon0():
    mesh, lengths = generate_genus2(0)
    return normalize_area(ConformalMetric.flat(mesh, lengths), -2.0 * np.pi * mesh.chi)


@pytest.fixture(scope="session")
def octagon1():
    mesh, lengths = generate_genus2(1)
    return normalize_area(ConformalMetric.flat(mesh, lengths), -2.0 * np.pi * mesh.chi)


@pytest.fixture(scope="session")
def octagon2():
    mesh, lengths = generate_genus2(2)
    return normalize_area(ConformalMetric.flat(mesh, lengths), -2.0 * np.pi * mesh.chi)


@pytest.fixture(scope="session")
def run1(octagon2):
    """One converged level-2 flow with snapshots, shared across tests, and its
    branches 1-5 tracked as a run tracks them, with their residual stencils."""
    metric, window = perturb_metric(octagon2, 0.02, 11)
    config = FlowConfig(spectrum_every=60, k=12, seed=7)
    trace = run_flow(metric, config)
    solve_every_sample(trace)
    assert trace.converged
    tracker = BranchTracker([1, 2, 3, 4, 5])
    for sample in trace.snapshot_samples():
        tracker.add(sample.spectrum, sample.curvature)
    return {"metric": metric, "window": window, "trace": trace, "config": config,
            "branch_set": track_branches(tracker)}
