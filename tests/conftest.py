import numpy as np
import pytest

from ricciflow import (
    ConformalMetric,
    FlowConfig,
    generate_genus2,
    normalize_area,
    perturb_metric,
    run_flow,
    solve_snapshots,
)

from meshes import flat_torus_metric, icosphere_metric, tetrahedron_metric


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
    """One converged level-2 flow with snapshots, shared across tests."""
    metric, window = perturb_metric(octagon2, 0.02, 11)
    config = FlowConfig(spectrum_every=60, k=12, seed=7)
    trace = run_flow(metric, config)
    solve_snapshots(trace)
    assert trace.converged
    return {"metric": metric, "window": window, "trace": trace, "config": config}
