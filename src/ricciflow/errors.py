"""Exception types shared across the package."""


class RicciFlowError(Exception):
    """Base class for all errors raised by this package."""


class MeshError(RicciFlowError):
    """Base class for mesh construction and validation failures."""


class MeshFormatError(MeshError):
    """Input file or triangle data is syntactically malformed."""


class BoundaryEdgeError(MeshError):
    """An edge is incident to exactly one triangle (surface is not closed)."""


class NonManifoldError(MeshError):
    """An edge is incident to three or more triangles."""


class NonOrientableError(MeshError):
    """Two incident triangles traverse a shared edge in the same direction."""


class DisconnectedError(MeshError):
    """Triangle adjacency graph is not connected, or vertices are unused."""


class MeshInvariantError(MeshError):
    """A derived topological invariant is inconsistent (corrupt mesh)."""


class GeometryError(RicciFlowError):
    """Base class for metric-level failures."""


class TriangleInequalityError(GeometryError):
    """Current edge lengths violate the strict triangle inequality in a face.

    Signals that a flow step was too large and must be retried smaller.
    """

    def __init__(self, message, face=None):
        super().__init__(message)
        self.face = face


class PerturbationError(GeometryError):
    """A metric perturbation left the admissible curvature class."""


class EigensolverError(RicciFlowError):
    """Iterative eigensolver failed to reach the requested residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class FlowAbortError(RicciFlowError):
    """Time integration could not continue: the step size underflowed, or
    the process running the flow ended abruptly."""

    def __init__(self, message, t=None, dt=None):
        super().__init__(message)
        self.t = t
        self.dt = dt


class HypothesisError(RicciFlowError):
    """Inputs of a comparison check violate its standing hypotheses."""


class ConfigError(RicciFlowError):
    """Experiment configuration file is invalid."""
