"""Exception types raised by the mesh, solver and coupling layers."""


class HdgBemError(Exception):
    """Base class for all package errors."""


class GeometryInfeasibleError(HdgBemError):
    """The requested curves/mesh size combination cannot be meshed."""


class MeshingFailureError(HdgBemError):
    """Mesh construction violated a quality bound."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class MapConstructionError(HdgBemError):
    """The boundary map refuses a level, or a point cannot be mapped.

    ``build_boundary_map`` refuses an untagged edge, a nearly tangent
    transfer direction, a path longer than 3 h_T of its parent element,
    overlapping edge intervals and a folding sliver map (``edge`` is set
    for all but the overlap); the closest-point search refuses non-finite
    points, a circle's centre and points whose distance overflows.
    """

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class AssemblyError(HdgBemError):
    """Element assembly failed (degenerate geometry or singular block)."""


class SolverError(HdgBemError):
    """A linear solve failed or did not meet its residual tolerance."""


class CoverageError(HdgBemError):
    """An interface point is not covered by the boundary map's outer edges."""


class DimensionError(HdgBemError):
    """Input array sizes are inconsistent with the declared degree."""


class DomainError(HdgBemError):
    """An evaluation point lies outside the admissible region."""


class EstimationError(HdgBemError):
    """Not enough data to form the requested estimate."""


class ConfigError(HdgBemError):
    """A configuration file is missing a key or holds an invalid value."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class DivergenceError(HdgBemError):
    """The fixed-point iteration hit its iteration cap, or its norms overflowed.

    Carries the update-norm history so callers can retry with a smaller
    relaxation weight.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
