"""Unfitted HDG interior solver coupled to a spectral BEM exterior solver.

The package solves a two-dimensional exterior diffusion problem by
splitting it at a smooth artificial interface: a hybridizable DG method
discretizes the interior annulus on a non-touching triangulation (boundary
data travels along short transfer paths), a Nystrom/Galerkin boundary
element method handles the exterior Laplace problem with trigonometric
densities, and a relaxed alternating iteration couples the two through
their Dirichlet and Neumann interface traces.
"""

from .bem import (
    LayerOperatorSet,
    TrigPolynomial,
    assemble_layer_operators,
    evaluate_exterior,
    solve_exterior,
)
from .coupling import (
    CouplingConfig,
    CouplingState,
    InterfaceMap,
    estimate_contraction,
    monolithic_solve,
    run_fixed_point,
)
from .errors import (
    AssemblyError,
    ConfigError,
    CoverageError,
    DimensionError,
    DivergenceError,
    DomainError,
    EstimationError,
    GeometryInfeasibleError,
    HdgBemError,
    MapConstructionError,
    MeshingFailureError,
    SolverError,
)
from .export import (
    load_mesh,
    save_mesh,
    write_coefficients_csv,
    write_density_csv,
    write_iteration_log,
    write_study_csv,
    write_vtk,
)
from .geometry import (
    BoundaryMap,
    Curve,
    TAG_INNER,
    TAG_OUTER,
    UnfittedMesh,
    build_annulus_mesh,
    build_boundary_map,
    proximity_parameter,
)
from .harness import (
    ManufacturedCase,
    SolverBundle,
    StudyReport,
    convergence_study,
    manufactured_case,
    omega_sweep,
    setup_level,
)
from .hdg import (
    DGField,
    HDGSystem,
    MaterialField,
    assemble_transfer,
    build_system,
    l2_errors,
    local_conservation_residual,
    solve_interior,
)

__version__ = "0.1.0"
