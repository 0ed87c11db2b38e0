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
    project_mean_zero,
    solve_exterior,
    write_density_csv,
)
from .coupling import (
    CouplingConfig,
    CouplingState,
    InterfaceMap,
    dtn_step,
    estimate_contraction,
    monolithic_solve,
    ntd_step,
    relax_update,
    run_fixed_point,
    write_iteration_log,
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
    PatchConstructionError,
    SolverError,
    TransferIntegrationError,
)
from .geometry import (
    BoundaryMap,
    Curve,
    ExtensionPatch,
    TAG_INNER,
    TAG_OUTER,
    UnfittedMesh,
    build_annulus_mesh,
    build_boundary_map,
    build_extension_patches,
    classify_boundary_edges,
    load_mesh,
    proximity_parameter,
    save_mesh,
)
from .harness import (
    ManufacturedCase,
    SolverBundle,
    StudyReport,
    convergence_study,
    manufactured_case,
    omega_sweep,
    pde_residual,
    setup_level,
)
from .hdg import (
    DGField,
    HDGSystem,
    MaterialField,
    PatchLocator,
    Stabilization,
    assemble_local,
    assemble_transfer,
    build_system,
    hdg_projection,
    j_functional,
    l2_errors,
    local_conservation_residual,
    solve_interior,
    trace_identity_residual,
    write_coefficients_csv,
    write_vtk,
)

__version__ = "0.1.0"
