"""Numerical laboratory for acoustic volume integral equations.

Discretizes the Lippmann-Schwinger volume operator for Helmholtz
scattering with discontinuous coefficients, the associated
boundary-domain coupled system, and provides spectral diagnostics
(eigenvalue clustering, Fredholm verdicts, breakdown sweeps) together
with analytic transmission-series oracles.
"""

__version__ = "0.1.0"

from .geometry import (
    BoundaryMesh,
    DomainGeometry,
    VolumeGrid,
    build_boundary_mesh,
    build_volume_grid,
    reflections,
)
from .special import WaveParameters, greens_gradient, greens_value
from .coefficients import CoefficientField, beta_only, constant_a, linear_a, smooth_bump_a
from .volume import (
    DenseBudgetError,
    apply_A,
    apply_A_fft,
    apply_A_smooth_form,
    assemble_A_dense,
    newton_potential,
)
from .boundary import (
    assemble_K,
    double_layer_potential,
    jump_relation_check,
    trace,
)
from .coupled import (
    assemble_A1,
    assemble_coupled,
    check_equivalence,
    coupled_blocks,
    quadrature_weighted_matrix,
    solve_coupled,
)
from .spectral import (
    ClusterReport,
    FredholmVerdict,
    a_to_sigma,
    condition_sweep,
    detect_clusters,
    eigenvalues_dense,
    essential_set,
    fredholm_verdict,
    sigma_to_a,
    spectral_operator_matrix,
)
from .scattering import (
    MieSeries,
    extend_solution,
    gmres_solve,
    incident_plane_wave,
    incident_point_source,
    mie_reference_disc,
)
