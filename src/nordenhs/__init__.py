"""Holomorphic hypersurfaces of flat Kahler-Norden space.

Split-signature linear algebra, curvature of h-spheres and holomorphic
hyperplanes, and classification of sampled hypersurface data.
"""

from .core import (
    HProperDecomposition,
    NordenSpace,
    apply_J,
    complex_scale,
    h_proper_decomposition,
    is_adapted_basis,
    is_structure_group_member,
    metric_g,
    metric_gt,
    q_value,
)
from .curvature import (
    CurvatureStats,
    SpaceFormParams,
    TangentPlane,
    curvature_constancy_report,
    gauss_curvature_from_shape,
    is_totally_real,
    pi_tensors,
    ricci,
    sample_totally_real_planes,
    sectional_curvatures,
    space_form_curvature,
)
from .hypersurface import (
    HSphere,
    HolomorphicHyperplane,
    MeanCurvatureData,
    SampleStack,
    codazzi_residual,
    conjugate,
    h_sphere_from_curvatures,
    hyperplane_samples,
    is_h_umbilical,
    lambda_mu,
    make_h_sphere,
    make_hyperplane,
    make_surface_samples,
    mean_curvature,
    normal_frame,
    normalize_normal_frame,
    sample,
    second_fundamental,
    shape_operator_fd,
    shape_operator_wrt,
    surface_sample,
    tangent_adapted_basis,
    theoretical_curvatures,
)
from .classify import (
    ClassificationResult,
    Tolerances,
    classify,
    pair_crosscheck,
    estimate_invariants,
    reconstruct_hyperplane,
    reconstruct_sphere,
    umbilicity_check,
)

__version__ = "0.1.0"
