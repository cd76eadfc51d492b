"""Holomorphic hypersurfaces of flat Kahler-Norden space.

Split-signature linear algebra, curvature of h-spheres and holomorphic
hyperplanes, and classification of sampled hypersurface data.
"""

from .core import (
    HProperDecomposition,
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
    SpaceFormParams,
    TangentPlane,
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
    SampleStack,
    codazzi_residual,
    conjugate,
    hyperplane_samples,
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
    classify,
    pair_crosscheck,
    reconstruct_hyperplane,
    reconstruct_sphere,
)

__version__ = "0.1.0"
