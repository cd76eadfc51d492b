"""Holomorphic hypersurfaces of flat Kahler-Norden space.

Import each name from its module, e.g.
`from nordenhs.hypersurface import make_h_sphere`:

- `core`: the metrics g, gt and J, the complex bridge to C^m, adapted bases
  and the h-proper decomposition of h-symmetric operators;
- `curvature`: the pi-tensors, the Gauss tensor, totally real planes,
  sectional curvatures and Ricci;
- `hypersurface`: h-spheres and holomorphic hyperplanes, sampling, normal
  frames, tangent bases and shape operators;
- `classify`: the classification of second-order samples;
- `jsonio`: the point, sample and operator file formats;
- `verify`: the suites checking the paper's identities;
- `cli`: the `nordenhs` command-line tool.

Their exceptions are in `errors`.
"""

__version__ = "0.1.0"
