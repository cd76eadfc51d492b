"""The structure group r(O(m, C)) of the flat Norden space, for the tests.

An operator is in the structure group when it preserves both J and g, that
is when it is the real form of a complex C with C^T C = I.
`is_structure_group_member` forms C^T C of M scaled by the power of two p
that brings max|M| into [0.5, 1), and compares (C/p)^T (C/p) - I/p^2 with
tol (s/p)^2, s = max(1, max|M|).  The scaling is exact, so the answer is
that of C^T C - I against tol s^2, and members are decided up to the float
range (a complex Givens rotation with max|M| = 2.6e173 is accepted,
1e200 I rejected).
"""

import numpy as np

from nordenhs.core import (
    DEFAULT_TOL,
    complex_op_to_real,
    random_complex_orthogonal,
    real_op_to_complex,
)
from nordenhs.errors import NordenError


def is_structure_group_member(M, tol=DEFAULT_TOL):
    """True iff M preserves both J and g (the group r(O(m, C))): M is the
    real form of a complex C with C^T C = I."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise NordenError(f"expected square 2m x 2m matrix, got {M.shape}")
    # M / p and s / p for p = 2^e with s / p in [0.5, 1): exact, and C^T C cannot overflow
    s = max(1.0, float(np.max(np.abs(M))))
    e = np.frexp(s)[1]
    M, s = np.ldexp(M, -e), float(np.ldexp(s, -e))
    C = real_op_to_complex(M)
    if np.max(np.abs(M - complex_op_to_real(C))) > tol * s:
        return False
    D = C.T @ C - np.ldexp(np.eye(len(C)), -2 * e)  # (C^T C - I) / p^2
    return float(np.max(np.maximum(np.abs(D.real), np.abs(D.imag)))) <= tol * s * s


def random_structure_group_member(m, rng):
    """Random member of r(O(m, C)) as a real 2m x 2m matrix."""
    return complex_op_to_real(random_complex_orthogonal(m, rng))
