"""Kronecker fast Johnson-Lindenstrauss transforms with verification oracles.

Subpackages by role:

- indexing: axis sizes and the index layout of Kronecker-structured arrays
- fwht: orthonormal Walsh-Hadamard transform (one blocked numpy kernel)
- transforms: the subsampled operator, factored/dense application paths
- rip: exhaustive restricted-isometry constants and submatrix bounds
- sparsify: fiber-wise top-k splitting of order-d arrays
- chaos: Rademacher chaos moments, partition counting
- gf2: F_2 subspace algebra; adversarial: sign-blind lower-bound experiment
- harness: experiment sweeps, CSV/JSON reports; cli: command-line front end
"""

from .fwht import active_backend, fwht, fwht_axis, hadamard_matrix
from .indexing import KronDims
from .transforms import (
    KfjltOperator,
    apply_dense,
    apply_factored,
    build_operator,
    hadamard_rows,
    kron_materialize,
    materialize,
)

__version__ = "0.1.0"
