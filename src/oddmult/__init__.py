"""Parity of a(n): partitions of n whose parts all appear with odd multiplicity.

The package has three layers. A bit-packed GF(2) power-series kernel
(`gf2series`, `etaq`) computes parity generating functions at large
truncations; exact arithmetic (`partition_oracle`, `numtheory`) provides
independent ground truth; and on top sit the parity characterizations
(`characterize`), the congruence families (`congruence`), and the odd-density
experiments (`density`). The `oddmult` CLI exposes all of it.
"""

from .characterize import odd_flag_windows, predict_parity
from .congruence import (
    CongruenceFamily,
    FamilyVerification,
    all_families,
    fixed_families,
    generate_12p_family,
    generate_24p_family,
    verify_family,
)
from .density import DensityCheckpoint, DensityReport, density_8m7, sparse_odd_census
from .etaq import (
    EtaQuotient,
    a_parity_series,
    identity_suite,
    pentagonal_exponents,
    triangular_exponents,
)
from .gf2series import Gf2Series
from .numtheory import (
    count_theta_pairs,
    factorize,
    is_prime,
    is_square,
)
from .partition_oracle import PartitionCountTable, build_table

__version__ = "0.1.0"
