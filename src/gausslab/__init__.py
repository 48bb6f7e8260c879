"""Lattice point counts of k-spheres and their mean-square discrepancy.

The library computes exact representation numbers r_k(n), the lattice
discrepancy P_k = S_k - V_k n^{k/2}, smoothed / sharp / Laplace-transformed
second moments and weighted first moments, the explicit constants their
asymptotics predict, and recovers the one constant (the dimension-three X^2
coefficient, approximately 10.6) that has no closed form, by constrained
least squares.  `python -m gausslab verify` runs the self-check battery.
"""

from .convolve import ConvolutionCapacityError, ConvolutionOverflowError, exact_convolve
from .discrepancy import (
    DiscrepancySeries,
    diagonal_partial_mean,
    prefix_counts,
)
from .dirichlet import (
    Cusp,
    IdentityCheck,
    SeriesValue,
    l_theta,
    phi_closed,
    phi_di_sum,
    phi_series_identity_check,
    r4_euler_rhs,
    r4_identity_check,
)
from .fit import BasisTerm, FitModel, FitResult, RankDeficiencyError, recover_c3
from .moments import (
    MomentSample,
    Statistic,
    exp_cutoff,
    laplace_second_moment,
    sharp_integral_second_moment,
    sharp_second_moment,
    sharp_weighted_first_moment_p3,
    smooth_second_moment,
    smooth_weighted_first_moment,
)
from .rk import (
    CacheChecksumError,
    CacheError,
    CacheFormatError,
    CacheTruncatedError,
    RkTable,
    build_rk_table,
    convolve_tables,
    load_table,
    rk_bruteforce,
    save_table,
)
from .specfun import ball_volume, euler_gamma, gamma_fn, zeta, zeta_two_removed
from .theory import (
    ConstantSet,
    constants_for,
    nonspectral_E,
    predicted,
)

__version__ = "0.1.0"
