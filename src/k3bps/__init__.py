"""Exact-arithmetic formal series toolkit for K3 curve counting.

Everything here is exact: rationals are :class:`fractions.Fraction`, series
carry explicit truncation orders, and every identity check is an equality of
integers or fractions.  The pieces:

* :mod:`k3bps.series`, :mod:`k3bps.rational`, :mod:`k3bps.symlaurent`,
  :mod:`k3bps.graded`, :mod:`k3bps.scalars` -- the algebra substrate.
* :mod:`k3bps.bps` -- the Gopakumar-Vafa transform between Gromov-Witten
  potentials and BPS state counts, in both directions.
* :mod:`k3bps.kkv` -- the KKV product formula expanded directly in lambda,
  the z-expansion with its genus-extracting lambda basis as an oracle, and
  the Yau-Zaslow specialization.
* :mod:`k3bps.pairs` -- stable-pairs rational functions, the multiple cover
  formula, the q = -exp(i*u) substitution and the local MNOP identity check.
* :mod:`k3bps.nl` -- Noether-Lefschetz style linear correspondences on
  synthetic data, with exact inversion and identity transfer.
* :mod:`k3bps.cli` -- the ``k3bps`` command-line tool.
"""

from .bps import (
    BpsTable,
    GwPotential,
    bps_from_gw,
    divisors,
    gw_from_bps,
    gw_grade_series,
    sine_bracket,
)
from .graded import GradedSeries
from .kkv import (
    KkvBpsGrid,
    KkvSeries,
    bps_grid_from_kkv,
    kkv_product,
    lambda_decompose,
    lambda_power,
    yau_zaslow_series,
)
from .nl import (
    ClassLabel,
    InvariantVector,
    NlMatrix,
    SingularMatrixError,
    TransferReport,
    combine,
    invert_correspondence,
    synthetic_k3_vectors,
    transfer_mnop,
)
from .pairs import (
    HodgeLabel,
    MnopReport,
    PairsLedger,
    bps_table_from_grid,
    disconnected_partition,
    mnop_check,
    multiple_cover,
    primitive_pairs_ratfn,
    substitute_q_minus_exp,
)
from .rational import (
    RationalFunction,
    check_q_inversion_symmetry,
    ratfn_expand,
)
from .scalars import GaussianRational, I
from .series import LaurentSeries
from .symlaurent import SymLaurentPoly

__version__ = "0.1.0"

__all__ = [
    "BpsTable",
    "ClassLabel",
    "GaussianRational",
    "GradedSeries",
    "GwPotential",
    "HodgeLabel",
    "I",
    "InvariantVector",
    "KkvBpsGrid",
    "KkvSeries",
    "LaurentSeries",
    "MnopReport",
    "NlMatrix",
    "PairsLedger",
    "RationalFunction",
    "SingularMatrixError",
    "SymLaurentPoly",
    "TransferReport",
    "bps_from_gw",
    "bps_grid_from_kkv",
    "bps_table_from_grid",
    "check_q_inversion_symmetry",
    "combine",
    "disconnected_partition",
    "divisors",
    "gw_from_bps",
    "gw_grade_series",
    "invert_correspondence",
    "kkv_product",
    "lambda_decompose",
    "lambda_power",
    "mnop_check",
    "multiple_cover",
    "primitive_pairs_ratfn",
    "ratfn_expand",
    "sine_bracket",
    "substitute_q_minus_exp",
    "synthetic_k3_vectors",
    "transfer_mnop",
    "yau_zaslow_series",
]
