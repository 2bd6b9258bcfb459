"""Exact formal calculus on the boson Fock space.

Subpackages:

* ``exact``     - rational power series, Bernoulli/zeta values, q-series
* ``fock``      - the partition-indexed state space and oscillator modes
* ``quadratic`` - normal-ordered quadratic operator families and bracket
                  verifiers
* ``series``    - sparse multivariate formal series, localized pole
                  series, the two normal orderings and the
                  generating-function commutator verifier
* ``voa``       - the rank-1 free boson vertex operator algebra and the
                  Jacobi-identity verifiers
* ``cli``       - command-line driver producing deterministic reports
"""

from .exact import (PowerSeries, ShiftedQSeries, bernoulli, chi_s,
                    graded_dimension, zeta_nonpositive)
from .fock import FockVector, basis, fock_str, h_apply, vacuum
from .quadratic import (CentralDecomposition, GradedOperator, L_apply,
                        Lbar_apply, Lr_apply, central_decompose, commutator,
                        to_matrix, verify_diff_op_projection,
                        verify_modified_virasoro, verify_monomial_purity,
                        verify_virasoro)
from .report import VerificationReport
from .series import (ExpansionConvention, LocalizedSeries, MultiSeries,
                     VarSpec, contraction_check, normal_ordered_pair,
                     plusplus_pair, regularized_commutator_check,
                     regularized_commutator_checks)
from .voa import (VOAConstants, X_apply, axiom_suite, dilated_jacobi_check,
                  jacobi_check, mode_apply, weak_comm_check, zhu_bracket_apply)

__version__ = "0.1.0"
