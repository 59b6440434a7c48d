"""optdeg: exact symbolic computation of algebraic degrees of optimization
over varieties, with p-norm distance degrees, conormal/polar multidegree
extraction, closed-form degree formulas, and radical-tower checks."""

from .errors import *  # noqa: F401,F403
from .fields import DEFAULT_PRIME, PrimeField, RationalField, field_from_spec
from .rings import (GREVLEX, OrderSpec, Polynomial, RationalFunction,
                    RingContext)
from .parsing import (format_polynomial, parse_polynomial,
                      parse_rational_function)
from .matrices import PolyMatrix, jacobian
from .groebner import (DEFAULT_BUDGET, GroebnerBasis, Ideal, degree_zero_dim,
                       dimension, eliminate, groebner_basis, saturate,
                       vanishes_on_variety)
from .critical import (DegreeReport, EvolutePolynomial, PNorm, RationalGradient,
                       VarietySpec, affine_counter, algebraic_degree,
                       critical_ideal_affine, data_ring, evolute_curve,
                       projective_critical_ideal, projective_pnorm_degree,
                       singular_locus_ideal)
from .conormal import (BidegreeClass, PolarClassVector, bidegree_class,
                       joint_correspondence_ideal, polar_classes,
                       pnorm_degree_via_polar, s_conormal_ideal)
from .towers import (ParametrizationSpec, TowerLevel, TowerSpec,
                     tower_dimension_check, tower_jacobian_rank, tower_ring)
from . import formulas
