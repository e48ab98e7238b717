"""Finite-depth symbolic dynamics on Cantor space.

Encoded continuous maps, closed classes and dynamical systems at an explicit
working depth, with constructions for recurrent and almost periodic points,
minimal subsystems, halting-bit coding, periodic-orbit dodging and the
refinement-forcing calculus.  Every construction emits a certificate that an
independent verifier re-checks.
"""

from .errors import (CantorDynError, DepthExceeded, EmptyClassError,
                     HorizonExhausted, InconsistentDepth, ModulusExhausted,
                     NotMinimal, SpecFormatError, UndecidedAtDepth)
from .maps import CodedMap, builtin_map, normalize
from .systems import (APCert, APRow, ClosedClass, DynSystem, PointApprox,
                      RecCert, Report, explicit_class,
                      forbidden_window_class, full_class, orbit_class,
                      restrict_class, stagewise_class, validate_system,
                      verify_ap, verify_recurrence)
from .recurrence import (CoverStage, audit_cover_stages,
                         build_ternary_gadget, construct_recurrent_point,
                         gadget_recurrent_equals_paths, gadget_recurrent_set)
from .minimal import (HaltingSim, RemovalChain, ap_bound_from_minimal,
                      build_bit_coder, decode_bit, decode_members,
                      minimal_subsystem, product_system)
from .avoidance import (DodgeOutcome, SigmaSequence, build_dodging_class,
                        enumerate_periodic_points, verify_not_ap)
from .refinement import (OpenRequest, Phi1Predicate, PiecewiseIterate,
                         PredicateRequest, Refinement, check_refinement_cert,
                         compose, construct_ap_point,
                         least_element_forcing, meet_or_avoid, nbh_periodicity,
                         trivial_cert)

__version__ = "0.1.0"
