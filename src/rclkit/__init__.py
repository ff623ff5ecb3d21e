"""rclkit: a verification engine for finitely presented additive k-linear
categories — additive quotients, adjunctions, recollements, and the
triangulated structure induced on quotients by mutation pairs."""

from .field import QQ, PrimeField, RationalField, make_field
from .linalg import Mat, SubspaceBasis, nullspace, rank, rref, solve
from .category import (FinLinCategory, Morphism, Subcategory, compose,
                       ideal_subspace, is_isomorphic, validate_category)
from .functor import (LinearFunctor, NatTransform, compose_functors,
                      identity_functor, image_subcategory, kernel_subcategory,
                      validate_functor, validate_nat)
from .adjunction import (Adjunction, make_adjunction, normalize_embedding,
                         validate_adjunction)
from .quotient import (MorphismIdeal, QuotientCategory, build_quotient,
                       factor_through_quotient, induce_adjunction,
                       induce_functor)
from .recollement import (Recollement, check_recollement, lift_subcategory_pair,
                          normalize_recollement, quotient_by_left_subcategory,
                          quotient_recollement, restrict_to_subcategory)
from .triangulated import Triangle, TriangulatedPresentation, is_D_epic, is_D_monic
from .mutation import (ExactFunctorData, MutationData, check_mutation_pair,
                       image_mutation_pair, induced_exact_functor,
                       make_D_monic, standard_triangle,
                       triangulated_quotient_recollement,
                       verify_quotient_triangulation)
from .workspace import Workspace, parse, serialize

__version__ = "0.1.0"
