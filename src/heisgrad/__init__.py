"""Heisenberg type algebras over exact cyclotomic scalars: fine
gradings, universal grading groups and Weyl groups."""

from .scalars import CycloCtx, CycloNum, parse_scalar, format_scalar, sqrt_int, root_of_unity_order
from .abelian import AbGroup, AbPresentation, GroupElt, canonicalize, group_product, smith_normal_form
from .liealg import Algebra, heisenberg, heisenberg_super, twisted, verify_axioms, center, derived, is_automorphism
from .gradings import (Grading, PairedDecomposition, verify_grading, universal_group,
                       coarsen, homogeneous_symplectic_basis,
                       homogeneous_orthogonal_basis, darboux_homogeneous_basis)
from .fine import (FineTwistedParams, BlockI, BlockII, heisenberg_fine, super_fine,
                   enumerate_super_fine, twisted_fine, twisted_fine_classes, twisted_fine_toral,
                   twisted_fine_nontoral, spectrum_check, enumerate_twisted_fine,
                   equivalent_fine, homogenize_u, decompose_twisted_grading)
from .weyl import (PermGroup, induced_permutation, standard_generators, generator_matrix,
                   closure, weyl_order_formula, weyl_group, weyl_bruteforce)
from .color import Bicharacter, ColorType, color_algebra, verify_color_axioms, is_super_realizable, classify_color

__version__ = "0.1.0"
