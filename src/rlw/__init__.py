"""rlw: finite residuated lattices, their structure theory, and amalgamation.

A library and CLI for computing with finite residuated lattices (optionally
bounded / with a negation constant): validation, congruence lattices,
subalgebras, CEP, nested sums, catalog families, figure algebras, amalgam
search and refutation, and the AP decision procedure for finitely generated
semilinear varieties.
"""

from .algebra import (AlgebraError, BadConstant, BadParameter, FiniteAlgebra,
                      MissingConstant, NoCompletion, NotAChain, NotAdmissible,
                      NotALattice, NotAMonoid, NotAnEmbedding, NotASubuniverse,
                      NotResiduated, NotSemilinear, NotSimple,
                      NotSubalgebraClosed, ParseError, SignatureMismatch,
                      finite_algebra, load_algebra, save_algebra_file)
from .terms import Term, check_identity, eval_term, parse_term
from .properties import (PropertyProfile, handy_fixed_points, is_admissible,
                         is_commutative, is_idempotent, is_integral,
                         is_lower_involutive, is_n_potent, is_semilinear,
                         n_potent_degree, property_profile, satisfies_knotted)
from .structure import (Congruence, ConLattice, classify, cns_generated,
                        congruences, convex_normal_subalgebras, has_cep,
                        natural_projection, principal_congruence, quotient,
                        subalgebra, subuniverses)
from .morphisms import (Morphism, are_isomorphic, embeddings, essentialize,
                        homs, identity, is_essential, morphism)
from .completion import (CompletionResult, PartialAlgebra, complete_partial,
                         enumerate_chains, load_partial)
from .catalog import (FAMILIES, FIGURES, catalog_all, figure_completions,
                      make_family, make_figure, resolve_catalog_name)
from .nsum import factor_nested_sum, nested_sum, nested_sum_with_map
from .amalgam import (AmalgamReport, ApVerdict, ClassSpec, Span, class_has_1ap,
                      class_has_eap, decide_ap, find_amalgam, fsi_chains,
                      refute_chain_amalgam, replay_refutation,
                      simple_chain_ap, span, strictly_simple_ap, variety)

__version__ = "0.1.0"
