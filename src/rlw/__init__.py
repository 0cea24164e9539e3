"""rlw: finite residuated lattices, their structure theory, and amalgamation.

A library and CLI for computing with finite residuated lattices (optionally
bounded / with a negation constant): validation, congruence lattices,
subalgebras, CEP, nested sums, catalog families, figure algebras, amalgam
search and refutation, and the AP decision procedure for finitely generated
semilinear varieties.

Every public name is listed once below with the module that defines it, and
that module is imported the first time the name is read (PEP 562), so
`import rlw` or `import rlw.terms` loads no more of the package than it uses.
"""

import importlib

_PUBLIC = {
    "algebra": ("AlgebraError", "BadConstant", "BadParameter", "FiniteAlgebra",
                "MissingConstant", "NoCompletion", "NotAChain", "NotAdmissible",
                "NotALattice", "NotAMonoid", "NotAnEmbedding", "NotASubuniverse",
                "NotResiduated", "NotSemilinear", "NotSimple", "NotSubalgebraClosed",
                "ParseError", "SignatureMismatch", "finite_algebra", "is_commutative",
                "load_algebra", "save_algebra_file"),
    "terms": ("Term", "check_identity", "eval_term", "parse_term"),
    "properties": ("PropertyProfile", "handy_fixed_points", "is_admissible",
                   "is_idempotent", "is_integral", "is_lower_involutive", "is_n_potent",
                   "is_semilinear", "n_potent_degree", "property_profile",
                   "satisfies_knotted"),
    "structure": ("Congruence", "ConLattice", "classify", "cns_generated", "congruences",
                  "convex_normal_subalgebras", "has_cep", "natural_projection",
                  "principal_congruence", "quotient", "subalgebra", "subuniverses"),
    "morphisms": ("Morphism", "are_isomorphic", "embeddings", "essentialize", "homs",
                  "identity", "is_essential", "morphism"),
    "completion": ("CompletionResult", "PartialAlgebra", "complete_partial",
                   "enumerate_chains", "load_partial"),
    "catalog": ("FAMILIES", "FIGURES", "catalog_all", "figure_completions", "make_family",
                "make_figure", "resolve_catalog_name"),
    "nsum": ("factor_nested_sum", "nested_sum", "nested_sum_with_map"),
    "amalgam": ("AmalgamReport", "ApVerdict", "ClassSpec", "Span", "class_has_1ap",
                "class_has_eap", "decide_ap", "find_amalgam", "fsi_chains",
                "refute_chain_amalgam", "replay_refutation", "simple_chain_ap", "span",
                "strictly_simple_ap", "variety"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its module, which is imported on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
