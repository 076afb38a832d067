"""Finite group computations centered on power subgroups.

For a finite group G and m >= 1, G^m is the subgroup generated by the
m-th powers of all elements; subgroups not of this form are the nonpower
subgroups.  This package builds the group families that realize every
count nps(G) <= 13, enumerates full subgroup lattices, and verifies the
closed-form counts and the classification lists against brute force.
"""

from importlib import import_module

# each exported name and the module that defines it, imported on first use
# (PEP 562), so that importing one module of the package, the CLI's
# included, loads only what that module needs
_MODULES = {
    "arith": ("divisors", "factorize", "is_prime", "multiplicative_order"),
    "catalog": (
        "EXACT",
        "LOWER_BOUND",
        "UNDER_REVIEW",
        "BucketMember",
        "ExpectedNps",
        "expected_nps",
        "instantiate_bucket",
        "printed_rank2_formula",
        "theorem_catalog",
    ),
    "core": (
        "CapExceeded",
        "Group",
        "Morphism",
        "Subgroup",
        "center",
        "cyclic_group",
        "derived_subgroup",
        "direct_product",
        "element_order",
        "element_orders",
        "exponent",
        "generated_subgroup",
        "group_from_generators",
        "is_abelian",
        "quotient",
        "semidirect_product",
        "subgroup_group",
        "trivial_group",
    ),
    "corpus": ("CorpusEntry", "CorpusError", "dump_corpus", "entry_from_group", "load_corpus"),
    "coset": ("CosetTable", "coset_enumerate", "enumerate_cosets"),
    "families": (
        "FamilySpec",
        "UnknownFamilyError",
        "build",
        "builtin_presentation",
        "cyclic_spec",
        "expected_order",
        "product_spec",
        "validate",
    ),
    "isomorphism": ("are_isomorphic",),
    "lattice": (
        "CountSummary",
        "Lattice",
        "all_subgroups",
        "conjugates",
        "counts",
        "cyclic_nonpower_p_count",
        "frattini",
        "is_normal",
        "omega",
        "power_subgroup",
        "power_subgroups",
        "sylow",
    ),
    "presentation": ("Presentation", "PresentationError", "parse_presentation"),
    "specs": ("SpecError", "parse_spec"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CapExceeded",
    "Group",
    "Subgroup",
    "Morphism",
    "group_from_generators",
    "trivial_group",
    "cyclic_group",
    "direct_product",
    "semidirect_product",
    "quotient",
    "center",
    "derived_subgroup",
    "generated_subgroup",
    "subgroup_group",
    "element_order",
    "element_orders",
    "exponent",
    "is_abelian",
    "Lattice",
    "CountSummary",
    "all_subgroups",
    "power_subgroup",
    "power_subgroups",
    "counts",
    "is_normal",
    "conjugates",
    "sylow",
    "frattini",
    "omega",
    "cyclic_nonpower_p_count",
    "Presentation",
    "PresentationError",
    "parse_presentation",
    "CosetTable",
    "enumerate_cosets",
    "coset_enumerate",
    "are_isomorphic",
    "FamilySpec",
    "UnknownFamilyError",
    "build",
    "validate",
    "expected_order",
    "builtin_presentation",
    "cyclic_spec",
    "product_spec",
    "ExpectedNps",
    "BucketMember",
    "EXACT",
    "LOWER_BOUND",
    "UNDER_REVIEW",
    "expected_nps",
    "printed_rank2_formula",
    "theorem_catalog",
    "instantiate_bucket",
    "SpecError",
    "parse_spec",
    "CorpusEntry",
    "CorpusError",
    "load_corpus",
    "dump_corpus",
    "entry_from_group",
    "is_prime",
    "factorize",
    "divisors",
    "multiplicative_order",
]
