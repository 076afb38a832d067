"""Finite group computations centered on power subgroups.

For a finite group G and m >= 1, G^m is the subgroup generated by the
m-th powers of all elements; subgroups not of this form are the nonpower
subgroups.  This package builds the group families that realize every
count nps(G) <= 13, enumerates full subgroup lattices, and verifies the
closed-form counts and the classification lists against brute force.
"""

from importlib import import_module

# each exported name, in the order of __all__, by the module that defines
# it; imported on first use (PEP 562), so that importing one module of the
# package, the CLI's included, loads only what that module needs
_MODULES = {
    "core": (
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
    ),
    "lattice": (
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
    ),
    "presentation": ("Presentation", "PresentationError", "parse_presentation"),
    "coset": ("CosetTable", "enumerate_cosets"),
    "isomorphism": ("are_isomorphic",),
    "families": (
        "FamilySpec",
        "UnknownFamilyError",
        "build",
        "validate",
        "expected_order",
        "builtin_presentation",
        "cyclic_spec",
        "product_spec",
    ),
    "catalog": (
        "ExpectedNps",
        "BucketMember",
        "EXACT",
        "LOWER_BOUND",
        "UNDER_REVIEW",
        "expected_nps",
        "printed_rank2_formula",
        "theorem_catalog",
        "instantiate_bucket",
    ),
    "specs": ("SpecError", "parse_spec"),
    "corpus": ("CorpusEntry", "CorpusError", "load_corpus", "dump_corpus", "entry_from_group"),
    "arith": ("is_prime", "factorize", "divisors", "multiplicative_order"),
}
__all__ = [name for names in _MODULES.values() for name in names]
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

