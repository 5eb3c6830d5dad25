"""Cirquents: propositional formulas with clustered disjunction.

A cirquent is a negation-normal-form formula whose disjunction
occurrences are partitioned into clusters; truth requires choosing one
side per cluster, not per occurrence.  This package parses, prints,
evaluates and decides cirquents, and synthesizes and checks proofs in a
five-rule calculus whose axioms are classical tautologies.

The names in ``_EXPORTS`` are the public API, the ones README's Library
section documents; everything else is imported from its submodule.
Importing the package loads none of its submodules: each name loads
its submodule on first use (PEP 562) and is then kept in this module's
globals, so a program that never touches the calculus or the prover
never compiles or runs them.
"""

from importlib import import_module as _import_module

# Each public name, by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        (
            "core",
            "And Literal Or RuleError canonicalize_ids cluster_ids cluster_map cluster_size "
            "clusters first_nested members multi_member replace_at subcirquent_at",
        ),
        ("semantics", "TooLargeError countermodel metatrue true_under valid"),
        (
            "calculus",
            "RuleApp apply_rule_backward apply_rule_forward check_proof "
            "cluster_struct_match match_step",
        ),
        ("syntax", "ParseError ProofEntry ProofScript parse parse_proof print_cirquent print_proof"),
        (
            "prover",
            "Derivation Invalid StateTuple Valid decide prove reduce_to_classical "
            "resolve_cluster",
        ),
    )
    for name in names.split()
}

__all__ = tuple(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, loaded with its submodule on first use and kept; or a submodule."""
    if name in _EXPORTS.values():
        return _import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
