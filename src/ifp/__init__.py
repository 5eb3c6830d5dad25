"""Cirquents: propositional formulas with clustered disjunction.

A cirquent is a negation-normal-form formula whose disjunction
occurrences are partitioned into clusters; truth requires choosing one
side per cluster, not per occurrence.  This package parses, prints,
evaluates and decides cirquents, and synthesizes and checks proofs in a
five-rule calculus whose axioms are classical tautologies.

The names below are the public API, the ones README's Library section
documents; everything else is imported from its submodule.
"""

from .core import (
    And,
    Literal,
    Or,
    canonicalize_ids,
    cluster_ids,
    cluster_map,
    cluster_size,
    clusters,
    first_nested,
    members,
    multi_member,
    replace_at,
    subcirquent_at,
)
from .semantics import (
    TooLargeError,
    countermodel,
    metatrue,
    true_under,
    valid,
)
from .calculus import (
    ProofEntry,
    ProofScript,
    RuleApp,
    RuleError,
    apply_rule_backward,
    apply_rule_forward,
    check_proof,
    cluster_struct_match,
    match_step,
)
from .syntax import ParseError, parse, parse_proof, print_cirquent, print_proof
from .prover import (
    Derivation,
    Invalid,
    StateTuple,
    Valid,
    decide,
    prove,
    reduce_to_classical,
    resolve_cluster,
)

__version__ = "0.1.0"
