"""curvelim: exact replay and certification of a polynomial-differential
elimination proof (constant mean curvature of biharmonic hypersurfaces with
constant scalar curvature in 5-dimensional space forms)."""

from .exactpoly import (
    DomainError,
    MonomialOrder,
    ParseError,
    PolyError,
    Polynomial,
    VarTable,
    block_order,
    grevlex_order,
    lex_order,
    parse_polynomial,
    resultant,
)
from .ideal import (
    Certificate,
    GeneratorSet,
    GroebnerBasis,
    Limits,
    NOT_MEMBER,
    Relation,
    ResourceExhausted,
    SaturationRecord,
    eliminate,
    groebner,
    membership,
    normal_form,
)
from .frame import (
    ENGINE_VERSION,
    Axiom,
    DerivationRuleTable,
    EquationRegistry,
    SymbolTable,
    load_paper_axioms,
    load_paper_symbols,
    load_rule_tables,
    nondegeneracy_records,
)

__all__ = [name for name in dir() if not name.startswith("_")]
