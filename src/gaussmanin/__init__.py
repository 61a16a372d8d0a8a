"""Exact Gauss-Manin differential operators for polynomials with n+2
monomials in n+1 variables, and factorization of the resulting operators in
the b-adic completion of C<a,b> with a·b - b·a = b².
"""

from .abalgebra import ABElement, HomogChain, right_divide, theta_k
from .critical import CriticalReport, check_singular_equation, critical_values, equation_holds
from .engine import (
    GMOperator,
    PolySpec,
    RelationData,
    analyze,
    build_operator,
    check_condition_C,
    monomial_chain,
    cyclic_symmetric_spec,
    load_spec_file,
    symmetric_family_bracket,
    symmetric_family_operator,
)
from .factor import (
    FactorizationResult,
    IrregularSplit,
    PipelineReport,
    bernstein_element,
    hensel_decompose,
    is_regular,
    regular_quotient_pipeline,
    split_irregular,
)
from .intdep import (
    DependenceRelation,
    LinearForms,
    dependence_relation,
    linear_forms,
    verify_identity,
)
from .ode import (
    DiffOp,
    EulerPoly,
    bernstein_polynomial,
    element_from_bernstein,
    euler_form,
    from_euler,
    singular_values,
    to_differential_operator,
)
from .scalars import (
    LaurentLambda,
    Rational,
    UniPoly,
    bezout,
    coprime_split,
    rational_roots,
)

__all__ = [
    "ABElement", "HomogChain", "right_divide", "theta_k",
    "CriticalReport", "check_singular_equation", "critical_values", "equation_holds",
    "GMOperator", "PolySpec", "RelationData", "analyze", "build_operator",
    "check_condition_C", "monomial_chain", "cyclic_symmetric_spec",
    "load_spec_file", "symmetric_family_bracket", "symmetric_family_operator",
    "FactorizationResult", "IrregularSplit", "PipelineReport",
    "bernstein_element", "hensel_decompose", "is_regular",
    "regular_quotient_pipeline", "split_irregular",
    "DependenceRelation", "LinearForms", "dependence_relation", "linear_forms",
    "verify_identity",
    "DiffOp", "EulerPoly", "bernstein_polynomial", "element_from_bernstein",
    "euler_form", "from_euler", "singular_values", "to_differential_operator",
    "LaurentLambda", "Rational", "UniPoly", "bezout", "coprime_split",
    "rational_roots",
]

__version__ = "0.1.0"
