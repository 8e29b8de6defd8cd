"""Exact symbolic kernel for the algebras generated by W = k[x]/x^2 under
product and tensor, their cograph presentations, morphism decomposition into
the five tangent-structure generating maps, and a brute-force axiom suite."""

from .rig import Rig, psi
from .cograph import (
    DerivedGraph,
    Graph,
    NotACograph,
    cl_graph,
    complement,
    disjoint_union,
    graph,
    ind_plus,
    independent_sets,
    join as graph_join,
    kappa,
    to_dot,
)
from .cotree import Cotree, K, W, cotree_decompose, format_cotree, join, n_join, n_tensor, realize, tensor
from .weilalg import (
    Polynomial,
    WeilObject,
    algebra_of,
    coproduct,
    format_poly,
    gen_poly,
    mono_mul,
    poly,
    poly_add,
    poly_mul,
    presentation,
    product,
)
from .morphism import (
    KleisliMap,
    Morphism,
    MorphismError,
    RelationViolation,
    RigMismatch,
    TypeMismatch,
    compose,
    eps,
    from_kleisli,
    generators,
    ghat,
    identity,
    kleisli_compose,
    kleisli_identity,
    lift_to_nat,
    pair,
    pair_into,
    project_to_bool2,
    projection,
    tensor_mor,
    to_kleisli,
    unit_map,
    validate,
    zero_map,
)
from .genexpr import (
    DecompositionTrace,
    GenExpr,
    IllTyped,
    SlotAssignment,
    decompose,
    decompose_one_circle,
    decompose_with_trace,
    evaluate,
    expand_ghat,
    format_genexpr,
)
from .verify import (
    AxiomReport,
    AxiomResult,
    ChoiceAmbiguous,
    TooLarge,
    canonical_objects,
    check_equalizer,
    check_foundational_pullback,
    check_nat_fullness,
    check_tangent_axioms,
    count_graph_maps,
    enumerate_hom,
    gamma_witness,
    gamma_squares_commute,
    iter_verify,
    omega_squares_commute,
    omega_witness,
    run_verify,
    vertical_lift_equalizer_map,
)
from .dsl import DslSyntaxError, format_morphism, parse_genexpr, parse_morphism, parse_object

__version__ = "0.1.0"
