"""Exact online fair division: mechanisms, axioms, and falsifiers.

Items arrive one at a time and are irrevocably given to one agent chosen
uniformly from a rule-specific feasible set, or discarded when nobody bids
for them. Everything is computed in exact rational arithmetic: mechanism
outputs are finite distributions over complete allocations, and all axiom
checks and deviation searches are decision procedures, not approximations.
"""

from .axioms import (
    AxiomVerdict,
    DominationWitness,
    EnvyWitness,
    ImprovementWitness,
    check_befp,
    check_efa,
    check_efp,
    check_envy_bounded,
    check_pea,
    check_pep,
    check_prefix_efa,
    check_sefa,
    check_sefp,
    efa_forced_marginals,
    ex_ante_equivalent,
    ex_post_equivalent,
)
from .core import (
    DEFAULT_MAX_NODES,
    Allocation,
    AllocationDistribution,
    AssignmentMatrix,
    BidProfile,
    ExpectedUtilityMatrix,
    FairDivError,
    Instance,
    PriorityOrder,
    Value,
    WorkBoundExceeded,
    as_value,
    bundle_utility,
    expected_utilities,
    format_value,
    marginals,
    work_bound,
)
from .instances import (
    DOMAIN_NAMES,
    ConstructedMechanism,
    DomainSpec,
    ParseError,
    build_table_manifest,
    counterexample_instances,
    generate,
    load_manifest,
    parse_bids,
    parse_instance,
    parse_rational,
    random_suite,
    serialize_instance,
    validate_domain,
    worked_example,
)
from .mechanisms import (
    MECHANISM_NAMES,
    Mechanism,
    RuleInvariantError,
    allocate,
    balanced_like,
    get_mechanism,
    like,
    maximum_like,
    orp,
    orp_distribution,
    osd,
    pareto_levels,
    pareto_like,
)
from .oracle import (
    LPSolution,
    enumerate_allocations,
    pareto_frontier,
    pea_solution,
    utility_vector,
)
from .strategic import (
    BidGrid,
    Deviation,
    MechanismProfile,
    ProbeWitness,
    classify,
    memoryless_probe,
    osp_falsify,
    sp_falsify,
    step_probe,
)

__version__ = "0.1.0"
