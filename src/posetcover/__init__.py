"""Verification and construction toolkit for indexed branched covers of
finite posets, with combinatorial subdivisions and the dimension-1 metric
refinement."""

from .checks import Check
from .dot import export_dot
from .covers import (
    DegreeReport,
    IndexMap,
    branch_locus_check,
    global_degree,
    is_balanced,
    is_ibc,
    is_ibc_oracle,
    local_degree,
    search_balanced,
)
from .extend import (
    ExtensionReport,
    LiftingReport,
    Path,
    check_connectivity_lifting,
    extend_balanced,
    lift_path,
    lift_upward_path,
)
from .metric import (
    MetricGraph,
    MetricGraphMorphism,
    Point,
    Refinement,
    graph_face_poset,
    morphism_face_poset,
    refine_to_combinatorial,
    sample_fibre,
)
from .morphisms import PosetMorphism
from .posets import (
    ConnectivityReport,
    Poset,
    RankReport,
    connectivity,
    enumerate_up_sets,
    rank_check,
)
from .subdivision import (
    ChainPoset,
    SimplicialComplex,
    bcs_morphism,
    chain_poset,
    simplicial_face_poset,
    stellar_subdivide,
)

__version__ = "0.1.0"
