"""Verification and construction toolkit for indexed branched covers of
finite posets, with combinatorial subdivisions and the dimension-1 metric
refinement.

The names below resolve on first use (PEP 562), so importing the package,
as every CLI process does, loads none of its modules until a name from
one of them is asked for."""

# module: the names it defines that the package exports
_EXPORTS = {name: module for module, names in {
    "checks": "Check",
    "dot": "export_dot",
    "covers": "DegreeReport IndexMap branch_locus_check global_degree is_balanced is_ibc "
              "is_ibc_oracle local_degree search_balanced",
    "extend": "ExtensionReport LiftingReport Path check_connectivity_lifting extend_balanced "
              "lift_path lift_upward_path",
    "metric": "MetricGraph MetricGraphMorphism Point Refinement graph_face_poset "
              "morphism_face_poset refine_to_combinatorial sample_fibre",
    "morphisms": "PosetMorphism",
    "posets": "ConnectivityReport Poset RankReport connectivity enumerate_up_sets rank_check",
    "subdivision": "ChainPoset SimplicialComplex bcs_morphism chain_poset "
                   "simplicial_face_poset stellar_subdivide",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    # bound here, so later lookups skip this function
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
