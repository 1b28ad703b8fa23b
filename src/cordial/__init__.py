"""Exact toolkit for cordial labelings of small graphs.

Exhaustive deficiency search with deterministic witnesses, closed forms for
complete graphs, cycles, wheels and mobius ladders, constructive labelings
checked by a certificate verifier, and a parity obstruction for lower bounds.

The namespace is lazy: `import cordial` loads no submodule, and each name in
__all__ imports the one submodule that defines it on first access (PEP 562).
A process pays to compile and run only the modules it uses, which is most of
a CLI command's start-up when no bytecode cache exists.
"""

from importlib import import_module as _import_module

# every exported name, by the submodule that defines it
_HOMES = {
    name: module
    for module, names in (
        ("certify", "Certificate ValidationReport ValidationRow Verdict check_certificate"
                    " cross_validate parse_certificate serialize_certificate"
                    " DEFAULT_MAX_VERTICES DeficiencyValue InfinityReason"),
        ("errors", "CordialError MalformedCertificate NotApplicable ParseError"),
        ("families", "ced_complete complete_cordial_labeling complete_ced_witness"
                     " complete_cvd_witness complete_split construct_mobius_labeling"
                     " cvd_complete cvd_complete_literal cycle_cordial_labeling"
                     " is_cordial_complete is_cordial_cycle is_cordial_mobius"
                     " is_cordial_wheel mobius_ced_witness mobius_cvd_witness"
                     " wheel_cordial_labeling wheel_ced_witness wheel_cvd_witness"),
        ("graph_core", "FAMILIES MIN_SIZE FamilySpec MultiGraph parse_edge_list"),
        ("labeling", "BalanceReport balance first_pair_with_edge_label parity_obstruction"),
        ("oracle", "OracleResult solve"),
    )
    for name in names.split()
}

__version__ = "0.1.0"

# the submodules are attributes once imported, not exports
__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:  # so `from cordial import <submodule>` imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
