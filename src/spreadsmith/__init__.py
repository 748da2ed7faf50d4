"""spreadsmith: exact line-parallelisms of PG(3,q) from Desarguesian and
Hall spreads, with enumeration, verification and equivalence classification.

The names of ``__all__`` are loaded lazily (PEP 562): ``import spreadsmith``
loads no submodule, and ``spreadsmith.classify`` or ``from spreadsmith
import classify`` imports the one module that defines the name, on first
use.  Each name is the object of its home module.
"""

from importlib import import_module

# home module -> the names it exports through the package
_HOMES = {
    "field_tower": ("FieldSpec", "LambdaSystem", "NormPartition", "build_lambda",
                    "build_partition", "field_for_q", "lambda_for_q"),
    "spreads": ("Geometry", "geometry_for_q"),
    "goodsets": ("Candidate", "census", "count_formula", "count_good_sets", "dual",
                 "enumerate_good_sets", "fixed_plane_good_set", "fixed_point_good_set",
                 "is_good", "is_good_geometric"),
    "parallelisms": ("Parallelism", "build_parallelism", "characterize", "group_E",
                     "is_E_invariant", "verify_parallelism"),
    "equivalence": ("are_equivalent", "classify", "stabilizer_group"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
