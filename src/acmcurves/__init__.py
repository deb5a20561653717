"""Integer arithmetic of ACM curves on surfaces in P^3.

Weak admissible pairs and their kind catalogs, Hilbert-Burch twist
tables with degree/genus formulas, rank-2 Picard lattice class solving,
liaison arithmetic, and the assembled classification tables for the
five special quartic families.

The public names load on first use (PEP 562): `import acmcurves` runs
no submodule, and the first `acmcurves.X` imports the submodule that
defines X and keeps X in the package namespace, so later lookups are
plain attribute reads.

Every record (a pair, a matrix, a lattice, a class, a table, an entry)
is a slotted named tuple: immutable, hashed and ordered as the plain
tuple of its fields, and equal to that tuple (and to a record of
another class with the same fields).  A record whose fields must agree
checks them in ``__new__``, and its ``_make``, and so its ``_replace``,
builds through the constructor.  Records are built through their
constructor everywhere except at a few sites, each of which establishes
the check's fact itself (or builds a record that checks nothing, from
all its fields) and then calls ``tuple.__new__``.  The one list of
those sites, each with its reason, is ``UNCHECKED_BUILDS`` in
``tests/test_source.py``, which fails on any other site and on a stale
entry.  A named tuple is also the cheapest record class to define,
which matters because every CLI process defines the classes it uses
afresh.
"""

# each public name -> the submodule that defines it
_ORIGIN = {
    name: module
    for module, names in {
        "pairs": (
            "BIG", "DegreeMatrix", "KindSignature", "PairError", "WeakAdmissiblePair",
            "anti_transpose", "degree_matrix", "dual_pair", "is_reducible_type",
            "kind_signature", "make_pair", "normalize", "pair_signature",
        ),
        "enumeration": (
            "EnumerationConfig", "KindCatalog", "enumerate_kinds", "enumerate_pairs",
            "match_families", "stable_cap",
        ),
        "resolutions": (
            "BettiTable", "CurveInvariants", "InvalidTableError", "ci_table", "degree_from_betti",
            "genus_from_betti", "invariants_from_betti", "surface_generator_table",
            "pivot_syzygy_table", "validate",
        ),
        "picard": (
            "DivisorClass", "H", "PicardLattice", "adjunction_genus", "dot",
            "plane_curve_classes", "quartic_lattice", "solve_classes", "watanabe_candidates",
        ),
        "liaison": ("CiProfile", "LinkageError", "residual_invariants"),
        "classifier": (
            "ClassificationEntry", "ClassificationError", "QuarticDivisor", "classify_low_degree",
            "classify_quartic", "cross_check", "divisor", "known_divisors",
        ),
    }.items()
    for name in names
}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
