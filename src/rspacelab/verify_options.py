"""What the verify command accepts: suite names and default tolerances.

Kept free of numpy and of the suites themselves, so the command line front
end can print them in its help without loading the layers verify runs.
"""

SUITE_NAMES = ("algebra", "roots", "orbit", "delta", "critical",
               "capacity", "finsler")

DEFAULT_TOL = {
    "alg": 1e-10,       # exact algebraic identities
    "killing": 1e-9,    # Killing spectrum vs family multiple
    "j2": 1e-7,         # J^2 + id on orbit tangents
    "form": 1e-9,       # orbit two-form identities
    "sl2": 1e-8,        # bracket relations of cascade triples
    "gap_rel": 1e-3,    # optimizer-found level gaps, relative
    "cap_rel": 1e-6,    # capacity formulas, relative
    "sys_abs": 1e-6,    # pinned systoles, absolute
    "band": 1e-6,       # shell thickness for the cut predicate
    "spread": 1e-8,     # Schatten-2 vs metric, relative spread
    "mono": 1e-10,      # Schatten exponent monotonicity
}
