"""The derived operations and relations written out by hand over the arrow
table, one pair function each.

The package defines every derived head once, as a term in
``algebra.DERIVED``, and its pair functions (``wedge_q``, ``le_l``,
``sasaki.commutes`` ...) read the tables built from those terms.  These
definitions read the arrow alone and share nothing with that path, so they
are the independent reference that ``tests/test_derived_tables.py`` checks
every table against, and the per-pair references of the row kernels, the
registry scans and the axiom oracle call them.
"""


def star(alg, x):
    """x* = x -> 0."""
    return alg.arrow[x][alg.zero]


def vee_q(alg, x, y):
    """x vQ y = (x -> y) -> y."""
    return alg.arrow[alg.arrow[x][y]][y]


def wedge_q(alg, x, y):
    """x ^Q y = (x* vQ y*)*."""
    return star(alg, vee_q(alg, star(alg, x), star(alg, y)))


def wedge_p(alg, x, y):
    """x ^P y = (x -> y*)*."""
    return star(alg, alg.arrow[x][star(alg, y)])


def vee_p(alg, x, y):
    """x vP y = x* -> y."""
    return alg.arrow[star(alg, x)][y]


def le(alg, x, y):
    """x <= y iff x -> y = 1."""
    return alg.arrow[x][y] == alg.one


def le_q(alg, x, y):
    """x <=Q y iff x = x ^Q y."""
    return x == wedge_q(alg, x, y)


def le_l(alg, x, y):
    """x <=L y iff x = (x -> y*)*."""
    return x == star(alg, alg.arrow[x][star(alg, y)])


def ortho(alg, x, y):
    """x _|_ y iff x* = x -> y."""
    return star(alg, x) == alg.arrow[x][y]


def commutes(alg, x, y):
    """x C y iff phi_x(y) = y ^Q x equals (x -> y*)*."""
    return wedge_q(alg, y, x) == star(alg, alg.arrow[x][star(alg, y)])


def divides(alg, x, y):
    """x D y iff x -> (x -> y)* = x -> y*."""
    return alg.arrow[x][star(alg, alg.arrow[x][y])] == alg.arrow[x][star(alg, y)]


# Each head of ``algebra.DERIVED`` by its reference.
REFERENCE = {"vQ": vee_q, "^Q": wedge_q, "^P": wedge_p, "vP": vee_p, "<=": le, "<=L": le_l,
             "<=Q": le_q, "_|_": ortho, "C": commutes, "D": divides}
