"""Nested sums of residuated chains and nested-sum factorization.

The sum glues a chain-indexed family of chains at the shared unit: later
components nest into the gap around e left by earlier ones, an element of an
earlier component absorbs every element of a later one, and residuals are
re-derived from the glued product (admissibility governs whether components
are recoverable, so the factorizer's split policy depends on it).  Both the
glued chain and a candidate component of the factorizer (a submonoid of a
valid chain) are known to be monoids, so only their residuals are derived
and checked (`algebra.from_monoid`).
"""
from __future__ import annotations

from .algebra import NotAChain, NotAdmissible, NotResiduated, from_monoid, lattice_order
from .properties import admissibility_witness, is_admissible, is_integral
from .morphisms import are_isomorphic


def _check_component(i, A, last):
    if A.constants:
        raise NotAChain(f"component {i} ({A.name}) must be constant-free")
    if not last and not A.is_trivial and not is_admissible(A) and not is_integral(A):
        raise NotAdmissible(
            f"component {i} ({A.name}) is neither admissible nor integral; "
            f"witness element {admissibility_witness(A)}")


def nested_sum_with_map(components):
    """Glued chain plus provenance: glued index -> (component index, element).

    All but the last component must be admissible or integral; components are
    constant-free chains sharing only the unit.  The glued product is a
    monoid, so only its residuals are derived (`from_monoid`, which decides
    residuation): in a finite residuated chain no two non-unit elements
    multiply to the unit (if x < e < y and x*y = e, then z -> x*z is a
    monotone bijection, hence the identity, so x = e), so each component's
    products stay inside it, and the product is associative with the shared
    unit.
    """
    comps = [C.as_chain() for C in components]
    if not comps:
        raise NotAChain("empty nested sum")
    for i, C in enumerate(comps):
        _check_component(i, C, last=(i == len(comps) - 1))
    below, above = [], []
    for i, C in enumerate(comps):
        below.extend((i, x) for x in range(C.unit))
        above[:0] = [(i, x) for x in range(C.unit + 1, C.size)]
    sequence = below + [(-1, -1)] + above  # (-1,-1) marks the shared unit
    n = len(sequence)
    unit = len(below)
    pos = {}
    for idx, tag in enumerate(sequence):
        pos[tag] = idx
    def glue_index(i, x):
        if x == comps[i].unit:
            return unit
        return pos[(i, x)]
    mult = [[None] * n for _ in range(n)]
    for p in range(n):
        ci, cx = sequence[p]
        for q in range(n):
            dj, dy = sequence[q]
            if p == unit:
                mult[p][q] = q
            elif q == unit:
                mult[p][q] = p
            elif ci == dj:
                mult[p][q] = glue_index(ci, comps[ci].mult[cx][dy])
            elif ci < dj:
                mult[p][q] = p   # earlier component absorbs
            else:
                mult[p][q] = q
    labels = []
    for (i, x) in sequence:
        labels.append("e" if i < 0 else f"{i}.{comps[i].label(x)}")
    name = "(" + " + ".join(C.name for C in comps) + ")"
    glued = from_monoid(name, n, "chain", lattice_order(n, "chain"), unit,
                        tuple(map(tuple, mult)), labels=tuple(labels))
    provenance = tuple(sequence)
    return glued, provenance


def nested_sum(components):
    return nested_sum_with_map(components)[0]


def _restrict(A, subset, name):
    """Chain on a subset of the chain A containing its unit; None if the
    subset is not multiplicatively closed or the restriction is not
    residuated.  A closed subset is a submonoid, so only residuation is left
    to check."""
    sub = sorted(subset)
    posn = {x: i for i, x in enumerate(sub)}
    for x in sub:
        for y in sub:
            if A.mult[x][y] not in posn:
                return None
    # from lists, so that each tuple is allocated at its exact size
    mult = tuple([tuple([posn[A.mult[x][y]] for y in sub]) for x in sub])
    k = len(sub)
    try:
        return from_monoid(name, k, "chain", lattice_order(k, "chain"), posn[A.unit], mult,
                           labels=tuple(A.label(x) for x in sub))
    except NotResiduated:
        return None


def _split_once(A, allow_integral):
    """Smallest valid outer component (bottom segment + top segment + e).

    Returns (outer, inner) as FiniteAlgebras, or None when A is
    nested-sum-indecomposable under the policy.
    """
    n, e = A.size, A.unit
    candidates = []
    for lo in range(-1, e):           # bottom segment 0..lo (may be empty)
        for hi in range(e + 1, n + 1):  # top segment hi..n-1 (may be empty)
            t_size = (lo + 1) + (n - hi)
            if t_size == 0 or (lo + 1 == e and hi == e + 1):
                continue  # no outer part, or inner part would be just {e}
            candidates.append((t_size + 1, lo, hi))
    candidates.sort()
    for (_, lo, hi) in candidates:
        outer_set = list(range(lo + 1)) + [e] + list(range(hi, n))
        inner_set = list(range(lo + 1, hi))
        # cross rule: outer elements absorb every inner non-unit; tested
        # first, as the cheapest of these pure tests
        if not all(A.mult[x][s] == x == A.mult[s][x]
                   for x in outer_set if x != e for s in inner_set if s != e):
            continue
        X = _restrict(A, outer_set, f"{A.name}.outer")
        if X is None:
            continue
        S = _restrict(A, inner_set, f"{A.name}.inner")
        if S is None:
            continue
        if is_admissible(X) or (allow_integral and is_integral(X)):
            return X, S
    return None


def factor_nested_sum(A):
    """Finest nested-sum decomposition, outermost component first.

    Policy: outer components must be admissible; when the whole input chain is
    integral (BL-style) integral outer components are allowed, which yields
    the Wajsberg-component decomposition of basic-hoop/BL chains.
    """
    A = A.as_chain()
    if A.constants:
        A = A.reduct()
    allow_integral = is_integral(A)
    parts = []
    current = A
    while True:
        split = _split_once(current, allow_integral)
        if split is None:
            parts.append(current)
            return parts
        outer, inner = split
        parts.append(outer)
        current = inner


def components_isomorphic(xs, ys):
    return (len(xs) == len(ys)
            and all(are_isomorphic(x, y) is not None for x, y in zip(xs, ys)))
