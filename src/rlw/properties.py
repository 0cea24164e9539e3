"""Property predicates and the exhaustively evaluated property profile.

Every flag is brute force over all tuples; nothing symbolic.  Flags that need
the negation constant are None when f is not designated.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import BadParameter, NotAChain
from .terms import check_identity, parse_term


def is_commutative(A):
    n = A.size
    return all(A.mult[x][y] == A.mult[y][x] for x in range(n) for y in range(n))


def is_idempotent(A):
    return all(A.mult[x][x] == x for x in A.elements)


def is_integral(A):
    e = A.unit
    return all(A.leq[x][e] for x in A.elements)


def is_bounded(A):
    """Both extremes are named by constants of the signature (e counts)."""
    named = {A.unit} | {v for _, v in A.constants}
    return A.bottom in named and A.top in named


def is_semilinear(A):
    """The 4-variable semilinearity equation, checked over all assignments:
    (z\\((x/(x\\/y))*z) /\\ e) \\/ ((w*(y/(x\\/y)))/w /\\ e) = e.
    """
    n, e = A.size, A.unit
    mult, meet, join, lres, rres, leq = A.mult, A.meet, A.join, A.lres, A.rres, A.leq
    for x in range(n):
        for y in range(n):
            xy = join[x][y]
            u = rres[x][xy]
            v = rres[y][xy]
            for z in range(n):
                left = meet[lres[z][mult[u][z]]][e]
                if left == e:
                    continue  # e \/ (anything /\ e) = e, any w works
                for w in range(n):
                    right = meet[rres[mult[w][v]][w]][e]
                    if join[left][right] != e:
                        return False
    return True


def powers(A, x, upto):
    """[x^0, x^1, ..., x^upto] with x^0 = e."""
    out = [A.unit]
    for _ in range(upto):
        out.append(A.mult[out[-1]][x])
    return out


def satisfies_knotted(A, m, n):
    """x^m <= x^n for all x."""
    k = max(m, n)
    for x in A.elements:
        p = powers(A, x, k)
        if not A.leq[p[m]][p[n]]:
            return False
    return True


def is_n_potent(A, n):
    return satisfies_knotted(A, n + 1, n) and satisfies_knotted(A, n, n + 1)


def n_potent_degree(A):
    """Least n with x^(n+1) = x^n for all x, or None if powers cycle."""
    worst = 0
    for x in A.elements:
        seen = {}
        p, k = A.unit, 0
        while True:
            p2 = A.mult[p][x]
            if p2 == p:
                break
            k += 1
            if p2 in seen:
                return None  # proper cycle, no stabilization
            seen[p2] = k
            p = p2
        worst = max(worst, k)
    return worst


def is_cyclic_f(A):
    f = A.constant("f")
    return all(A.lres[x][f] == A.rres[f][x] for x in A.elements)


def is_left_involutive_f(A):
    # -~x = x, i.e. f/(x\f) = x
    f = A.constant("f")
    return all(A.rres[f][A.lres[x][f]] == x for x in A.elements)


def is_right_involutive_f(A):
    # ~-x = x, i.e. (f/x)\f = x
    f = A.constant("f")
    return all(A.lres[A.rres[f][x]][f] == x for x in A.elements)


def is_involutive_f(A):
    return is_left_involutive_f(A) and is_right_involutive_f(A)


def is_admissible(A):
    """a\\e != e and e/a != e for every a != e (totally ordered A only)."""
    if not A.is_totally_ordered:
        raise NotAChain(f"{A.name} is not totally ordered")
    e = A.unit
    return all(A.lres[a][e] != e and A.rres[e][a] != e
               for a in A.elements if a != e)


def admissibility_witness(A):
    e = A.unit
    for a in A.elements:
        if a != e and (A.lres[a][e] == e or A.rres[e][a] == e):
            return a
    return None


def wedge_value(A, x):
    """x^w = (e/x) /\\ (x\\e)."""
    e = A.unit
    return A.meet[A.rres[e][x]][A.lres[x][e]]


def is_lower_involutive(A):
    return all(wedge_value(A, wedge_value(A, x)) == x for x in A.elements)


def handy_fixed_points(A, d):
    """All x with x\\d = x; on a chain there is at most one per d."""
    return [x for x in A.elements if A.lres[x][d] == x]


def mirror_fixed_points(A, d):
    """All x with d/x = x (the opposite-algebra version)."""
    return [x for x in A.elements if A.rres[d][x] == x]


def is_central(A, c):
    return all(A.mult[c][x] == A.mult[x][c] for x in A.elements)


@dataclass(frozen=True)
class PropertyProfile:
    commutative: bool
    idempotent: bool
    integral: bool
    bounded: bool
    semilinear: bool
    square_increasing: bool
    square_decreasing: bool
    n_potent: int | None
    admissible: bool | None        # None when not totally ordered
    lower_involutive: bool
    cyclic_f: bool | None          # f-flags are None when f is undesignated
    left_involutive_f: bool | None
    right_involutive_f: bool | None
    involutive_f: bool | None


def property_profile(A):
    has_f = A.has_constant("f")
    return PropertyProfile(
        commutative=is_commutative(A),
        idempotent=is_idempotent(A),
        integral=is_integral(A),
        bounded=is_bounded(A),
        semilinear=is_semilinear(A),
        square_increasing=satisfies_knotted(A, 1, 2),
        square_decreasing=satisfies_knotted(A, 2, 1),
        n_potent=n_potent_degree(A),
        admissible=is_admissible(A) if A.is_totally_ordered else None,
        lower_involutive=is_lower_involutive(A),
        cyclic_f=is_cyclic_f(A) if has_f else None,
        left_involutive_f=is_left_involutive_f(A) if has_f else None,
        right_involutive_f=is_right_involutive_f(A) if has_f else None,
        involutive_f=is_involutive_f(A) if has_f else None,
    )


# flag name -> predicate, for enumerate/class filters
FLAG_PREDICATES = {
    "commutative": is_commutative,
    "idempotent": is_idempotent,
    "integral": is_integral,
    "bounded": is_bounded,
    "semilinear": is_semilinear,
    "square_increasing": lambda A: satisfies_knotted(A, 1, 2),
    "square_decreasing": lambda A: satisfies_knotted(A, 2, 1),
    "lower_involutive": is_lower_involutive,
    "admissible": is_admissible,
    "cyclic_f": is_cyclic_f,
    "involutive_f": is_involutive_f,
}


def check_flags(require):
    """Raise BadParameter for an unknown flag, an n_potent that is not an int
    >= 0, or equations not a list of 'lhs=rhs' strings; ParseError for a bad term."""
    for key, want in (require or {}).items():
        if key == "n_potent":
            if type(want) is not int or want < 0:
                raise BadParameter(f"n_potent must be an integer >= 0, got {want!r}")
        elif key == "equations":
            if not (isinstance(want, (list, tuple))
                    and all(isinstance(eq, str) and eq.count("=") == 1 for eq in want)):
                raise BadParameter(f"equations must be a list of 'lhs=rhs' strings, "
                                   f"got {want!r}")
            for eq in want:
                for side in eq.split("="):
                    parse_term(side)
        elif key not in FLAG_PREDICATES:
            raise BadParameter(f"unknown property flag {key!r}")


def satisfies_flags(A, require):
    """require: dict flag-name -> bool, {'n_potent': k}, or
    {'equations': ('lhs=rhs', ...)} in term syntax, checked by `check_flags`."""
    check_flags(require)
    for key, want in (require or {}).items():
        if key == "n_potent":
            ok = is_n_potent(A, want)
        elif key == "equations":
            ok = all(check_identity(A, *eq.split("=")) for eq in want)
        else:
            ok = FLAG_PREDICATES[key](A) == bool(want)
        if not ok:
            return False
    return True
