"""Property predicates and the exhaustively evaluated property profile.

Every flag is brute force over all tuples; nothing symbolic.  Flags that need
the negation constant are None when f is not designated.
"""
from __future__ import annotations

from dataclasses import make_dataclass

from .algebra import BadParameter, NotAChain, is_commutative
from .terms import check_equations, check_identity


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

    A totally ordered A satisfies it: if y <= x, then x \\/ y = x and
    x/x >= e, so z\\((x/x)*z) >= z\\z >= e and the left joinand is e; if
    x <= y, the right joinand is e in the same way.
    """
    if A.is_totally_ordered:
        return True
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
    return admissibility_witness(A) is None


def admissibility_witness(A):
    """The first a != e with a\\e = e or e/a = e, or None."""
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


# Every entry of the profile, in its field order, with its predicate and what
# it needs: "f" designated, or a "chain" (totally ordered); where that is
# missing, the profile reads None, and `check_flags` refuses a filter that
# names the entry.
PROFILE = {
    "commutative": (is_commutative, None),
    "idempotent": (is_idempotent, None),
    "integral": (is_integral, None),
    "bounded": (is_bounded, None),
    "semilinear": (is_semilinear, None),
    "square_increasing": (lambda A: satisfies_knotted(A, 1, 2), None),
    "square_decreasing": (lambda A: satisfies_knotted(A, 2, 1), None),
    "n_potent": (n_potent_degree, None),
    "admissible": (is_admissible, "chain"),
    "lower_involutive": (is_lower_involutive, None),
    "cyclic_f": (is_cyclic_f, "f"),
    "left_involutive_f": (is_left_involutive_f, "f"),
    "right_involutive_f": (is_right_involutive_f, "f"),
    "involutive_f": (is_involutive_f, "f"),
}

PropertyProfile = make_dataclass("PropertyProfile", PROFILE, frozen=True)

# flag name -> predicate, for enumerate/class filters: every boolean entry
FLAG_PREDICATES = {key: pred for key, (pred, _) in PROFILE.items() if key != "n_potent"}


def property_profile(A):
    has = {None: True, "f": A.has_constant("f"), "chain": A.is_totally_ordered}
    return PropertyProfile(*[pred(A) if has[need] else None for pred, need in PROFILE.values()])


def check_flags(require, constants=(), total=True):
    """Raise BadParameter for an unknown flag, a boolean flag that is not a
    bool, a flag that needs f when `constants` (the designated names) lack it
    or a chain when the order is not `total`, or an n_potent that is not an
    int >= 0; and the errors of `terms.check_equations` for equations,
    commutative if the filter says so.  Returns the equations parsed."""
    equations = ()
    for key, want in (require or {}).items():
        if key == "n_potent":
            if type(want) is not int or want < 0:
                raise BadParameter(f"n_potent must be an integer >= 0, got {want!r}")
        elif key == "equations":
            equations = check_equations(want, constants, require.get("commutative") is True)
        elif key not in FLAG_PREDICATES:
            raise BadParameter(f"unknown property flag {key!r} (one of "
                               f"{', '.join(FLAG_PREDICATES)}, n_potent, equations)")
        elif type(want) is not bool:
            raise BadParameter(f"{key} must be true or false, got {want!r}")
        elif PROFILE[key][1] == "f" and "f" not in constants:
            raise BadParameter(f"{key} needs the constant f, which is not designated")
        elif PROFILE[key][1] == "chain" and not total:
            raise BadParameter(f"{key} needs a total order, and the order given is not total")
    return equations


def satisfies_flags(A, require):
    """require: dict flag-name -> bool, {'n_potent': k}, or
    {'equations': ('lhs=rhs', ...)} in term syntax, checked by `check_flags`
    against A's constants.  Equations are evaluated last, so that '->' meets
    only algebras the commutative flag admits."""
    if not require:
        return True
    equations = check_flags(require, A.signature)
    for key, want in require.items():
        if key == "n_potent":
            if not is_n_potent(A, want):
                return False
        elif key != "equations" and FLAG_PREDICATES[key](A) != want:
            return False
    return all(check_identity(A, lhs, rhs) for lhs, rhs in equations)
