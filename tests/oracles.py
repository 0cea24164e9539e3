"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and written directly from the
definitions, so it shares no code path with the library's validators,
completion search, or hom enumeration.
"""
import itertools


def law_violation(n, unit, mult):
    """First violated residuated-chain law on 0 < 1 < ... < n-1, or None.

    Checks: unit, associativity, monotonicity, and existence of both
    residuals (max of the witness set) for every pair.
    """
    for x in range(n):
        if mult[unit][x] != x or mult[x][unit] != x:
            return "unit"
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
                    return "assoc"
    for x in range(n):
        for y in range(n):
            for y2 in range(y, n):
                if mult[x][y] > mult[x][y2] or mult[y][x] > mult[y2][x]:
                    return "monotone"
    for x in range(n):
        for z in range(n):
            left = [y for y in range(n) if mult[x][y] <= z]
            right = [w for w in range(n) if mult[w][x] <= z]
            if not left or not right:
                return "residual"
            if mult[x][max(left)] > z or mult[max(right)][x] > z:
                return "residual"
    return None


def mono_ok(m, leq, i, j, v):
    """Whether the partial table m, with v at (i, j), is monotone at that
    cell under the order leq: every decided cell of its row and column that
    lies before it (after it) holds a value below (above) v."""
    for k in range(len(m)):
        w = m[k][j]
        if w is not None:
            if leq[k][i] and not leq[w][v]:
                return False
            if leq[i][k] and not leq[v][w]:
                return False
        w = m[i][k]
        if w is not None:
            if leq[k][j] and not leq[w][v]:
                return False
            if leq[j][k] and not leq[v][w]:
                return False
    return True


def brute_chains(n):
    """All valid residuated chains of size n as (unit, mult) pairs, by
    filtering every conceivable table.  Only feasible for n <= 3-4."""
    out = []
    cells = [(i, j) for i in range(n) for j in range(n)]
    for unit in range(n):
        for values in itertools.product(range(n), repeat=len(cells)):
            mult = [[0] * n for _ in range(n)]
            for (i, j), v in zip(cells, values):
                mult[i][j] = v
            if law_violation(n, unit, mult) is None:
                out.append((unit, tuple(tuple(r) for r in mult)))
    return out


def brute_completions(n, unit, known, checks=(), bottom_absorbing=True):
    """All chain tables extending `known` (dict (i,j)->v) and passing all the
    extra check predicates; unit row/column and the absorbing bottom row are
    filled first.  Returns a sorted list of tables."""
    base = dict(known)
    for x in range(n):
        base.setdefault((unit, x), x)
        base.setdefault((x, unit), x)
        if bottom_absorbing:
            base.setdefault((0, x), 0)
            base.setdefault((x, 0), 0)
    free = [(i, j) for i in range(n) for j in range(n) if (i, j) not in base]
    out = []
    for values in itertools.product(range(n), repeat=len(free)):
        mult = [[None] * n for _ in range(n)]
        for (i, j), v in base.items():
            if mult[i][j] is not None and mult[i][j] != v:
                break
            mult[i][j] = v
        else:
            for (i, j), v in zip(free, values):
                mult[i][j] = v
            if law_violation(n, unit, mult) is not None:
                continue
            if all(chk(mult) for chk in checks):
                out.append(tuple(tuple(r) for r in mult))
    return sorted(out)


def chain_residuals(n, mult):
    """(lres, rres) computed directly from the definition on a chain."""
    lres = [[max(y for y in range(n) if mult[x][y] <= z) for z in range(n)]
            for x in range(n)]
    rres = [[max(w for w in range(n) if mult[w][y] <= z) for y in range(n)]
            for z in range(n)]
    return lres, rres


def induced_order_by_pairs(leq, items):
    """`algebra.induced_order` from the definition: the items ranked by how
    many of them lie below each when every pair is comparable, else in
    ascending index order."""
    items = sorted(items)
    total = all(leq[x][y] or leq[y][x] for x in items for y in items)
    if total:
        return sorted(items, key=lambda x: len([y for y in items if leq[y][x]])), True
    return items, False


def lattice_tables(n, leq):
    """Meet and join of a partial order by searching every candidate bound."""
    from rlw.algebra import NotALattice
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            glb = [z for z in lower if all(leq[w][z] for w in lower)]
            if len(glb) != 1:
                raise NotALattice(f"no meet for ({x},{y})")
            meet[x][y] = glb[0]
            upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
            lub = [z for z in upper if all(leq[z][w] for w in upper)]
            if len(lub) != 1:
                raise NotALattice(f"no join for ({x},{y})")
            join[x][y] = lub[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def residual_tables(n, leq, mult, join):
    """(lres, rres) as joins of witness lists, then the residuation law for
    every triple."""
    from rlw.algebra import NotResiduated
    # x\z exists iff {y : x*y <= z} is nonempty and contains its own join;
    # afterwards the full residuation law is checked for every triple.
    lres = [[None] * n for _ in range(n)]
    rres = [[None] * n for _ in range(n)]
    for x in range(n):
        for z in range(n):
            ys = [y for y in range(n) if leq[mult[x][y]][z]]
            if not ys:
                raise NotResiduated(f"{x}\\{z} does not exist: no y with {x}*y <= {z}")
            m = ys[0]
            for y in ys[1:]:
                m = join[m][y]
            if not leq[mult[x][m]][z]:
                raise NotResiduated(f"{x}\\{z} does not exist: witness set has no maximum")
            lres[x][z] = m
            xs = [w for w in range(n) if leq[mult[w][x]][z]]
            if not xs:
                raise NotResiduated(f"{z}/{x} does not exist: no w with w*{x} <= {z}")
            m = xs[0]
            for w in xs[1:]:
                m = join[m][w]
            if not leq[mult[m][x]][z]:
                raise NotResiduated(f"{z}/{x} does not exist: witness set has no maximum")
            rres[z][x] = m
    for x in range(n):
        for y in range(n):
            for z in range(n):
                prod_le = leq[mult[x][y]][z]
                if prod_le != leq[y][lres[x][z]]:
                    raise NotResiduated(f"residuation law fails at x={x}, y={y}, z={z} (left)")
                if prod_le != leq[x][rres[z][y]]:
                    raise NotResiduated(f"residuation law fails at x={x}, y={y}, z={z} (right)")
    return tuple(map(tuple, lres)), tuple(map(tuple, rres))


def semilinear_by_equation(A):
    """The 4-variable semilinearity equation over every assignment, with no
    shortcut for chains:
    (z\\((x/(x\\/y))*z) /\\ e) \\/ ((w*(y/(x\\/y)))/w /\\ e) = e."""
    e, mult, meet, join = A.unit, A.mult, A.meet, A.join
    lres, rres = A.lres, A.rres   # lres[x][z] = x\\z, rres[z][y] = z/y
    for x, y, z, w in itertools.product(A.elements, repeat=4):
        xy = join[x][y]
        left = meet[lres[z][mult[rres[x][xy]][z]]][e]
        right = meet[rres[mult[w][rres[y][xy]]][w]][e]
        if join[left][right] != e:
            return False
    return True


def square_nonsemilinear():
    """A 4-element residuated lattice on the square 0 < a,b < 1 with unit at
    the coatom a: valid, simple, and not semilinear (found by search)."""
    from rlw.algebra import finite_algebra
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    mult = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 2], [0, 3, 2, 3]]
    return finite_algebra("sq_a", 4, leq, 1, mult)


def boolean_square():
    """The 2x2 Boolean lattice 0 < a,b < 1 with mult = meet: a semilinear
    residuated lattice (a product of two 2-chains) that is not a chain."""
    from rlw.algebra import finite_algebra
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    return finite_algebra("2x2", 4, leq, 3, meet)


def boolean_square_with_top():
    """The Heyting algebra 0 < a,b < c < 1 with mult = meet and unit 1: a
    non-chain whose subset {0, a, b, 1} is closed under mult and both
    residuals but not under join (a v b = c)."""
    from rlw.algebra import finite_algebra
    leq = [[1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 1, 1],
           [0, 0, 0, 0, 1]]
    meet = [[0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 2, 2, 2], [0, 1, 2, 3, 3],
            [0, 1, 2, 3, 4]]
    return finite_algebra("2x2+1", 5, leq, 4, meet)


def brute_homs(B, D, injective=False):
    """All homomorphisms by filtering every map (independent checker)."""
    out = []
    consts_b, consts_d = dict(B.constants), dict(D.constants)
    if consts_b.keys() != consts_d.keys():
        return out
    for mapping in itertools.product(range(D.size), repeat=B.size):
        if injective and len(set(mapping)) != B.size:
            continue
        if mapping[B.unit] != D.unit:
            continue
        if any(mapping[v] != consts_d[k] for k, v in consts_b.items()):
            continue
        ok = True
        for op in ("mult", "meet", "join", "lres", "rres"):
            tb, td = getattr(B, op), getattr(D, op)
            for x in range(B.size):
                for y in range(B.size):
                    if mapping[tb[x][y]] != td[mapping[x]][mapping[y]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(mapping)
    return out


def chain_members_from_scratch(bases, constants):
    """The members enumerate_chains(n, constants=...) should yield, rebuilt
    from its constant-free members `bases`: every (table, constants) pair is
    validated from scratch by finite_algebra.  Order and names follow the
    documented rule: bases in order, bot/top pinned to the endpoints, then f
    at each position, with the sorted constants appended to the base name."""
    from rlw.algebra import finite_algebra
    out = []
    for B in bases:
        n = B.size
        pinned = {}
        if "bot" in constants:
            pinned["bot"] = 0
        if "top" in constants:
            pinned["top"] = n - 1
        options = ([dict(pinned, f=pos) for pos in range(n)] if "f" in constants
                   else [pinned])
        for consts in options:
            suffix = "".join(f"{k}{v}" for k, v in sorted(consts.items()))
            out.append(finite_algebra(B.name + suffix, n, "chain", B.unit,
                                      [list(row) for row in B.mult], consts))
    return out


def relabelled(A, perm):
    """A with element x renamed perm[x] and its order written as a matrix
    (never the "chain" tag), validated from scratch."""
    from rlw.algebra import finite_algebra
    n = A.size
    mult = [[0] * n for _ in range(n)]
    leq = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            mult[perm[x]][perm[y]] = perm[A.mult[x][y]]
            leq[perm[x]][perm[y]] = int(A.leq[x][y])
    labels = [None] * n
    for x in range(n):
        labels[perm[x]] = A.label(x)
    return finite_algebra(A.name + "'", n, leq, perm[A.unit], mult,
                          {k: perm[v] for k, v in A.constants}, labels)


def rebuilt(A):
    """A built again from scratch by finite_algebra, from its multiplication
    table, order, unit, constants and labels."""
    from rlw.algebra import finite_algebra
    leq = "chain" if A.chain else [[int(b) for b in row] for row in A.leq]
    return finite_algebra(A.name, A.size, leq, A.unit, [list(row) for row in A.mult],
                          dict(A.constants), A.labels)


def fields(A):
    """Every field of A, those that FiniteAlgebra's equality skips included."""
    return (A.name, A.size, A.unit, A.chain, A.leq, A.constants, A.labels,
            A.mult, A.meet, A.join, A.lres, A.rres)


def fsi_chains_all_subalgebras(V):
    """`fsi_chains` without its skip of isomorphic subalgebras: the totally
    ordered quotients of every subalgebra of every generator, deduplicated."""
    from rlw.amalgam import _dedup_by_iso
    from rlw.structure import congruences, natural_projection, subalgebra, subuniverses
    out = []
    for g in V.generators:
        for sub in subuniverses(g):
            B = subalgebra(g, sub)
            for theta in congruences(B):
                Q, _ = natural_projection(B, theta)
                if Q.is_totally_ordered:
                    out.append(Q)
    return _dedup_by_iso(out)


def cep_by_blocks(A):
    """The CEP by lifting blocks: theta in Con(S) extends when some Phi in
    Con(A), restricted to S (its pairs inside S), has theta's lifted blocks.
    Returns (holds, witness) with has_cep's witness (subuniverse, theta)."""
    from rlw.structure import congruences, subalgebra_with_map, subuniverses
    for sub in subuniverses(A):
        if len(sub) == A.size:
            continue
        B, back = subalgebra_with_map(A, sub)
        for theta in congruences(B):
            want = sorted(sorted(back[x] for x in block) for block in theta.blocks)
            for phi in congruences(A):
                by = {}
                for x in sub:
                    by.setdefault(phi.block_of(x), []).append(x)
                if sorted(sorted(b) for b in by.values()) == want:
                    break
            else:
                return False, (sub, theta)
    return True, None


def _is_congruence_partition(A, blocks):
    from rlw.algebra import OPS
    index = {}
    for i, block in enumerate(blocks):
        for x in block:
            index[x] = i
    n = A.size
    for op in OPS:
        t = getattr(A, op)
        for block in blocks:
            x = block[0]
            for y in block[1:]:
                for c in range(n):
                    if index[t[x][c]] != index[t[y][c]] or index[t[c][x]] != index[t[c][y]]:
                        return False
    return True


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def congruences_bruteforce(A):
    """Independent oracle: test every partition of the carrier (small n only)."""
    from rlw.structure import ConLattice, Congruence, _con_key
    out = []
    for part in _partitions(list(A.elements)):
        blocks = tuple(tuple(sorted(b)) for b in sorted(part, key=min))
        if _is_congruence_partition(A, blocks):
            out.append(Congruence(blocks, A))
    return ConLattice(A, tuple(sorted(out, key=_con_key)))


def span_amalgams_by_find_amalgam(K, one_sided):
    """(span, amalgam) for each entry of `_spans_of` over the deduplicated
    class, built by `_span` (essential spans only when not one_sided), by one
    `find_amalgam` search through the whole class per span: the amalgam as
    (D's name, psi1, psi2) mappings, or None when there is none."""
    from rlw.amalgam import ClassSpec, _dedup_by_iso, _span, _spans_of, find_amalgam
    from rlw.morphisms import is_essential
    K = _dedup_by_iso(K)
    spec = ClassSpec.explicit(K)
    for entry in _spans_of(K):
        s = _span(K, *entry)
        if not one_sided and not is_essential(s.phi2):
            continue
        rep = find_amalgam(s, spec, one_sided=one_sided)
        D, psi1, psi2 = rep.amalgam or (None, None, None)
        yield s, rep.amalgam and (D.name, psi1.mapping, psi2.mapping)


def simple_chain_iso_span(A):
    """The span A <- S -> A that `simple_chain_ap` reports for two distinct
    isomorphic subalgebras, found by `are_isomorphic` on every pair of
    subalgebras in order, or None."""
    from rlw.amalgam import Span
    from rlw.morphisms import Morphism, are_isomorphic
    from rlw.structure import subalgebras
    _, algebras, subs = zip(*subalgebras(A))
    for i, S in enumerate(algebras):
        for j in range(i + 1, len(algebras)):
            iso = are_isomorphic(S, algebras[j])
            if iso is not None:
                return Span(S, A, A, Morphism(S, A, subs[i]), Morphism(
                    S, A, tuple(subs[j][iso.mapping[x]] for x in S.elements)))
    return None


def has_cep_per_subuniverse(A):
    """`has_cep` with Con(S) taken by closure for every proper subuniverse,
    congruences and witness on each subalgebra's own algebra."""
    from rlw.algebra import Check
    from rlw.structure import congruences, extends, subalgebras
    for sub, B, back in subalgebras(A):
        if len(sub) == A.size:
            continue
        for theta in congruences(B):
            if not extends(A, sub, [back[x] for x in theta.unit_class()]):
                return Check(False, (sub, theta))
    return Check(True)


class _UF:
    """Union-find with the least element of each class as its root."""

    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        p = self.p
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.p[rb] = ra
        return True


def congruence_join(c1, c2):
    """Join of two congruences: the transitive closure of their union, which
    is already a congruence."""
    from rlw.structure import Congruence, _canon_blocks
    A = c1.algebra
    uf = _UF(A.size)
    for block in itertools.chain(c1.blocks, c2.blocks):
        for x in block[1:]:
            uf.union(block[0], x)
    return Congruence(_canon_blocks(uf.find, A.size), A)


def congruences_by_covers_and_joins(A):
    """Con(A) by closing each covering pair a < b of the order (lattice
    classes are convex and Theta(x,y) = Theta(x/\\y, x\\/y), so every principal
    congruence is a join of these), then closing under joins.  For sizes
    where `congruences_bruteforce` is infeasible."""
    from rlw.structure import ConLattice, Congruence, _con_key, principal_congruence
    le, n = A.leq, A.size
    covers = [(a, b) for a in range(n) for b in range(n)
              if a != b and le[a][b]
              and not any(le[a][c] and le[c][b] for c in range(n) if c != a and c != b)]
    delta = Congruence(tuple((x,) for x in range(n)), A)
    found = {delta.blocks: delta}
    for a, b in covers:
        c = principal_congruence(A, a, b)
        found.setdefault(c.blocks, c)
    frontier = list(found.values())
    while frontier:
        fresh = []
        for c1 in frontier:
            for c2 in list(found.values()):
                j = congruence_join(c1, c2)
                if j.blocks not in found:
                    found[j.blocks] = j
                    fresh.append(j)
        frontier = fresh
    return ConLattice(A, tuple(sorted(found.values(), key=_con_key)))


def subuniverse_closure(A, seed):
    """Closure of seed + constants + unit under all five operations, every
    product of the set recomputed each round until nothing new appears."""
    current = set(seed) | {A.unit} | {v for _, v in A.constants}
    tables = [getattr(A, op) for op in ("mult", "meet", "join", "lres", "rres")]
    changed = True
    while changed:
        changed = False
        elems = list(current)
        for t in tables:
            for x in elems:
                for y in elems:
                    v = t[x][y]
                    if v not in current:
                        current.add(v)
                        changed = True
    return frozenset(current)


def subuniverses_by_closure(A):
    """All subuniverses, each s + {x} closed from scratch, sorted by
    (size, tuple)."""
    base = subuniverse_closure(A, ())
    found = {base}
    frontier = [base]
    while frontier:
        fresh = []
        for s in frontier:
            for x in A.elements:
                if x not in s:
                    s2 = subuniverse_closure(A, s | {x})
                    if s2 not in found:
                        found.add(s2)
                        fresh.append(s2)
        frontier = fresh
    return tuple(tuple(sorted(s)) for s in sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))


def span_amalgams(members, one_sided):
    """(span, amalgam or None) for each entry of `_spans_of` over the
    deduplicated class, built by `_span`, each span answered on its own by
    restriction sets over lists from the backtracking `homs`: for the first
    D in class order where R1 = {psi1 o phi1} and R2 = {psi2 o phi2} meet,
    the first psi1 in `homs` order whose restriction r is in R2, and the
    first psi2 in `homs` order with psi2 o phi2 = r."""
    from rlw.amalgam import _dedup_by_iso, _span, _spans_of
    from rlw.morphisms import homs
    K = _dedup_by_iso(members)
    lists = {}

    def maps(X, D, injective):
        key = (id(X), id(D), injective)
        if key not in lists:
            lists[key] = homs(X, D, injective=injective)
        return lists[key]

    def restrictions(X, D, injective, phi):
        found = {}
        for psi in maps(X, D, injective):
            found.setdefault(tuple(psi.mapping[v] for v in phi.mapping), psi)
        return found

    for entry in _spans_of(K):
        s = _span(K, *entry)
        amalgam = None
        for D in K:
            r1 = restrictions(s.B, D, True, s.phi1)
            r2 = restrictions(s.C, D, not one_sided, s.phi2)
            common = [r for r in r1 if r in r2]   # r1 in the order of its first psi1
            if common:
                amalgam = D, r1[common[0]], r2[common[0]]
                break
        yield s, amalgam


def find_amalgam_every_member(s, K, one_sided):
    """`find_amalgam` as a loop over every member of the class, in class
    order, with no size floor: a bounded class is listed by `enumerate_chains`
    for each size from 1 to its bound, and a member that designates other
    constants than B is skipped there, one member at a time."""
    from rlw.amalgam import AmalgamReport, _verify_amalgam
    from rlw.completion import enumerate_chains
    from rlw.morphisms import compose, homs
    if K.algebras is not None:
        members = K.algebras
    else:
        members = (D for n in range(1, K.bound + 1)
                   for D in enumerate_chains(n, dict(K.require), K.signature))
    for D in members:
        if dict(D.constants).keys() != dict(s.B.constants).keys():
            continue
        for psi1 in homs(s.B, D, injective=True):
            pinned = compose(psi1, s.phi1)
            for psi2 in homs(s.C, D, injective=not one_sided,
                             commute_with=(s.phi2, pinned), limit=1):
                _verify_amalgam(s.B, s.C, s.phi1.mapping, s.phi2.mapping,
                                D, psi1.mapping, psi2.mapping, one_sided)
                return AmalgamReport("Found", (D, psi1, psi2), class_info=K.describe())
    return AmalgamReport("NotFoundExhaustive", class_info=K.describe())
