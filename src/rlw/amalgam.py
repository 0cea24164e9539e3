"""Spans, amalgam search, the forced-identification refuter, 1AP/EAP class
checks, FSI-chain computation, and the AP decision procedure for finitely
generated semilinear varieties.

Span enumeration fixes phi1 as a subuniverse inclusion (finite chains have a
unique order automorphism, so this loses nothing up to equivalence) and walks
spans by (|B|+|C|, |C|, |B|, ...), so reported witnesses are minimal in that
order.

The class checks read the maps between members off `morphisms.hom_maps`,
listed once per pair of tables, take spans as index tuples and maps as
mappings, and build a `Span` for a reported witness only (`_span`).
`find_amalgam` is one loop over the members of a class, searched with
`homs`; a bounded class of chains lists the chains of one size and unit only
where one of them extends B to an amalgam, which is decided on the chains
that extend B alone: each placement of B in the chain is a partial table,
completed by `completion.complete_partial`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter

from .algebra import (OPS, BadParameter, Check, FiniteAlgebra, NotAChain, NotAnEmbedding,
                      NotSemilinear, NotSimple, NotSubalgebraClosed, SignatureMismatch,
                      _signature, by_table_id, induced_order)
from .completion import chain_flags, chain_partial, chain_units, chains_at, complete_partial
from .morphisms import (Morphism, are_isomorphic, compose, hom_maps, homs, is_hom, morphism,
                        separating_atom)
from .properties import (check_flags, handy_fixed_points, is_semilinear, mirror_fixed_points,
                         satisfies_flags)
from .structure import (classify, congruences, has_cep,
                        interned_subalgebras, named_subalgebra, natural_projection,
                        quotient_maps)


@dataclass(frozen=True)
class Span:
    """Two embeddings phi1: A -> B and phi2: A -> C.  Legs from outside the
    library are checked by `morphism()` (see `span()`); a Span itself checks
    only that both legs are injective."""
    A: FiniteAlgebra
    B: FiniteAlgebra
    C: FiniteAlgebra
    phi1: Morphism
    phi2: Morphism

    def __post_init__(self):
        for phi in (self.phi1, self.phi2):
            if not phi.injective:
                raise NotAnEmbedding(f"{phi} is not an embedding of {self.A.name}")

    def __repr__(self):
        return (f"<Span {self.A.name} -> {self.B.name} {list(self.phi1.mapping)}, "
                f"{self.A.name} -> {self.C.name} {list(self.phi2.mapping)}>")


def span(A, B, C, phi1, phi2):
    return Span(A, B, C, morphism(A, B, phi1), morphism(A, C, phi2))


@dataclass(frozen=True)
class ClassSpec:
    """Either an explicit finite list of algebras or all chains of size <= bound
    over a constant signature satisfying a property filter.  `bounded` raises
    BadParameter for a bound that is not an integer >= 1, ParseError for an
    unknown or repeated constant name, and the errors of
    `properties.check_flags` for a filter it refuses over the signature."""
    algebras: tuple | None = None
    bound: int | None = None
    signature: tuple = ()
    require: tuple = ()

    @classmethod
    def explicit(cls, algebras):
        return cls(algebras=tuple(algebras))

    @classmethod
    def bounded(cls, bound, signature=(), require=None):
        if type(bound) is not int or bound < 1:
            raise BadParameter(f"bound must be an integer >= 1, got {bound!r}")
        signature = _signature(signature)
        check_flags(require, signature)
        return cls(bound=bound, signature=signature,
                   require=tuple(sorted((require or {}).items())))

    def members(self, floor, signature, hosts):
        """The members of size >= floor that designate exactly the constants
        `signature` names; every member of a bounded class designates its
        own.  A bounded class lists, in `enumerate_chains` order, the chains
        of each size n and unit e for which `hosts(n, e)` holds."""
        if self.algebras is not None:
            yield from (D for D in self.algebras
                        if D.size >= floor and D.signature == signature)
        elif set(self.signature) == set(signature):
            require = dict(self.require)
            pre = chain_flags(require)[0]
            for n in range(floor, self.bound + 1):
                for e in chain_units(n, pre):
                    if hosts(n, e):
                        yield from chains_at(n, e, require, self.signature)

    def describe(self):
        if self.algebras is not None:
            return {"kind": "list", "members": [a.name for a in self.algebras]}
        return {"kind": "bounded", "bound": self.bound,
                "signature": list(self.signature), "require": dict(self.require)}


@dataclass(frozen=True)
class AmalgamReport:
    verdict: str                 # Found | NotFoundExhaustive | Refuted | Unknown
    amalgam: tuple | None = None  # (D, psi1, psi2)
    trace: tuple | None = None
    class_info: dict | None = None

    @property
    def found(self):
        return self.verdict == "Found"


def _verify_amalgam(B, C, phi1, phi2, D, psi1, psi2, one_sided, checked=None):
    """Raise AssertionError unless, all maps given as mappings, psi1: B -> D
    is an embedding, psi2: C -> D a homomorphism (an embedding unless
    one_sided), and psi1 o phi1 = psi2 o phi2.  Explicit raises, so that
    `python -O` keeps the check.

    `checked` holds (source's table id, target's table id, mapping) of maps
    that passed `is_hom` already; each new map that passes is added, and none
    is checked twice.  Without it no table id is read."""
    def hom(X, mapping):
        if checked is None:
            return is_hom(X, D, mapping)
        key = (X.table_id, D.table_id, mapping)
        if key not in checked and is_hom(X, D, mapping):
            checked.add(key)
        return key in checked

    if not (len(set(psi1)) == len(psi1) and hom(B, psi1)):
        raise AssertionError(f"{list(psi1)} is not an embedding of {B.name} in {D.name}")
    if not hom(C, psi2):
        raise AssertionError(f"{list(psi2)} is not a homomorphism from {C.name} to {D.name}")
    if not (one_sided or len(set(psi2)) == len(psi2)):
        raise AssertionError(f"{list(psi2)} is not injective")
    for a, (b, c) in enumerate(zip(phi1, phi2)):
        if psi1[b] != psi2[c]:
            raise AssertionError(f"psi1 o phi1 and psi2 o phi2 differ at element {a} of A")


def find_amalgam(s, K, one_sided=False):
    """Search the class for D, psi1 (injective), psi2 (injective unless
    one_sided) with psi1 o phi1 = psi2 o phi2: the first D in class order,
    then the first psi1 in `homs` order and the first psi2 with it.  Members
    too small for psi1 (or for an injective psi2) are not built, and of a
    bounded class only the (size, unit) where `_extends` finds an amalgam
    are listed; the loop alone decides the report."""
    floor = s.B.size if one_sided else max(s.B.size, s.C.size)
    hosts = lambda n, e: _extends(s, K, n, e, one_sided)
    for D in K.members(floor, s.B.signature, hosts):
        for psi1 in homs(s.B, D, injective=True):
            pinned = compose(psi1, s.phi1)
            for psi2 in homs(s.C, D, injective=not one_sided,
                             commute_with=(s.phi2, pinned), limit=1):
                _verify_amalgam(s.B, s.C, s.phi1.mapping, s.phi2.mapping,
                                D, psi1.mapping, psi2.mapping, one_sided)
                return AmalgamReport("Found", (D, psi1, psi2), class_info=K.describe())
    return AmalgamReport("NotFoundExhaustive", class_info=K.describe())


def _placements(B, n, e):
    """Every strictly increasing map of B's order into the chain 0 < ... < n-1
    that sends B's unit to e, its bot to 0 and its top to n - 1, as a tuple
    over B's elements; none when B is not totally ordered."""
    order, total = induced_order(B.leq, B.elements)
    if not total:
        return
    pins = [(B.unit, e)] + [(B.constant(nm), v) for nm, v in (("bot", 0), ("top", n - 1))
                            if B.has_constant(nm)]
    for image in combinations(range(n), B.size):
        p = [0] * B.size
        for x, v in zip(order, image):
            p[x] = v
        if all(p[x] == v for x, v in pins):
            yield tuple(p)


def _extends(s, K, n, e, one_sided):
    """Whether a chain of size n and unit e of the bounded class K (a
    completion of `chain_partial(n, e, pre)` that passes the member filter
    `post`) amalgamates s.  psi1 is an embedding of chains, so strictly
    increasing: one of the `_placements` of B, each of which pins D's table
    on its image and D's constants, and only the completions of those
    partials are built.  The answer is yes at the first completion for which
    its placement is a homomorphism (the residuals are not pinned) and some
    psi2 commutes with it; `complete_partial` is exhaustive, so it is never
    no where an amalgam exists."""
    B = s.B
    pre, post = chain_flags(dict(K.require))
    for p1 in _placements(B, n, e):
        P = chain_partial(n, e, pre)
        for x in B.elements:
            for y in B.elements:
                P.mult[p1[x]][p1[y]] = p1[B.mult[x][y]]
        P.constants = {nm: p1[v] for nm, v in B.constants}
        chi = tuple(p1[v] for v in s.phi1.mapping)
        for D in complete_partial(P).algebras:
            if (satisfies_flags(D, post) and is_hom(B, D, p1)
                    and homs(s.C, D, injective=not one_sided,
                             commute_with=(s.phi2, Morphism(s.A, D, chi)), limit=1)):
                return True
    return False


# -- the chain refuter --------------------------------------------------------

class _Merge:
    """Partial matching between B and C; same-side merges are contradictions
    (C1) because both maps into a chain amalgam are injections."""

    def __init__(self, B, C):
        self.B, self.C = B, C
        self.b2c, self.c2b = {}, {}
        self.trace = []

    def add(self, b, c, rule, note):
        old = self.b2c.get(b)
        if old == c:
            return None
        self.trace.append((rule, b, c, note))
        if old is not None:
            return ("C1", "C", old, c,
                    f"{self.B.label(b)} is matched with both "
                    f"{self.C.label(old)} and {self.C.label(c)}")
        if c in self.c2b:
            return ("C1", "B", self.c2b[c], b,
                    f"{self.C.label(c)} is matched with both "
                    f"{self.B.label(self.c2b[c])} and {self.B.label(b)}")
        self.b2c[b] = c
        self.c2b[c] = b
        # C2: order flip between the two sides
        ble, cle = self.B.leq, self.C.leq
        for b2, c2 in self.b2c.items():
            for lo, hi, c_lo, c_hi in ((b, b2, c, c2), (b2, b, c2, c)):
                if ble[lo][hi] and not cle[c_lo][c_hi]:
                    return ("C2", "-", (b, c), (b2, c2),
                            f"{self.B.label(lo)} < {self.B.label(hi)} in B but "
                            f"{self.C.label(c_hi)} < {self.C.label(c_lo)} in C")
        return None


def refute_chain_amalgam(s, mirror_rule=False):
    """Saturate forced identifications for a totally ordered amalgam of the
    span; Refuted(trace) certifies that no chain amalgam of any size exists.

    Rules: initial merges psi1(phi1(a)) ~ psi2(phi2(a)) and shared constants;
    (R1) u~v, u'~v' gives u*u' ~ v*v' for every basic binary operation;
    (R2) d~d' forces the unique fixed points of x -> x\\d in B and x -> x\\d'
    in C to merge (a chain map x -> x\\d has at most one fixed point, and
    homomorphisms preserve fixed-point-ness).  The optional mirror rule does
    the same for x -> d/x.  Contradictions: two distinct elements of one side
    merged (C1) or an order flip (C2).
    """
    B, C = s.B, s.C
    for X in (B, C):
        if not X.is_totally_ordered:
            raise NotAChain(f"{X.name} is not a chain")
    merge = _Merge(B, C)

    def push(pairs):
        for (b, c, rule, note) in pairs:
            conflict = merge.add(b, c, rule, note)
            if conflict is not None:
                merge.trace.append(conflict)
                return conflict
        return None

    init = [(s.phi1.mapping[a], s.phi2.mapping[a], "init",
             f"image of {s.A.label(a)}") for a in s.A.elements]
    init.append((B.unit, C.unit, "init", "unit"))
    for nm, v in B.constants:
        init.append((v, C.constant(nm), "init", f"constant {nm}"))
    conflict = push(init)
    while conflict is None:
        fresh = []
        # R2: merged (d, d') forces the unique fixed points of x\d to merge
        for d, d2 in merge.b2c.items():
            rules = [("R2", handy_fixed_points, "x\\%s")]
            if mirror_rule:
                rules.append(("R2'", mirror_fixed_points, "%s/x"))
            for rule, fixed, fmt in rules:
                fb, fc = fixed(B, d), fixed(C, d2)
                if len(fb) == 1 and len(fc) == 1 and merge.b2c.get(fb[0]) != fc[0]:
                    fresh.append((fb[0], fc[0], rule,
                                  "unique fixed point of " + fmt % B.label(d)))
        # R1: closure under the basic binary operations (mult scanned first so
        # the multiplicative identifications surface first in traces)
        items = list(merge.b2c.items())
        for op in OPS:
            for (u, v) in items:
                for (u2, v2) in items:
                    bb = getattr(B, op)[u][u2]
                    cc = getattr(C, op)[v][v2]
                    if merge.b2c.get(bb) != cc:
                        fresh.append((bb, cc, "R1",
                                      f"{B.label(u)} {op} {B.label(u2)}"))
        if not fresh:
            return AmalgamReport("Unknown", trace=tuple(merge.trace))
        conflict = push(fresh)
    return AmalgamReport("Refuted", trace=tuple(merge.trace))


def replay_refutation(s, report):
    """Independent certificate check of a Refuted trace: every merge step must
    be justified by the span or by already-merged pairs, and re-running the
    merges must end in a contradiction exactly at the final step."""
    if report.verdict != "Refuted" or not report.trace:
        return False
    B, C = s.B, s.C
    init_pairs = {(s.phi1.mapping[a], s.phi2.mapping[a]) for a in s.A.elements}
    init_pairs.add((B.unit, C.unit))
    for nm, v in B.constants:
        init_pairs.add((v, C.constant(nm)))
    merge = _Merge(B, C)
    steps = [st for st in report.trace if st[0] in ("init", "R1", "R2", "R2'")]
    for k, (rule, b, c, note) in enumerate(steps):
        matched = list(merge.b2c.items())
        if rule == "init":
            justified = (b, c) in init_pairs
        elif rule == "R1":
            justified = any(getattr(B, op)[u][u2] == b and getattr(C, op)[v][v2] == c
                            for op in OPS
                            for (u, v) in matched for (u2, v2) in matched)
        elif rule in ("R2", "R2'"):
            fixed = handy_fixed_points if rule == "R2" else mirror_fixed_points
            justified = any(fixed(B, d) == [b] and fixed(C, d2) == [c]
                            for (d, d2) in matched)
        else:
            justified = False
        if not justified:
            return False
        conflict = merge.add(b, c, rule, note)
        if conflict is not None:
            return k == len(steps) - 1   # contradiction only at the last merge
    return False  # replay ended without contradiction


# -- class-level checks -------------------------------------------------------

def _iso_key(A):
    """The table id of A, of its `as_chain` coding when A is totally ordered:
    for chains this is an isomorphism invariant (the only order isomorphism
    between two codings in the algebra order is the identity)."""
    return (A.as_chain() if A.is_totally_ordered else A).table_id


def _by_table(tid):
    """The sort key of a table id: (size, mult, constants) of its table."""
    T = by_table_id[tid]
    return T.size, T.mult, T.constants


def _dedup_by_iso(chains):
    seen = {}
    for A in chains:
        seen.setdefault(_iso_key(A), A)
    return [seen[t] for t in sorted(seen, key=_by_table)]


def _spans_of(K):
    """All spans up to equivalence, ordered by (|B|+|C|, |C|, |B|, ...), as
    (bi, leg, ci, phi2): B = K[bi], C = K[ci], phi1 the inclusion of B's
    leg-th interned subalgebra, and phi2 a mapping of its `hom_maps` into C.
    `_span` builds the named span."""
    keyed = sorted((b.size + c.size, c.size, b.size, bi, ci)
                   for bi, b in enumerate(K) for ci, c in enumerate(K))
    for (_, _, _, bi, ci) in keyed:
        for leg, (_, S, _) in enumerate(interned_subalgebras(K[bi])):
            for phi2 in hom_maps(S, K[ci], True):
                yield bi, leg, ci, phi2


def _span(K, bi, leg, ci, phi2):
    """The span (bi, leg, ci, phi2) of `_spans_of(K)`, with A named `B|0,1,2`
    for the subuniverse {0, 1, 2} of B."""
    B, C = K[bi], K[ci]
    sub, S, incl = interned_subalgebras(B)[leg]
    A = named_subalgebra(B, sub, S, incl, f"{B.name}|{','.join(map(str, sub))}")
    return Span(A, B, C, Morphism(A, B, incl), Morphism(A, C, phi2))


class _ExplicitClass:
    """An explicit list that must be closed under subalgebras up to
    isomorphism (a subalgebra whose `_iso_key` no member has is matched by
    `are_isomorphic`), deduplicated up to isomorphism, with what its 1AP and
    EAP checks share: each leg's restriction sets and the certificate maps
    already checked, kept for the life of the object.  What depends on tables
    alone (subalgebras, quotient maps, the maps between two members) is
    listed once per process, by `structure` and `morphisms.hom_maps`.

    A span amalgamates in D exactly when R1 and R2 meet, as tuples over A:
    R1 = {psi1 o phi1 : psi1 in Emb(B, D)} and R2 = {psi2 o phi2 : psi2 in
    Hom(C, D)}, or Emb(C, D) for two-sided amalgams.  This is the question
    `find_amalgam` answers for the class, restated so that each leg's R1 and
    each R2 is built once, not once per span: R2 depends on (C, phi2, D)
    alone, so spans from different B with the same second leg share it.  All
    members must designate the same constants."""

    def __init__(self, K):
        self.K = _dedup_by_iso(K)
        keys = {_iso_key(B) for B in self.K}
        for B in self.K:
            for sub, S, _ in interned_subalgebras(B):
                if _iso_key(S) not in keys and not any(are_isomorphic(S, M) for M in self.K):
                    raise NotSubalgebraClosed(
                        f"{B.name} has a subalgebra on {sub} outside the class")
        for B in self.K[1:]:
            if B.signature != self.K[0].signature:
                raise SignatureMismatch(
                    f"{self.K[0].name} and {B.name} designate different constants")
        self._restricted = {}  # (X, phi, D) table ids and mapping, injective -> R
        self._checked = set()  # certificate maps that passed is_hom

    def _restrictions(self, X, phi, D, injective):
        """{psi o phi: the first psi in `hom_maps(X, D, injective)` with it},
        for the mapping phi into X: R1 of a span for (B, phi1, D, True), R2
        for (C, phi2, D, injective); built once per key.  A restriction is a
        tuple, or the one image when A has one element."""
        key = (X.table_id, phi, D.table_id, injective)
        found = self._restricted.get(key)
        if found is None:
            found = self._restricted[key] = {}
            restrict = itemgetter(*phi)
            for psi in hom_maps(X, D, injective):
                found.setdefault(restrict(psi), psi)
        return found

    def _amalgam(self, bi, leg, ci, phi2, one_sided):
        """(D, psi1, psi2) amalgamating the span (bi, leg, ci, phi2) of
        `_spans_of` in the class, checked by `_verify_amalgam`, or None: the
        first D in class order, then the first psi1 in `homs` order whose
        restriction R2 holds (R1's first key R2 holds, as R1 keeps the first
        psi1 per restriction in `homs` order) and the first psi2 with it."""
        B, C = self.K[bi], self.K[ci]
        phi1 = interned_subalgebras(B)[leg][2]
        for D in self.K:
            r1 = self._restrictions(B, phi1, D, True)
            if not r1:
                continue
            r2 = self._restrictions(C, phi2, D, not one_sided)
            r = next((r for r in r1 if r in r2), None)
            if r is not None:
                _verify_amalgam(B, C, phi1, phi2, D, r1[r], r2[r], one_sided, self._checked)
                return D, r1[r], r2[r]
        return None

    def span_verdicts(self, one_sided):
        """(entry, amalgamates) for each entry of `_spans_of`, essential
        spans only when not one_sided.  A span with phi1 or phi2 onto
        amalgamates in D = C or D = B, one-sided and two-sided; every other
        span is answered by `_amalgam`."""
        for entry in _spans_of(self.K):
            bi, _, ci, phi2 = entry
            B, C = self.K[bi], self.K[ci]
            if not one_sided and separating_atom(C, phi2) is not None:
                continue
            yield entry, (len(phi2) in (B.size, C.size)
                          or self._amalgam(*entry, one_sided) is not None)

    def check(self, one_sided):
        """1AP (one_sided) or EAP: a Check witnessed by the first failing span.
        The EAP takes essential spans only and asks for two-sided amalgams."""
        for entry, ok in self.span_verdicts(one_sided):
            if not ok:
                return Check(False, _span(self.K, *entry))
        return Check(True)


def class_has_1ap(K):
    """One-sided amalgamation property of an explicit, subalgebra-closed list;
    a Check whose witness is the first failing span."""
    return _ExplicitClass(K).check(one_sided=True)


def class_has_eap(K):
    """Essential amalgamation property: essential spans, two-sided amalgams."""
    return _ExplicitClass(K).check(one_sided=False)


# -- varieties ----------------------------------------------------------------

@dataclass(frozen=True)
class VarietyPresentation:
    generators: tuple

    def __repr__(self):
        return "V(" + ", ".join(g.name for g in self.generators) + ")"


def variety(*generators):
    return VarietyPresentation(tuple(generators))


def fsi_chains(V):
    """Totally ordered members of HS(generators), deduplicated up to iso and
    sorted by (size, table).  Jonsson: these are the FSI members of V.

    A subalgebra isomorphic to one met before is skipped before its quotients
    are taken: those are isomorphic to quotients already listed, which come
    first and so are the ones kept.  Only the first quotient with each chain
    table (`quotient_maps`) is named."""
    chains = {}
    seen = set()
    for g in V.generators:
        if not is_semilinear(g):
            raise NotSemilinear(f"generator {g.name} is not semilinear")
        for sub, S, incl in interned_subalgebras(g):
            key = _iso_key(S)
            if key in seen:
                continue
            seen.add(key)
            for theta, (qid, _) in zip(congruences(S), quotient_maps(S)):
                # a totally ordered quotient is numbered in its order
                if by_table_id[qid].chain and qid not in chains:
                    B = named_subalgebra(g, sub, S, incl)
                    chains[qid] = natural_projection(B, theta)[0]
    return [chains[t] for t in sorted(chains, key=_by_table)]


@dataclass(frozen=True)
class ApVerdict:
    has_ap: bool
    reason: str | None = None            # None | "cep_failure" | "span_failure"
    chains: tuple = ()
    cep_witness: tuple | None = None     # (chain, subuniverse, theta blocks)
    span_witness: Span | None = field(default=None, compare=False)
    cross_check: dict | None = None

    @property
    def verdict(self):
        return "AP" if self.has_ap else "NotAP"


def decide_ap(V, cross_check=False):
    """AP for the finitely generated semilinear variety presented by V.

    Step 1: chains = FSI members (Jonsson).  Step 2: a CEP failure on a chain
    refutes AP outright (finitely generated implies residually small, and AP
    plus residual smallness forces the CEP).  Step 3: otherwise AP holds iff
    the chain class has the one-sided amalgamation property.  All three steps
    read the subalgebras of each table once (`interned_subalgebras`).
    Cross-check mode also runs the essential-span/two-sided route, over the
    same hom lists, and raises AssertionError if the two disagree.
    """
    chains = tuple(fsi_chains(V))
    # S-closed as SH <= HS; raises SignatureMismatch on mixed constants
    K = _ExplicitClass(chains)
    for A in K.K:
        cep = has_cep(A)
        if not cep.holds:
            sub, theta = cep.witness
            return ApVerdict(False, "cep_failure", chains,
                             cep_witness=(A, sub, theta.blocks))
    one = K.check(one_sided=True)
    cross = None
    if cross_check:
        eap = K.check(one_sided=False)
        if eap.holds != one.holds:
            raise AssertionError("1AP and EAP routes disagree")
        cross = {"eap": eap.holds, "eap_witness": repr(eap.witness) if eap.witness else None}
    return ApVerdict(one.holds, None if one.holds else "span_failure", chains,
                     span_witness=one.witness, cross_check=cross)


def simple_chain_ap(A):
    """AP for V(A), A a finite simple chain: CEP plus no two distinct
    isomorphic subalgebras."""
    if not A.is_totally_ordered:
        raise NotAChain(f"{A.name} is not a chain")
    if A.is_trivial:
        return ApVerdict(True, None, (A,))   # the trivial variety has the AP
    if not classify(A).simple:
        raise NotSimple(f"{A.name} is not simple")
    cep = has_cep(A)
    if not cep.holds:
        return ApVerdict(False, "cep_failure", (A,),
                         cep_witness=(A, cep.witness[0], cep.witness[1].blocks))
    # two distinct isomorphic subalgebras give the failing span; those of a
    # chain are numbered in their order, so isomorphic ones are one interned object
    entries = interned_subalgebras(A)
    for i, (sub, S, incl) in enumerate(entries):
        for _, T, incl2 in entries[i + 1:]:
            if T is S:
                S = named_subalgebra(A, sub, S, incl)
                return ApVerdict(False, "span_failure", (A,), span_witness=Span(
                    S, A, A, Morphism(S, A, incl), Morphism(S, A, incl2)))
    return ApVerdict(True, None, (A,))


def strictly_simple_ap(A):
    """The AP verdict for V(A) when A is strictly simple (a
    congruence-distributive variety generated by a finite strictly simple
    algebra has the AP); None when that theorem does not apply."""
    if classify(A).strictly_simple:
        return ApVerdict(True, None, (A,))
    return None
