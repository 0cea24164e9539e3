"""Homomorphism enumeration, isomorphism testing, essential embeddings.

Maps are arrays of target indices.  Enumeration is backtracking with forced
propagation: once two images are fixed, the image of any product/residual of
the two arguments is forced, which prunes almost everything at these sizes.
Homomorphisms are listed in lexicographic order of their maps.

An injective search into a smaller target returns at once (pigeonhole).  When
both algebras are chain-coded (index order = algebra order) a homomorphism is
a monotone map, strictly increasing if injective: each element's image is
tried only between the images of its assigned neighbours, and meet and join
(min and max) are not propagated, since the order checks already force them.

Every leaf of the search is a homomorphism without a further check: each
assigned element is compared with every other assigned one (itself included)
under each propagated operation, and, on chains, by the order, so a complete
map preserves all five operations; the unit and constants are pinned first.
`morphism()` is the checked constructor, for maps that come from outside the
library; a raw `Morphism(...)` is not checked, and is for maps derived from
maps already known to be homomorphisms.

`homs` serves `find_amalgam`, the `hom` and `iso` commands, `are_isomorphic`
and `hom_maps` from a C that is not a chain.  From a chain, `hom_maps` reads
Hom(C, D) off the homomorphism theorem (Burris-Sankappanavar, A Course in
Universal Algebra, 1981, II 6): every homomorphism is a quotient map followed
by an embedding, and the only order isomorphism between two chains numbered
in their order is the identity.  So for a totally ordered C

    Hom(C, D) = {incl_S o q_theta : theta in Con(C), S in Sub(D),
                 D|S and C/theta have the same table},

and Emb(C, D) is the part with theta the identity.  `natural_projection` and
`subalgebras` number every quotient and subalgebra of a chain in its order,
so equal tables mean the identity is an isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import (OPS, BadParameter, Check, FiniteAlgebra, NotAHomomorphism,
                      NotAnEmbedding, SignatureMismatch, _is_index, by_table_id, ops_to_check)
from .structure import (Congruence, atom_indices, congruence_leq, congruences,
                        natural_projection, quotient_maps, subalgebra_index)


@dataclass(frozen=True)
class Morphism:
    source: FiniteAlgebra = field(repr=False)
    target: FiniteAlgebra = field(repr=False)
    mapping: tuple

    @property
    def injective(self):
        return len(set(self.mapping)) == len(self.mapping)

    def image(self):
        return tuple(sorted(set(self.mapping)))

    def __repr__(self):
        return f"{self.source.name}->{self.target.name}{list(self.mapping)}"


def compose(outer, inner):
    """outer o inner (apply inner first)."""
    if inner.target.key() != outer.source.key():
        raise SignatureMismatch("composition mismatch")
    return Morphism(inner.source, outer.target,
                    tuple(outer.mapping[v] for v in inner.mapping))


def is_hom(B, D, mapping):
    """Does the map preserve all five operations, the unit, and constants?"""
    if B.signature != D.signature:
        return False
    if mapping[B.unit] != D.unit:
        return False
    for nm, v in B.constants:
        if mapping[v] != D.constant(nm):
            return False
    n = B.size
    for op in OPS:
        tb, td = getattr(B, op), getattr(D, op)
        for x in range(n):
            mx = mapping[x]
            for y in range(n):
                if mapping[tb[x][y]] != td[mx][mapping[y]]:
                    return False
    return True


def morphism(B, D, mapping):
    """The checked Morphism B -> D of `mapping`; raises NotAHomomorphism
    unless it lists |B| element indices of D and is a homomorphism."""
    m = Morphism(B, D, tuple(mapping))
    if not (len(m.mapping) == B.size and all(_is_index(v, D.size) for v in m.mapping)):
        raise NotAHomomorphism(f"{list(mapping)} does not list {B.size} elements of {D.name}")
    if not is_hom(B, D, m.mapping):
        raise NotAHomomorphism(f"{list(mapping)} is not a homomorphism {B.name} -> {D.name}")
    return m


def identity(A):
    return Morphism(A, A, tuple(A.elements))


def homs(B, D, injective=False, commute_with=None, limit=None):
    """All homomorphisms B -> D, optionally injective, optionally pinned.

    commute_with = (phi, chi) with phi: A -> B and chi: A -> D restricts to
    maps psi with psi o phi = chi.  Same signature required.  A limit (>= 1)
    keeps the first `limit` maps only; a limit below 1 raises BadParameter.
    """
    if limit is not None and limit < 1:
        raise BadParameter(f"limit must be >= 1, got {limit}")
    if B.signature != D.signature:
        raise SignatureMismatch(
            f"{B.name} and {D.name} designate different constants")
    n, m = B.size, D.size
    if injective and n > m:
        return []
    mapping = [-1] * n
    pairs = [(B.unit, D.unit)] + [(v, D.constant(nm)) for nm, v in B.constants]
    if commute_with is not None:
        pairs += zip(commute_with[0].mapping, commute_with[1].mapping)
    pinned = {}
    for v, w in pairs:
        if pinned.setdefault(v, w) != w:
            return []
    if injective and len(set(pinned.values())) != len(pinned):
        return []

    chains = B.chain and D.chain
    ops = ops_to_check(chains)   # meet and join are fixed by the order checks
    b_tables = [getattr(B, op) for op in ops]
    d_tables = [getattr(D, op) for op in ops]
    bleq, dleq = B.leq, D.leq
    out = []

    def check_one(x, trail):
        """Order/injectivity checks for x, plus forced images of op results.
        Returns False on clash; appends forced elements to trail."""
        mx = mapping[x]
        for y in range(n):
            my = mapping[y]
            if my < 0 or y == x:
                continue
            if bleq[x][y] and not dleq[mx][my]:
                return False
            if bleq[y][x] and not dleq[my][mx]:
                return False
            if injective and my == mx:
                return False
        for tb, td in zip(b_tables, d_tables):
            for y in range(n):
                my = mapping[y]
                if my < 0:
                    continue
                for (p, q) in ((tb[x][y], td[mx][my]), (tb[y][x], td[my][mx])):
                    mp = mapping[p]
                    if mp >= 0:
                        if mp != q:
                            return False
                    else:
                        mapping[p] = q
                        trail.append(p)
        return True

    def undo(trail):
        for p in trail:
            mapping[p] = -1

    def assign(x, v):
        """mapping[x] = v plus propagation; returns the trail, or None."""
        if mapping[x] >= 0:
            return [] if mapping[x] == v else None
        mapping[x] = v
        trail = [x]
        done = 0
        while done < len(trail):
            z = trail[done]
            done += 1
            if not check_one(z, trail):
                undo(trail)
                return None
        return trail

    def search(idx):
        while idx < n and mapping[idx] >= 0:
            idx += 1
        if idx == n:
            out.append(Morphism(B, D, tuple(mapping)))
            return
        lo, hi = 0, m
        if chains:
            # every index below idx is assigned; images are monotone in index
            if idx:
                lo = mapping[idx - 1] + injective
            nxt = next((w for w in mapping[idx + 1:] if w >= 0), None)
            if nxt is not None:
                hi = nxt + 1 - injective
        for v in range(lo, hi):
            trail = assign(idx, v)
            if trail is not None:
                search(idx + 1)
                undo(trail)
            if limit is not None and len(out) >= limit:
                return

    for x, v in sorted(pinned.items()):
        if assign(x, v) is None:
            return []
    search(0)
    return out


def embeddings(A, C):
    return homs(A, C, injective=True)


def hom_maps(C, D, injective):
    """The mappings of Hom(C, D), or of Emb(C, D) when injective, sorted as
    by `homs`, once per pair of tables per process.  A chain C's maps are the
    incl_S o q_theta of the module docstring, from `quotient_maps(C)` (only
    the identity when injective) and `subalgebra_index(D)`, where a quotient
    whose table is known is looked up by its key, not built."""
    return _hom_maps(C.table_id, D.table_id, injective)


@lru_cache(maxsize=None)
def _hom_maps(cid, did, injective):
    C, D = by_table_id[cid], by_table_id[did]
    if not C.is_totally_ordered:
        return tuple(m.mapping for m in homs(C, D, injective=injective))
    thetas = quotient_maps(C)[:1] if injective else quotient_maps(C)
    return tuple(sorted(tuple(incl[v] for v in q) for qid, q in thetas
                        for incl in subalgebra_index(D).get(qid, ())))


def are_isomorphic(A, B):
    """An isomorphism A -> B, or None."""
    if A.size != B.size or A.signature != B.signature:
        return None
    if A.key() == B.key():
        return Morphism(A, B, tuple(A.elements))
    found = homs(A, B, injective=True, limit=1)
    return found[0] if found else None


def separating_atom(C, image):
    """The blocks of the first atom of Con(C), in `congruences` order, that
    keeps the distinct elements `image` apart, or None.  The atoms are
    listed once per table (`atom_indices`)."""
    for blocks, block_of in atom_indices(C):
        if len(set(map(block_of.__getitem__, image))) == len(image):
            return blocks
    return None


def is_essential(phi):
    """phi is essential iff every nontrivial congruence of the target
    identifies two distinct image points; checked on the atoms of Con, with
    the first atom that misses the image as the `Check` witness.  Raises
    NotAnEmbedding unless phi is injective; phi is taken to be a
    homomorphism (see `morphism()`)."""
    if not phi.injective:
        raise NotAnEmbedding(f"{phi} is not an embedding")
    blocks = separating_atom(phi.target, phi.mapping)
    return Check(True) if blocks is None else Check(False, Congruence(blocks, phi.target))


def essentialize(phi):
    """A maximal congruence theta of C with trivial restriction to the image,
    plus the induced essential embedding A -> C/theta."""
    if not phi.injective:
        raise NotAnEmbedding(f"{phi} is not an embedding")
    C = phi.target
    img = phi.image()
    ok = [th for th in congruences(C) if len({th.block_of(x) for x in img}) == len(img)]
    maximal = [th for th in ok
               if not any(other is not th and congruence_leq(th, other) for other in ok)]
    theta = maximal[0]
    Q, proj = natural_projection(C, theta)
    psi = Morphism(phi.source, Q, tuple(proj[v] for v in phi.mapping))
    return theta, psi

