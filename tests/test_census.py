"""The AP census of the residuated chains of size <= 6: V(A) for each chain A.

The md5 pins every verdict and certificate (chain name, verdict, reason, span
witness and CEP witness) so that a change which claims identical output can
show it; it guards against regressions and is not an independent oracle.
The counts by size and the HS invariant below are the checks that do not
depend on the recorded output.
"""
from __future__ import annotations

import hashlib
from collections import Counter

from rlw import decide_ap, enumerate_chains, variety
from rlw.amalgam import fsi_chains
from rlw.morphisms import are_isomorphic

# size -> (AP, NotAP)
CENSUS_COUNTS = {1: (1, 0), 2: (1, 0), 3: (2, 1), 4: (9, 6), 5: (42, 42), 6: (229, 346)}
CENSUS_MD5 = "ce4117f544335c371f646faa63670b10"


def _record(A, res):
    cep = res.cep_witness and (res.cep_witness[0].name, sorted(res.cep_witness[1]),
                               [sorted(b) for b in res.cep_witness[2]])
    return repr((A.name, res.verdict, res.reason, repr(res.span_witness), cep))


def test_ap_census_of_chains_up_to_size_6():
    counts, records = Counter(), []
    for n in CENSUS_COUNTS:
        for A in enumerate_chains(n):
            res = decide_ap(variety(A))
            counts[n, res.has_ap] += 1
            records.append(_record(A, res))
    assert {n: (counts[n, True], counts[n, False]) for n in CENSUS_COUNTS} == CENSUS_COUNTS
    assert hashlib.md5("\n".join(records).encode()).hexdigest() == CENSUS_MD5


def test_generator_in_hs_of_another_keeps_the_verdict():
    # A in HS(B) gives V(A, B) = V(B), with the same FSI chains, so the same
    # verdict; HS(B) of a chain B is read off fsi_chains up to isomorphism
    chains = [A for n in range(1, 6) for A in enumerate_chains(n)]
    pairs = 0
    for B in chains:
        hs = fsi_chains(variety(B))
        verdict = decide_ap(variety(B)).verdict
        for A in chains:
            if A is not B and any(C.size == A.size and are_isomorphic(A, C) for C in hs):
                pairs += 1
                assert decide_ap(variety(A, B)).verdict == verdict, (A.name, B.name)
    assert pairs == 321
