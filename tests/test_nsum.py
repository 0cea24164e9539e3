import pytest
from hypothesis import given, strategies as st

from rlw import NotAdmissible, factor_nested_sum, nested_sum
from rlw.catalog import make_com, make_figure, make_luk, make_rsa, make_sugihara
from rlw.morphisms import are_isomorphic
from rlw.nsum import components_isomorphic, nested_sum_with_map
from rlw.properties import is_lower_involutive

import oracles


def S3():
    return make_sugihara(3).reduct()


def test_single_component_identity():
    A = make_com(1, 1)
    assert are_isomorphic(nested_sum([A]), A) is not None


def test_sum_of_three_sugihara():
    glued = nested_sum([S3(), S3(), S3()])
    assert glued.size == 7
    assert is_lower_involutive(glued)
    parts = factor_nested_sum(glued)
    assert len(parts) == 3
    assert all(are_isomorphic(p, S3()) is not None for p in parts)
    # S_7 is exactly this nested sum
    assert are_isomorphic(glued, make_sugihara(7).reduct()) is not None


def test_bl_chain_sum_and_factor():
    W2 = make_luk(2, "hoop")
    glued = nested_sum([W2, W2])
    assert glued.size == 5
    from rlw.properties import is_integral
    assert is_integral(glued)
    parts = factor_nested_sum(glued)
    assert len(parts) == 2
    assert all(are_isomorphic(p, W2) is not None for p in parts)
    # first component is the MV chain shape; every component is a Wajsberg hoop
    from rlw import check_identity
    for p in parts:
        assert check_identity(p, "(x -> y) -> y", "x \\/ y")


def test_order_rules():
    # components i < j: sub-unit elements of i below all of j, super-unit above
    glued, prov = nested_sum_with_map([make_com(1, 1), S3()])
    e = glued.unit
    comp_of = {idx: ci for idx, (ci, _) in enumerate(prov)}
    for i in glued.elements:
        for j in glued.elements:
            ci, cj = comp_of[i], comp_of[j]
            if ci == 0 and cj == 1 and i < e:
                assert glued.leq[i][j]
            if ci == 0 and cj == 1 and i > e:
                assert glued.leq[j][i]


def test_cross_products_absorb():
    glued, prov = nested_sum_with_map([S3(), make_com(0, 0)])
    e = glued.unit
    for i in glued.elements:
        for j in glued.elements:
            ci, cj = prov[i][0], prov[j][0]
            if i != e and j != e and ci < cj:
                assert glued.mult[i][j] == i and glued.mult[j][i] == i


def test_not_admissible_rejected():
    # a non-integral non-admissible chain may not sit in a non-final slot:
    # S_4's f-free reduct has (-1)\e = e
    S4 = make_sugihara(4).reduct()
    with pytest.raises(NotAdmissible):
        nested_sum([S4, S3()])
    # integral components are allowed in non-final slots (BL sums)
    nested_sum([make_luk(2, "hoop"), S3()])


def test_factor_round_trip_fixed_cases():
    cases = [
        [make_com(1, 0), S3()],
        [make_figure("A1").reduct(), make_luk(2, "hoop")],
        [make_com(1, 1), make_com(0, 1), make_rsa(2)],
        [S3(), S3()],
    ]
    for comps in cases:
        glued = nested_sum(comps)
        assert components_isomorphic(factor_nested_sum(glued), comps), \
            [c.name for c in comps]


def test_indecomposables_stay_whole():
    for A in (make_com(1, 1), make_figure("A1").reduct(),
              make_figure("strictsimp").reduct(), make_luk(3, "hoop"), S3()):
        assert len(factor_nested_sum(A)) == 1, A.name


def test_known_decomposables():
    # S_5 = S_3 + S_3 and R_3 = R_2 + R_2 (integral input allows integral split)
    parts = factor_nested_sum(make_sugihara(5).reduct())
    assert len(parts) == 2
    assert all(are_isomorphic(p, S3()) is not None for p in parts)
    parts = factor_nested_sum(make_rsa(3))
    assert len(parts) == 2
    assert all(are_isomorphic(p, make_rsa(2)) is not None for p in parts)


def test_reassembly():
    for A in (make_sugihara(7).reduct(), make_rsa(4), make_com(2, 1)):
        parts = factor_nested_sum(A)
        assert are_isomorphic(nested_sum(parts), A) is not None


def test_lower_involutive_components_one_generated():
    # lower involutive chains factor into 1-generated components
    from rlw.structure import subuniverse_closure
    glued = nested_sum([S3(), S3(), S3()])
    for part in factor_nested_sum(glued):
        for x in part.elements:
            if x != part.unit:
                assert subuniverse_closure(part, {x}) == set(part.elements)


@given(st.lists(st.sampled_from(["s3", "c00", "c10", "c01", "a1"]),
                min_size=1, max_size=3),
       st.sampled_from(["s3", "c00", "w2", "r2"]))
def test_round_trip_property(prefix, last):
    pool = {"s3": S3(), "c00": make_com(0, 0), "c10": make_com(1, 0),
            "c01": make_com(0, 1), "a1": make_figure("A1").reduct(),
            "w2": make_luk(2, "hoop"), "r2": make_rsa(2)}
    comps = [pool[k] for k in prefix] + [pool[last]]
    glued = nested_sum(comps)
    assert components_isomorphic(factor_nested_sum(glued), comps)


def test_restrict_lets_programming_errors_through(monkeypatch):
    # only NotResiduated marks a candidate split as invalid; anything else
    # is a fault and must not be read as "no split here"
    import rlw.nsum

    def broken(*args, **kwargs):
        raise RuntimeError("broken")
    monkeypatch.setattr(rlw.nsum, "from_monoid", broken)
    with pytest.raises(RuntimeError):
        factor_nested_sum(make_sugihara(3))


def test_nested_sum_is_derived_as_validated():
    # the glued table is a monoid, so only its residuals are derived: every
    # sum of two chains of size <= 4, and every sum of the comdecomp pools,
    # equals a from-scratch validation of it field by field, or is refused
    # before its table is built (a first component neither admissible nor
    # integral), by either build; any other refusal fails the test
    import itertools
    from rlw import repro
    from rlw.completion import enumerate_chains
    chains = [A for n in range(1, 5) for A in enumerate_chains(n)]
    admissible, finals = repro.admissible_components(), repro.final_components()
    sums = [[X, Y] for X in chains for Y in chains]
    sums += [[*prefix, last] for k in range(3)
             for prefix in itertools.product(admissible, repeat=k) for last in finals]
    refused = 0
    for comps in sums:
        try:
            glued = nested_sum(comps)
        except NotAdmissible:
            refused += 1
            continue
        assert oracles.fields(glued) == oracles.fields(oracles.rebuilt(glued))
    assert (len(sums), refused) == (400 + 387, 60)
