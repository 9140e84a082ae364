"""Operator level: generators, R/K application, intertwiners, 3D equations."""

from __future__ import annotations

import re

import pytest

from qreflect.exactq import DomainError, LaurentQ
from qreflect.tensorops import (
    INTERTWINER_RELATIONS,
    K_SIGNATURE,
    Q1,
    Q2,
    R_SIGNATURE,
    REFLECTION_SIGNATURE,
    SparseVector,
    apply_generator,
    apply_K,
    apply_R,
    oscillator_relations_report,
    sample_unit_states,
    states_up_to,
    unit_states,
    verify_intertwiner,
    verify_reflection,
    verify_tetrahedron,
    weight_conservation_report,
    zeroed_key,
)
from qreflect.threedk import k_element
from qreflect.threedr import r_element


def assert_first_difference(rep):
    """A failed word comparison names the first differing basis state and both sides."""
    failure = rep.first_failure
    assert re.fullmatch(
        re.escape(rep.name) + r", first difference at \|\d+(,\d+)*>", failure.location
    ), failure.location
    assert failure.lhs != failure.rhs


class TestGenerators:
    def test_number_operators(self):
        v = SparseVector.unit((Q1,), (3,))
        assert apply_generator("k", v, 0) == v.scaled(LaurentQ.monomial(3))
        w = SparseVector.unit((Q2,), (2,))
        assert apply_generator("K", w, 0) == w.scaled(LaurentQ.monomial(4))

    def test_lowering_kills_vacuum(self):
        v = SparseVector.unit((Q1,), (0,))
        assert apply_generator("a-", v, 0).is_zero
        w = SparseVector.unit((Q2,), (0,))
        assert apply_generator("A-", w, 0).is_zero

    def test_raising_and_lowering(self):
        v = SparseVector.unit((Q1,), (1,))
        up = apply_generator("a+", v, 0)
        assert up == SparseVector.unit((Q1,), (2,))
        down = apply_generator("a-", v, 0)
        assert down == SparseVector.unit((Q1,), (0,)).scaled(1 - LaurentQ.monomial(2))

    def test_type_mismatch_rejected(self):
        v = SparseVector.unit((Q1,), (1,))
        with pytest.raises(DomainError):
            apply_generator("A+", v, 0)
        w = SparseVector.unit((Q2,), (1,))
        with pytest.raises(DomainError):
            apply_generator("k", w, 0)

    def test_oscillator_relations(self):
        rep = oscillator_relations_report(10)
        assert rep.passed, rep.summary()

    def test_vector_minus_itself_is_zero(self):
        v = apply_K(SparseVector.unit(K_SIGNATURE, (1, 1, 1, 1)), (0, 1, 2, 3))
        assert len(v.terms) == 8
        assert (v - v).is_zero and (v - v).terms == {}
        assert v + v == v.scaled(LaurentQ.integer(2))


class TestOperatorApplication:
    def test_vacuum_fixed_by_K(self):
        v = SparseVector.unit(K_SIGNATURE, (0, 0, 0, 0))
        assert apply_K(v, (0, 1, 2, 3)) == v

    def test_apply_r_block_enumeration(self):
        # Input (0,1,0) spans the block {(1,0,1), (0,1,0)}; the output
        # coefficients are exactly the corresponding elements.
        v = SparseVector.unit(R_SIGNATURE, (0, 1, 0))
        out = apply_R(v, (0, 1, 2))
        want = {
            (1, 0, 1): r_element(1, 0, 1, 0, 1, 0),
            (0, 1, 0): r_element(0, 1, 0, 0, 1, 0),
        }
        want = {occ: coeff for occ, coeff in want.items() if not coeff.is_zero}
        assert out.terms == want

    def test_apply_k_block_cardinality(self):
        v = SparseVector.unit(K_SIGNATURE, (1, 1, 1, 1))
        out = apply_K(v, (0, 1, 2, 3))
        # block (m,n) = (3,4): c=0 gives 4 states, c=1 gives 3, c=2 gives 1
        assert len(out.terms) == 8

    def test_weight_conservation(self):
        rep = weight_conservation_report(2)
        assert rep.passed, rep.summary()

    def test_signature_mismatch_rejected(self):
        v = SparseVector.unit(K_SIGNATURE, (0, 0, 0, 0))
        with pytest.raises(DomainError):
            apply_R(v, (0, 1, 2))


class TestIntertwiners:
    def test_weight_relation_trivial(self):
        for occ in ((0, 0, 0, 0), (1, 2, 0, 1), (2, 1, 2, 2)):
            rep = verify_intertwiner("25", occ)
            assert rep.passed, rep.summary()

    def test_relation_24_example(self):
        rep = verify_intertwiner("24", (1, 1, 0, 1))
        assert rep.passed, rep.summary()

    def test_alias_52(self):
        rep = verify_intertwiner("52", (1, 0, 1, 0))
        assert rep.passed

    def test_relation_count(self):
        assert len(INTERTWINER_RELATIONS) == 15

    @pytest.mark.parametrize("relation", sorted(INTERTWINER_RELATIONS))
    def test_all_relations_small_states(self, relation):
        for occ in states_up_to(4, 1):
            rep = verify_intertwiner(relation, occ)
            assert rep.passed, rep.summary()

    def test_sample_at_occupation_two(self):
        for relation in ("23", "34", "45", "54"):
            rep = verify_intertwiner(relation, (2, 1, 2, 0))
            assert rep.passed, rep.summary()

    def test_negative_control(self, monkeypatch):
        # Scale the one left-hand term of <24> by q instead of 1.
        (_, gens), = INTERTWINER_RELATIONS["24"][0]
        rhs = INTERTWINER_RELATIONS["24"][1]
        monkeypatch.setitem(
            INTERTWINER_RELATIONS, "24", (((LaurentQ.monomial(1), gens),), rhs)
        )
        rep = verify_intertwiner("24", (1, 1, 0, 1))
        assert not rep.passed
        assert_first_difference(rep)


class TestTetrahedron:
    def test_vacuum(self):
        rep = verify_tetrahedron((0,) * 6)
        assert rep.passed

    def test_unit_states(self):
        for occ in states_up_to(6, 1):
            rep = verify_tetrahedron(occ)
            assert rep.passed, rep.summary()

    def test_negative_control(self):
        corrupted = zeroed_key(r_element, (1, 0, 1, 0, 1, 0))
        failures = [
            rep
            for rep in (verify_tetrahedron(occ, element=corrupted) for occ in states_up_to(6, 1))
            if not rep.passed
        ]
        assert failures
        assert_first_difference(failures[0])


class TestReflection:
    def test_signature(self):
        assert REFLECTION_SIGNATURE == (Q2, Q1, Q2, Q1, Q1, Q1, Q2, Q1, Q1)

    def test_vacuum(self):
        rep = verify_reflection((0,) * 9)
        assert rep.passed

    def test_two_unit_states(self):
        for occ in unit_states(9, 2)[:20]:
            rep = verify_reflection(occ)
            assert rep.passed, rep.summary()

    def test_seeded_sample_is_deterministic(self):
        assert sample_unit_states(9, 5, seed=7) == sample_unit_states(9, 5, seed=7)
        assert sample_unit_states(9, 5, seed=7) != sample_unit_states(9, 5, seed=8)

    def test_negative_control(self):
        corrupted = zeroed_key(k_element, (1, 0, 0, 1, 0, 1, 0, 0))
        failures = [
            rep
            for rep in (verify_reflection(occ, k_fn=corrupted) for occ in unit_states(9, 1))
            if not rep.passed
        ]
        assert failures
        assert_first_difference(failures[0])


class TestMemoRegistry:
    def test_one_clear_empties_every_table(self):
        from qreflect import memo, qfamily, tensorops, threedk, threedr
        from qreflect.multipoly import VARS3, MultiPolyQ

        assert qfamily.clear_caches is threedr.clear_caches is memo.clear
        assert threedk.clear_caches is tensorops.clear_caches is memo.clear
        qfamily.q_polynomial_dual(1, 0)
        threedr.p_polynomial(2)
        apply_R(SparseVector.unit(R_SIGNATURE, (0, 1, 0)), (0, 1, 2))
        apply_K(SparseVector.unit(K_SIGNATURE, (1, 0, 1, 0)), (0, 1, 2, 3))
        tables = memo.tables()
        assert sorted(tables) == ["K_local", "P", "Q", "Q_dual", "R_local"]
        assert all(tables.values())

        tensorops.clear_caches()
        assert threedr._P_CACHE == {0: MultiPolyQ.one(VARS3)}
        assert all(not table for name, table in tables.items() if name != "P")
