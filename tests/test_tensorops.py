"""Operator level: generators, R/K application, intertwiners, 3D equations."""

from __future__ import annotations

import importlib
import importlib.util
import operator
import pkgutil
import re
from collections import deque
from functools import lru_cache
from itertools import product
from operator import attrgetter, itemgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qreflect
from qreflect import exactq, memo, tensorops
from qreflect.exactq import DomainError, LaurentQ, _make, accumulate, from_record
from qreflect.multipoly import VARS3, MultiPolyQ
from qreflect.report import VerificationReport
from qreflect.tensorops import (
    INTERTWINER_RELATIONS,
    K_OPERATOR,
    K_SIGNATURE,
    Q1,
    Q2,
    R_OPERATOR,
    R_SIGNATURE,
    REFLECTION_LHS,
    REFLECTION_RHS,
    REFLECTION_SIGNATURE,
    TETRAHEDRON_LHS,
    TETRAHEDRON_RHS,
    TETRAHEDRON_SIGNATURE,
    SparseVector,
    _apply_operator_word,
    _decoder,
    _word_unit,
    apply_generator,
    apply_local,
    apply_word,
    apply_K,
    apply_R,
    combination,
    compare_words,
    oscillator_relations_report,
    states_up_to,
    verify_blocks,
    verify_intertwiner,
    verify_reflection,
    verify_tetrahedron,
    zeroed_key,
)
from qreflect.threedk import k_element
from qreflect.threedr import r_element

from conftest import assert_packed_invariants, assert_true_column, assert_zeroed_key_caught


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

    def test_unknown_generator_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown generator 'b\\+'"):
            apply_generator("b+", SparseVector.unit((Q1,), (1,)), 0)

    def test_a_generator_checks_its_position_once(self, monkeypatch):
        # apply_local's check is the only one a real generator makes.
        calls = []
        sites = tensorops._sites
        monkeypatch.setattr(tensorops, "_sites", lambda *args: calls.append(args) or sites(*args))
        vec = SparseVector.unit(K_SIGNATURE, (1, 0, 0, 0))
        apply_generator("a+", vec, 1)
        assert len(calls) == 1
        with pytest.raises(DomainError):
            apply_generator("a+", vec, 0)
        assert len(calls) == 2

    def test_a_one_checks_its_position(self):
        # "1" is the identity at a checked position, in a word as alone.
        vec = SparseVector.unit(K_SIGNATURE, (1, 0, 0, 0))
        assert apply_word(("1",), vec, (3,)) == apply_generator("1", vec, 3) == vec
        for pos in (99, -1, True, 1.0):
            with pytest.raises(DomainError):
                apply_generator("1", vec, pos)
            with pytest.raises(DomainError):
                apply_word(("1",), vec, (pos,))

    def test_oscillator_relations(self):
        rep = oscillator_relations_report(10)
        assert rep.passed, rep.summary()

    def test_word_and_positions_of_two_lengths_are_a_domain_error(self):
        # One generator per position: none is dropped, and none acts twice.
        vacuum = SparseVector.unit(K_SIGNATURE, (0, 0, 0, 0))
        assert apply_word(("A+", "a+"), vacuum, (0, 1)) == SparseVector.unit(K_SIGNATURE, (1, 1, 0, 0))
        for gens, positions in ((("A+", "a+"), (0,)), (("A+",), (0, 1))):
            with pytest.raises(DomainError):
                apply_word(gens, vacuum, positions)

    def test_vectors_over_two_signatures_do_not_compare(self):
        # Each code is decoded at its own signature's size: a 4-site code is
        # no 3-site state, so no first difference exists to report.
        r_unit = SparseVector.unit(R_SIGNATURE, (1, 0, 0))
        k_unit = SparseVector.unit(K_SIGNATURE, (1, 0, 0, 0))
        assert r_unit != k_unit
        with pytest.raises(DomainError):
            r_unit.first_difference(k_unit)
        with pytest.raises(DomainError):
            compare_words("two signatures", r_unit, k_unit)

    def test_a_vector_plus_a_non_vector_is_a_type_error(self):
        v = SparseVector.unit(K_SIGNATURE, (1, 0, 0, 0))
        for other in (1, LaurentQ.one(), None):
            with pytest.raises(TypeError):
                v + other
            with pytest.raises(TypeError):
                v - other
            with pytest.raises(TypeError):
                other + v

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
        # Every block that a local input with occupations <= 2 lies in.
        for op, max_m, max_n in ((R_OPERATOR, 4, 4), (K_OPERATOR, 6, 8)):
            rep = verify_blocks(op, max_m, max_n)
            assert rep.passed, rep.summary()

    def test_signature_mismatch_rejected(self):
        v = SparseVector.unit(K_SIGNATURE, (0, 0, 0, 0))
        with pytest.raises(DomainError):
            apply_R(v, (0, 1, 2))

    def test_first_difference_is_the_smallest_differing_key(self):
        q = LaurentQ.monomial
        shared = {(0, 2, 1): q(1), (1, 0, 0): q(2, 3), (2, 2, 2): q(0, -1)}
        left = {**shared, (1, 1, 0): q(4), (2, 0, 0): q(1)}
        # (1, 1, 0) and (2, 0, 0) differ; (0, 3, 0) and (1, 2, 0) are on the right only.
        right = {**shared, (1, 1, 0): q(5), (2, 0, 0): q(1, 2), (1, 2, 0): q(0)}
        zero = LaurentQ.zero()

        def vec(terms):
            return SparseVector(R_SIGNATURE, terms.items())

        assert vec(left).first_difference(vec(right)) == ((1, 1, 0), q(4), q(5))
        right[(0, 3, 0)] = q(3)
        assert vec(left).first_difference(vec(right)) == ((0, 3, 0), zero, q(3))
        assert vec(right).first_difference(vec(left)) == ((0, 3, 0), q(3), zero)
        assert vec(left).first_difference(vec(dict(left))) is None


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
        for occ in [occ for occ in states_up_to(9, 1) if sum(occ) <= 2][:20]:
            rep = verify_reflection(occ)
            assert rep.passed, rep.summary()

    def test_negative_control(self):
        corrupted = zeroed_key(k_element, (1, 0, 0, 1, 0, 1, 0, 0))
        failures = [
            rep
            for rep in (
                verify_reflection(occ, k_fn=corrupted)
                for occ in states_up_to(9, 1)
                if sum(occ) <= 1
            )
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
        apply_word(("a+", "A+"), SparseVector.unit((Q1, Q2), (1, 1)), (0, 1))
        apply_word(("a-", "A-"), SparseVector.unit((Q1, Q2), (1, 1)), (0, 1))
        apply_word(("k", "K"), SparseVector.unit((Q1, Q2), (1, 1)), (0, 1))
        tables = memo.tables()
        generators = [f"gen_{gen}_{kind}" for gen in ("A+", "A-", "K", "a+", "a-", "k") for kind in ("index", "local")]
        assert sorted(tables) == ["K_index", "K_local", "P", "Q", "Q_dual", "R_index", "R_local"] + generators
        assert all(tables.values())

        tensorops.clear_caches()
        assert threedr._P_CACHE == {}
        assert all(not table for table in tables.values())
        assert threedr.p_polynomial(0) == MultiPolyQ.one(VARS3)

    def test_a_name_registers_once(self):
        # A second table under a taken name would replace the first one's
        # registry entry, and clear would no longer empty the first.
        for name in ("R_local", "K_local", "K_index", "P"):
            with pytest.raises(ValueError):
                memo.table(name)
        tables = memo.tables()
        assert tables["K_local"] is K_OPERATOR.table and tables["K_index"] is K_OPERATOR.index
        assert tables["gen_K_local"] is tensorops.GENERATORS["K"].table


    def test_every_cache_a_verifier_fills_is_a_registered_table(self):
        # A module-level dict that grows during a verification is a memo
        # table, so the one clear_caches empties it back to its seed.
        modules = [
            importlib.import_module(f"qreflect.{m.name}") for m in pkgutil.iter_modules(qreflect.__path__)
        ]
        memo.clear()
        dicts = {
            f"{module.__name__}.{name}": (value, len(value))
            for module in modules
            for name, value in vars(module).items()
            if isinstance(value, dict)
        }
        assert verify_reflection((0, 1, 0, 1, 1, 0, 1, 0, 1)).passed
        assert verify_tetrahedron((1, 0, 1, 1, 0, 1)).passed
        grown = {name: (d, size) for name, (d, size) in dicts.items() if len(d) > size}
        assert {"qreflect.qfamily._Q_CACHE", "qreflect.threedr._P_CACHE"} <= set(grown)
        registered = list(map(id, memo.tables().values()))
        assert [name for name, (d, _) in grown.items() if id(d) not in registered] == []
        tensorops.clear_caches()
        assert [name for name, (d, size) in grown.items() if len(d) != size] == []


# -- packed columns against the term-by-term reference --------------------------------
#
# The reference multiplies every (input, output) pair as two LaurentQ values
# and sums the products with accumulate, one term at a time.


def reference_terms(op, terms, positions, element):
    """op applied at positions to a dict from occupation tuples to coefficients,
    term by term, with element(*out, *inp) as its entries.

    Zero entries are skipped, as the columns skip them, so that the output
    keys come in the same order.
    """
    if not terms:
        return {}
    gather = itemgetter(*positions)
    size = len(next(iter(terms)))
    slots = list(range(size))
    for offset, p in enumerate(positions, size):
        slots[p] = offset
    scatter = itemgetter(*slots)

    def contributions():
        for occ, coeff in terms.items():
            inp = gather(occ)
            for local in op.states(*op.weights(*inp)):
                value = element(*local, *inp)
                if value:
                    yield scatter(occ + local), coeff * value

    return accumulate(contributions())


def reference_apply(op, vec, positions, element):
    """reference_terms on a vector's terms, as a vector."""
    terms = reference_terms(op, dict(vec.terms.items()), positions, element)
    return SparseVector(vec.signature, terms.items())


def assert_matches_reference(op, vec, positions, element=None):
    """apply_local equals the reference; returns its result."""
    out = apply_local(op, vec, positions, element)
    want = reference_apply(op, vec, positions, element or op.element)
    assert out == want
    assert list(out.terms) == list(want.terms)
    for value in out.terms.values():
        assert_packed_invariants(value)
    return out


real_r = lru_cache(maxsize=None)(lambda *key: R_OPERATOR.element(*key))
real_k = lru_cache(maxsize=None)(lambda *key: K_OPERATOR.element(*key))


def mixed_parity(fn):
    """Entries shifted by q when out[0] + inp[-1] is odd: one output's terms clash in parity."""
    return lambda *key: fn(*key).shifted((key[0] + key[-1]) % 2)


def stride_one(fn):
    """Entries times (1 + q): multi-slot values at stride 1."""
    one_q = LaurentQ({0: 1, 1: 1})
    return lambda *key: fn(*key) * one_q


def forty_bit(fn):
    """Entries times a key-dependent 40-bit integer of either sign."""
    return lambda *key: fn(*key) * ((-1) ** sum(key) * (2**40 - 1 - sum(key)))


# (operator, its memoized elements, the largest occupation drawn)
OPERATORS = {"R": (R_OPERATOR, real_r, 2), "K": (K_OPERATOR, real_k, 1)}
ELEMENTS = {
    "real": lambda fn: fn,
    "mixed_parity": mixed_parity,
    "stride_one": stride_one,
    "forty_bit": forty_bit,
}

_EDGE_BITS = (15, 31, 40, 63, 100, 200)
coefficient_values = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([s * (2**k - 1) for k in _EDGE_BITS for s in (1, -1)]),
    st.integers(-(2**200), 2**200),
)


@st.composite
def coefficients(draw, stride):
    """A nonzero LaurentQ; at stride 2 every exponent has one parity."""
    exps = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True))
    if stride == 2:
        shift = draw(st.integers(-1, 1))
        exps = sorted({2 * e + shift for e in exps})
    terms = {e: draw(coefficient_values.filter(bool)) for e in exps}
    return LaurentQ(terms)


@st.composite
def placed_vectors(draw, op, max_occ):
    """(vector, positions): op at permuted positions of a wider signature.

    One input, some of its block-mates with the same untouched sites (so
    that outputs collect several terms), and a few other states.  Now and
    then the input has an occupation past 2^16 at an untouched site, so
    that every code has fields wider than 16 bits.  (At one of op's sites
    it would make elements like 1 - q^(2^18), slow to build.)
    """
    arity = len(op.signature)
    size = arity + draw(st.integers(0, 2))
    positions = tuple(draw(st.permutations(range(size)))[:arity])
    signature = [Q1] * size
    for kind, p in zip(op.signature, positions):
        signature[p] = kind
    states = st.tuples(*[st.integers(0, max_occ)] * size)
    base = list(draw(states))
    untouched = [p for p in range(size) if p not in positions]
    if untouched and draw(st.integers(0, 7)) == 0:
        base[draw(st.sampled_from(untouched))] = draw(st.sampled_from((2**16, 2**17 - 1)))
    block = op.states(*op.weights(*(base[p] for p in positions)))
    occs = [tuple(base)]
    for local in draw(st.lists(st.sampled_from(block), max_size=4, unique=True)):
        for p, m in zip(positions, local):
            base[p] = m
        occs.append(tuple(base))
    occs += draw(st.lists(states, max_size=3))
    stride = draw(st.sampled_from((1, 2)))
    pairs = [(occ, draw(coefficients(stride))) for occ in occs]
    return SparseVector(tuple(signature), pairs), positions


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(OPERATORS)))
    op, real, max_occ = OPERATORS[name]
    vec, positions = draw(placed_vectors(op, max_occ))
    return op, vec, positions, real


@pytest.fixture
def restore_tables():
    """Clear every memo table afterwards, so no column built in the test outlives it."""
    yield
    memo.clear()


COLUMN_FIELDS = attrgetter("outs", "los", "ps", "n1s", "nis", "w", "s")


def assert_unchanged(col, fields):
    """No field of the column was assigned since fields were read: each is
    the same object (a field assigned an equal value is a write too)."""
    assert all(map(operator.is_, COLUMN_FIELDS(col), fields))


class TestPackedColumns:
    @pytest.mark.parametrize("variant", sorted(ELEMENTS))
    @given(case=cases())
    @settings(max_examples=40, deadline=None)
    def test_against_reference(self, variant, case):
        op, vec, positions, real = case
        assert_matches_reference(op, vec, positions, ELEMENTS[variant](real))

    @given(case=cases())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_shared_table_against_reference(self, case, restore_tables):
        # A call leaves every shared column it uses as it was, whatever its
        # width and however often it is redone: no field changes.  The
        # columns are built first, by a call with unit coefficients, at
        # their entries' true norms.
        op, vec, positions, _ = case
        gather = itemgetter(*positions)
        units = SparseVector(vec.signature, [(occ, LaurentQ.one()) for occ in vec.terms])
        apply_local(op, units, positions)
        columns = {gather(occ): op.table[gather(occ)] for occ in vec.terms}
        before = {inp: COLUMN_FIELDS(col) for inp, col in columns.items()}
        assert_matches_reference(op, vec, positions)
        for inp, fields in before.items():
            col = op.table[inp]
            assert col is columns[inp]
            assert_unchanged(col, fields)
            assert_true_column(col)

    def test_narrow_call_after_a_wide_one(self, restore_tables):
        # Coefficients 2^31 - 1 on a whole block need 64-bit slots; a unit
        # input next runs on the same shared columns at 32-bit slots.
        block = K_OPERATOR.states(3, 4)
        positions = (0, 1, 2, 3)
        wide = SparseVector(K_SIGNATURE, [(inp, LaurentQ.integer(2**31 - 1)) for inp in block])
        out = apply_K(wide, positions)
        assert {v._w for v in out.terms.values()} == {64}
        unit = SparseVector.unit(K_SIGNATURE, block[0])
        out = assert_matches_reference(K_OPERATOR, unit, positions)
        assert {v._w for v in out.terms.values()} == {32}

    def test_cancellation_strips_low_slots(self):
        # Input i with coefficient E(o,j) (1 + q^2) and input j with -E(o,i):
        # output o is E(o,i) E(o,j) q^2, its lowest slot cancelled.  With
        # -E(o,j) and E(o,i) instead, o cancels and is dropped.
        block = R_OPERATOR.states(2, 2)
        o, i, j = block[0], block[1], block[2]
        e_oi, e_oj = real_r(*o, *i), real_r(*o, *j)
        assert e_oi and e_oj
        positions = (0, 1, 2)
        one_q2 = LaurentQ({0: 1, 2: 1})
        vec = SparseVector(R_SIGNATURE, [(i, e_oj * one_q2), (j, -e_oi)])
        out = assert_matches_reference(R_OPERATOR, vec, positions, real_r)
        assert out.terms[o] == (e_oi * e_oj).shifted(2)
        vec = SparseVector(R_SIGNATURE, [(i, -e_oj), (j, e_oi)])
        out = assert_matches_reference(R_OPERATOR, vec, positions, real_r)
        assert o not in out.terms

    def test_bounds_cover_the_output_sums(self):
        # Three inputs of one block, 40-bit entries and coefficients 2^31 - 1:
        # an output sums up to three products of full size, beyond the pair bound.
        block = K_OPERATOR.states(3, 4)
        vec = SparseVector(K_SIGNATURE, [(inp, LaurentQ.integer(2**31 - 1)) for inp in block])
        full = LaurentQ.integer(2**40 - 1)
        assert_matches_reference(K_OPERATOR, vec, (0, 1, 2, 3), lambda *key: full)

    @pytest.mark.parametrize(
        "digit, top, width",
        [(d, top, 32) for d in (1, 2) for top in (2**30, 2**31 - d)]
        + [(d, top, 64) for d in (1, 2) for top in (2**31, 2**31 + d)],
    )
    def test_sums_at_the_slot_edge(self, digit, top, width):
        # Every input of a K weight block with coefficient x_j u, and every
        # entry u, for u = 1 (digit 1) or u = 1 + q^2 (digit 2): each output
        # is (sum x_j) u^2, whose largest digit is top, and each record's
        # bound is exactly top.  Up to 2^31 - 1 the call runs at 32-bit
        # slots; from 2^31 it is redone at 64.
        u = LaurentQ({0: 1}) if digit == 1 else LaurentQ({0: 1, 2: 1})
        block = K_OPERATOR.states(3, 4)
        total = top // digit
        xs = [total // len(block)] * (len(block) - 1)
        xs.append(total - sum(xs))
        vec = SparseVector(K_SIGNATURE, [(inp, u * x) for inp, x in zip(block, xs)])
        out = assert_matches_reference(K_OPERATOR, vec, (0, 1, 2, 3), lambda *key: u)
        assert set(out.terms.values()) == {u * u * total}
        assert max(abs(c) for _, c in (u * u * total).items()) == top
        assert {v._w for v in out.terms.values()} == {width}

    def test_tightening_comes_before_widening(self):
        # A coefficient whose norm bounds (2^31 and 2^30) are far above its
        # true norms (2 and 1) makes a pair bound reach 2^31 with the entry
        # 1 - q^2 - q^4 of the column; it is tightened, so the call stays at
        # 32-bit slots.
        loose = _make(0, 1 + (1 << 32), 32, 2**31, 2**30, 2)
        assert loose == LaurentQ({0: 1, 2: 1})
        table_fill = SparseVector.unit(R_SIGNATURE, (1, 1, 1))
        apply_R(table_fill, (0, 1, 2))
        vec = SparseVector(R_SIGNATURE, [((1, 1, 1), loose)])
        out = assert_matches_reference(R_OPERATOR, vec, (0, 1, 2))
        assert {v._w for v in out.terms.values()} == {32}
        assert R_OPERATOR.table[(1, 1, 1)].w == 32
        # The call tightens a copy: the vector's record and the value it was
        # built from keep their bounds.
        ((_, _, n1, ni),) = vec._codes.values()
        assert (n1, ni) == (loose._n1, loose._ni) == (2**31, 2**30)

    def test_values_built_from_digits_are_not_decoded(self, monkeypatch):
        # A value built from its digits carries its true norms (_exact), so a
        # column over such values decodes none of them; a product's carried
        # bounds are decoded.
        entry = LaurentQ({0: 1, 2: -1, 4: -1})
        product = entry * entry
        assert not product._exact
        decoded = []
        norms = exactq._norms
        monkeypatch.setattr(exactq, "_norms", lambda digits: decoded.append(digits) or norms(digits))
        assert_true_column(exactq.PackedColumn([((0,), entry), ((1,), LaurentQ.monomial(3, -7))]))
        assert decoded == []
        assert_true_column(exactq.PackedColumn([((0,), product)]))
        assert decoded == [exactq._unpack(product._p, product._w)]

    def test_redone_calls_write_into_no_operand(self, restore_tables):
        # Two calls redone with tightened coefficients.  A polynomial
        # product: a coefficient with loose bounds (2^31 and 2^30) times a
        # column of loose values, whose pair bound reaches 2^31.  And a K
        # call on a vector's records, one loose and the rest 2^31 - 1, on
        # a whole weight block, which ends at 64-bit slots.  Neither the
        # columns nor the records change, and no value loses its bounds.
        def loose():
            """1 + q^2 with the bounds 2^31 and 2^30."""
            return _make(0, 1 + (1 << 32), 32, 2**31, 2**30, 2)

        entry = LaurentQ({0: 1, 2: -1, 4: -1})
        values = [loose(), loose(), loose()]
        poly = MultiPolyQ(VARS3, {(1, 0, 0): values[0], (0, 1, 0): entry})
        col = poly._as_column()
        assert_true_column(col)
        assert (col.n1s, col.nis, col.w) == ((2, 3), (1, 1), 32)
        fields = COLUMN_FIELDS(col)
        product = MultiPolyQ.constant(VARS3, values[1]) * poly
        assert {v._w for _, v in product.items()} == {32}
        one_q2 = LaurentQ({0: 1, 2: 1})
        assert product == MultiPolyQ(VARS3, {(1, 0, 0): one_q2 * one_q2, (0, 1, 0): one_q2 * entry})
        assert poly._as_column() is col
        assert_unchanged(col, fields)

        block = K_OPERATOR.states(3, 4)
        positions = (0, 1, 2, 3)
        apply_K(SparseVector(K_SIGNATURE, [(inp, LaurentQ.one()) for inp in block]), positions)
        columns = {inp: K_OPERATOR.table[inp] for inp in block}
        before = {inp: COLUMN_FIELDS(col) for inp, col in columns.items()}
        pairs = [(block[0], values[2])] + [(inp, LaurentQ.integer(2**31 - 1)) for inp in block[1:]]
        vec = SparseVector(K_SIGNATURE, pairs)
        records = {code: list(rec) for code, rec in vec._codes.items()}
        out = assert_matches_reference(K_OPERATOR, vec, positions)
        assert out._w == 64
        assert vec._codes == records
        for inp, fields in before.items():
            assert K_OPERATOR.table[inp] is columns[inp]
            assert_unchanged(columns[inp], fields)
        assert all((v._n1, v._ni) == (2**31, 2**30) for v in values)


    def test_fan_in_of_a_weight_block(self):
        # Sixteen inputs, each alone in its weight block: an output collects
        # one product, so 30-bit coefficients times R(0,0,0;0,0,0) = 1 stay
        # at 32-bit slots, although ceil(log2 16) more bits would not fit.
        assert R_OPERATOR.states(*R_OPERATOR.weights(0, 0, 0)) == [(0, 0, 0)]
        signature = R_SIGNATURE + (Q1, Q1)
        coeff = LaurentQ({0: 2**30 - 1, 2: -(2**30 - 1)})
        vec = SparseVector(
            signature, [((0, 0, 0, i, j), coeff) for i in range(4) for j in range(4)]
        )
        out = assert_matches_reference(R_OPERATOR, vec, (0, 1, 2), real_r)
        assert len(out.terms) == 16
        assert {v._w for v in out.terms.values()} == {32}


# -- generators against the tuple-level reference --------------------------------
#
# The reference acts on occupation tuples and LaurentQ values, one term at
# a time, and re-encodes the result; apply_local acts on coded records.

GENERATOR_SPACES = {"a+": Q1, "a-": Q1, "k": Q1, "A+": Q2, "A-": Q2, "K": Q2}


def generator_action(gen, m, space):
    """The (new occupation, coefficient) of gen acting on |m>; none if it kills it."""
    step = 1 if space is Q1 else 2
    if gen in ("k", "K"):
        return ((m, LaurentQ.monomial(step * m)),)
    if gen in ("a+", "A+"):
        return ((m + 1, LaurentQ.one()),)
    # a-|0> = 0 via the vanishing coefficient (1 - q^0).
    coeff = 1 - LaurentQ.monomial(2 * step * m)
    if coeff.is_zero:
        return ()
    return ((m - 1, coeff),)


def reference_generator(gen, vec, pos):
    """gen at pos, term by term on the vector's tuple-keyed terms."""
    pairs = (
        (occ[:pos] + (new_m,) + occ[pos + 1 :], coeff * factor)
        for occ, coeff in vec.terms.items()
        for new_m, factor in generator_action(gen, occ[pos], vec.signature[pos])
    )
    return SparseVector(vec.signature, pairs)


@st.composite
def generator_cases(draw):
    """(generator, vector, position): K's quartet or a mixed signature of 1 to 5
    sites, occupations up to 2^k - 1 (the top of a k-bit field, so that a+
    widens) with zeros (so that a- kills), coefficients at one drawn stride."""
    mixed = st.lists(st.sampled_from((Q1, Q2)), min_size=1, max_size=5).map(tuple)
    signature = draw(st.one_of(st.just(K_SIGNATURE), mixed))
    top = 2 ** draw(st.integers(1, 5)) - 1
    occupations = st.tuples(*[st.sampled_from((0, 1, top - 1, top))] * len(signature))
    occs = draw(st.lists(occupations, min_size=1, max_size=6, unique=True))
    stride = draw(st.sampled_from((1, 2)))
    vec = SparseVector(signature, [(occ, draw(coefficients(stride))) for occ in occs])
    pos = draw(st.integers(0, len(signature) - 1))
    gen = draw(st.sampled_from([g for g, space in GENERATOR_SPACES.items() if space is signature[pos]]))
    return gen, vec, pos


@pytest.mark.usefixtures("restore_tables")
class TestGeneratorsAgainstReference:
    def test_the_six_generators_are_local_operators(self):
        assert sorted(tensorops.GENERATORS) == sorted(GENERATOR_SPACES)
        for gen, op in tensorops.GENERATORS.items():
            assert op.signature == (GENERATOR_SPACES[gen],)

    @given(case=generator_cases())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_apply_local_equals_the_reference(self, case):
        gen, vec, pos = case
        want = reference_generator(gen, vec, pos)
        for out in (apply_local(tensorops.GENERATORS[gen], vec, (pos,)), apply_generator(gen, vec, pos)):
            assert out == want
            assert list(out.terms) == list(want.terms)
            for value in out.terms.values():
                assert_packed_invariants(value)

    @pytest.mark.parametrize("signature, gen_up, gen_down", [((Q2,), "A+", "A-"), (K_SIGNATURE, "a+", "a-")])
    def test_edges(self, signature, gen_up, gen_down):
        # a- at 0 is zero; a+ at the top of the field width widens the fields.
        pos = len(signature) - 1
        vacuum = SparseVector.unit(signature, (0,) * len(signature))
        assert apply_generator(gen_down, vacuum, pos).is_zero
        top = SparseVector.unit(signature, (0,) * pos + (7,))
        up = apply_generator(gen_up, top, pos)
        assert (top._width, up._width) == (3, 4)
        assert up == reference_generator(gen_up, top, pos) == SparseVector.unit(signature, (0,) * pos + (8,))
        coeff = LaurentQ({0: 1, 1: -3})
        odd = SparseVector(signature, [((0,) * pos + (5,), coeff), ((0,) * pos + (7,), coeff)])
        assert odd._s == 1
        assert apply_generator(gen_up, odd, pos) == reference_generator(gen_up, odd, pos)


# -- packed vectors through operator words ---------------------------------------
#
# A word's factors pass their coefficients on as packed records at the slot
# width and stride of the call that made them; the reference composes
# reference_terms factor by factor on LaurentQ values.

WORD_SIGNATURE = K_SIGNATURE + (Q1, Q1)
WORD_FACTORS = (
    ("K", (0, 1, 2, 3)),
    ("R", (1, 3, 4)),
    ("R", (5, 4, 1)),
    ("R", (3, 5, 1)),
)


def assert_vector_matches(vec, want):
    """vec holds exactly the tuple-keyed terms want, every record valid at its width."""
    assert dict(vec.terms.items()) == want
    for rec in vec._codes.values():
        assert_packed_invariants(from_record(rec, vec._w, vec._s))


def apply_word_checked(word, vec):
    """The word applied factor by factor, each factor checked against reference_terms."""
    want = dict(vec.terms.items())
    for kind, positions in reversed(word):
        op, element = (R_OPERATOR, real_r) if kind == "R" else (K_OPERATOR, real_k)
        vec = apply_local(op, vec, positions)
        want = reference_terms(op, want, positions, element)
        assert_vector_matches(vec, want)
    return vec


def narrow_records_of_a_wide_call():
    """A vector of the records with ||.||_inf bound below 2^20 of a K call redone at 64-bit slots.

    Input (1,1,1,1) has coefficient 2^31 - 1 and input (0,1,0,1), in
    another weight block, 1 + q^2: the first block's outputs need 64-bit
    slots, so the call is redone there and the second block's outputs are
    small multi-slot records at width 64.
    """
    wide = SparseVector(
        WORD_SIGNATURE,
        [((1, 1, 1, 1, 0, 1), LaurentQ.integer(2**31 - 1)), ((0, 1, 0, 1, 1, 0), LaurentQ({0: 1, 2: 1}))],
    )
    out = apply_K(wide, (0, 1, 2, 3))
    assert out._w == 64
    codes = {code: rec for code, rec in out._codes.items() if rec[3] < 2**20}
    assert any(rec[1].bit_length() >= 64 for rec in codes.values())
    return SparseVector._coded(WORD_SIGNATURE, codes, out._width, out._w, out._s)


@st.composite
def packed_words(draw):
    """(word, start vector): occupations <= 1, coefficients at one drawn stride."""
    occs = draw(st.lists(st.tuples(*[st.integers(0, 1)] * 6), min_size=1, max_size=4, unique=True))
    stride = draw(st.sampled_from((1, 2)))
    vec = SparseVector(WORD_SIGNATURE, [(occ, draw(coefficients(stride))) for occ in occs])
    word = draw(st.lists(st.sampled_from(WORD_FACTORS), min_size=1, max_size=4))
    return word, vec


class TestPackedVectors:
    @given(case=packed_words())
    @settings(max_examples=60, deadline=None)
    def test_words_against_reference(self, case):
        word, vec = case
        apply_word_checked(word, vec)

    def test_wide_records_feed_a_narrow_call(self):
        # Records made at 64-bit slots are re-packed once for a 32-bit call.
        vec = narrow_records_of_a_wide_call()
        for factor in WORD_FACTORS:
            out = apply_word_checked((factor,), vec)
            assert out._w == 32

    def test_stride_one_vector(self):
        # Coefficients with both parities: the records are at stride 1.
        vec = SparseVector(
            WORD_SIGNATURE,
            [((1, 0, 1, 1, 0, 1), LaurentQ({0: 3, 1: -2})), ((0, 1, 1, 0, 1, 1), LaurentQ({-1: 1, 2: 5}))],
        )
        assert vec._s == 1
        out = apply_word_checked(WORD_FACTORS, vec)
        assert out._s == 1

    def test_equality_across_widths(self):
        # The same values at 64- and at 32-bit slots are equal vectors.
        wide = narrow_records_of_a_wide_call()
        narrow = SparseVector(
            WORD_SIGNATURE, [(occ, LaurentQ(dict(c.items()))) for occ, c in wide.terms.items()]
        )
        assert (wide._w, narrow._w) == (64, 32)
        assert wide == narrow and narrow == wide
        assert wide.first_difference(narrow) is None
        # One coefficient changed above its lowest exponent, so lo stays equal.
        occ = sorted(wide.terms)[1]
        old = wide.terms[occ]
        new = old + LaurentQ.monomial(old.max_exp() + 2)
        changed = SparseVector(WORD_SIGNATURE, [*narrow.terms.items(), (occ, new - old)])
        assert wide != changed and changed != narrow
        assert wide.first_difference(changed) == (occ, old, new)
        assert changed.first_difference(narrow) == (occ, new, old)

    def test_same_width_difference_above_the_lowest_slot(self):
        vec = apply_K(SparseVector.unit(K_SIGNATURE, (1, 1, 1, 1)), (0, 1, 2, 3))
        occ = max(vec.terms)
        old = vec.terms[occ]
        new = old + LaurentQ.monomial(old.max_exp() + 2)
        changed = vec + SparseVector(K_SIGNATURE, [(occ, new - old)])
        assert (vec._w, vec._s) == (changed._w, changed._s)
        assert vec != changed
        assert vec.first_difference(changed) == (occ, old, new)

    def test_override_fills_no_index(self, restore_tables):
        # A corrupted element's columns stay out of the index, so the next
        # call at the same layout reads the real ones.
        memo.clear()
        positions = (0, 1, 2, 3)
        vec = SparseVector(K_SIGNATURE, [(occ, LaurentQ.one()) for occ in product(range(2), repeat=4)])
        corrupted = zeroed_key(real_k, (1, 0, 0, 1, 0, 1, 0, 0))
        bad = apply_K(vec, positions, element=corrupted)
        assert not K_OPERATOR.index and not K_OPERATOR.table
        assert bad != reference_apply(K_OPERATOR, vec, positions, real_k)
        assert_matches_reference(K_OPERATOR, vec, positions)
        assert K_OPERATOR.index


# -- sums of scaled vectors ------------------------------------------------------
#
# combination sums scalar * vector over its terms in one kernel call; the
# reference decodes every record with from_record and sums the products
# with accumulate, in the order the terms list them.

COMBINATION_SCALARS = (
    LaurentQ.zero(),
    LaurentQ.one(),
    LaurentQ.integer(-1),
    LaurentQ.monomial(1),
    LaurentQ.monomial(1, -1),
    LaurentQ.monomial(2),
    LaurentQ.monomial(2, -1),
    LaurentQ({0: 1, 2: -1}),
)


def reference_combination(terms):
    """The tuple-keyed terms of sum scalar * vector, summed as LaurentQ values."""
    pairs = []
    for scalar, vec in terms:
        decode = _decoder(len(vec.signature), vec._width)
        if scalar:
            pairs += [(decode(code), from_record(rec, vec._w, vec._s) * scalar) for code, rec in vec._codes.items()]
    return accumulate(pairs)


@st.composite
def combination_terms(draw):
    """(scalar, vector) pairs over K's quartet: fields of 1 to 5 bits, states
    that the vectors share, records at 32 bits and wider (2^40 and more),
    stride 1 or 2 per vector, and now and then a term negated so that the
    sum cancels there."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        top = 2 ** draw(st.integers(1, 5)) - 1
        occs = st.tuples(*[st.sampled_from((0, 1, top))] * 4)
        stride = draw(st.sampled_from((1, 2)))
        pairs = [(occ, draw(coefficients(stride))) for occ in draw(st.lists(occs, min_size=1, max_size=5))]
        scalar = draw(st.sampled_from(COMBINATION_SCALARS))
        terms.append((scalar, SparseVector(K_SIGNATURE, pairs)))
        if draw(st.integers(0, 3)) == 0:
            scalar, vec = draw(st.sampled_from(terms))
            terms.append((-scalar, vec))
    return terms


def assert_combination(terms):
    out = combination(terms)
    want = reference_combination(terms)
    assert_vector_matches(out, want)
    assert list(out.terms) == list(want)
    assert out._width == max(vec._width for _, vec in terms)
    return out


class TestCombination:
    @given(terms=combination_terms())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_against_reference(self, terms):
        assert_combination(terms)

    def test_edges(self):
        small = SparseVector(K_SIGNATURE, [((1, 0, 1, 0), LaurentQ({0: 1, 2: 3})), ((0, 0, 0, 1), LaurentQ.one())])
        wide = SparseVector(K_SIGNATURE, [((1, 0, 1, 0), LaurentQ({1: 2**40})), ((31, 0, 0, 0), LaurentQ({0: 1, 1: 1}))])
        assert (small._w, small._s, small._width) == (32, 2, 1)
        assert (wide._w, wide._s, wide._width) == (64, 1, 5)
        # Records at two widths, strides and field widths in one call.
        mixed = assert_combination([(LaurentQ({0: 1, 2: -1}), small), (LaurentQ.monomial(1, -1), wide)])
        assert mixed._s == 1
        # A one-slot coefficient at an odd exponent: two parities at one stride-2 output.
        odd = SparseVector(K_SIGNATURE, [((1, 0, 1, 0), LaurentQ.monomial(1))])
        assert assert_combination([(LaurentQ.one(), small), (LaurentQ.one(), odd)])._s == 1
        # A multi-slot stride-1 scalar, and a zero one.
        assert_combination([(LaurentQ({0: 1, 1: 1}), small), (LaurentQ.zero(), wide)])
        # Cancelled terms are dropped, and a sum that cancels is the zero vector.
        assert (small - small).is_zero and (wide - wide).terms == {}
        assert combination([(LaurentQ.monomial(2), wide), (LaurentQ.monomial(2, -1), wide)]).is_zero
        assert combination([(LaurentQ.zero(), small)]).is_zero

    def test_signatures_and_empty_lists_are_domain_errors(self):
        r_unit = SparseVector.unit(R_SIGNATURE, (1, 0, 0))
        k_unit = SparseVector.unit(K_SIGNATURE, (1, 0, 0, 0))
        for terms in ([], [(LaurentQ.one(), k_unit), (LaurentQ.one(), r_unit)]):
            with pytest.raises(DomainError):
                combination(terms)
        with pytest.raises(DomainError):
            k_unit + r_unit
        with pytest.raises(DomainError):
            r_unit - k_unit

    def test_sums_decode_no_record(self, monkeypatch):
        # Sums, differences, scalar multiples and a passing intertwiner
        # check pass records from call to call: none is decoded.
        v = apply_K(SparseVector.unit(K_SIGNATURE, (1, 1, 1, 1)), (0, 1, 2, 3))
        w = apply_K(SparseVector.unit(K_SIGNATURE, (2, 1, 0, 1)), (0, 1, 2, 3))
        c = LaurentQ({0: 1, 2: -1})

        def no_decode(*args):
            raise AssertionError("a record was decoded")

        monkeypatch.setattr(tensorops, "from_record", no_decode)
        total, difference, multiple = v + w, v - w, v.scaled(c)
        assert verify_intertwiner("34", (2, 1, 2, 0)).passed
        monkeypatch.undo()
        for out, terms in (
            (total, [(LaurentQ.one(), v), (LaurentQ.one(), w)]),
            (difference, [(LaurentQ.one(), v), (LaurentQ.integer(-1), w)]),
            (multiple, [(c, v)]),
        ):
            assert_vector_matches(out, reference_combination(terms))


class TestValuesAtTheEdges:
    def test_warm_reflection_builds_no_intermediate_value(self, monkeypatch):
        # A warm verify_reflection builds a LaurentQ only for the final
        # vectors' terms and the two coefficients first_difference reports.
        state = (0, 2, 0, 1, 2, 0, 2, 0, 1)
        assert verify_reflection(state).passed
        vec = _word_unit(REFLECTION_SIGNATURE, state, REFLECTION_LHS, REFLECTION_RHS)
        finals = [_apply_operator_word(word, vec, None, None) for word in (REFLECTION_LHS, REFLECTION_RHS)]
        built = []
        new, init = exactq._new, LaurentQ.__init__

        def counted_new(cls):
            built.append(cls)
            return new(cls)

        def counted_init(self, *args):
            built.append(type(self))
            init(self, *args)

        monkeypatch.setattr(exactq, "_new", counted_new)
        monkeypatch.setattr(LaurentQ, "__init__", counted_init)
        assert verify_reflection(state).passed
        assert len(built) <= sum(len(v.terms) for v in finals) + 2
        # A reported difference builds its two coefficients.
        doubled = finals[0].scaled(LaurentQ.integer(2))
        assert (doubled._w, doubled._s) == (finals[0]._w, finals[0]._s)
        built.clear()
        occ, left, right = finals[0].first_difference(doubled)
        assert len(built) == 2
        assert right == left * 2


class Index:
    """An int-like object read through __index__, as a position or occupation."""

    def __init__(self, m):
        self.m = m

    def __index__(self):
        return self.m


class TestPositionsAndOccupations:
    # Positions are distinct ints in range(len(signature)), one per site of
    # the operator, read through operator.index and none a bool; occupations
    # are read through operator.index.
    unit = SparseVector.unit(TETRAHEDRON_SIGNATURE, (1, 0, 0, 0, 1, 1))

    @pytest.mark.parametrize(
        "positions", [(0, 0, 4), (-1, 4, 5), (0, 1, 6), (0,), (0, 1.0, 2), (True, 1, 2), (0, True, 2), 3]
    )
    def test_bad_positions_are_a_domain_error(self, positions):
        # A float or a bool equal to the ints of a layout checked before is still refused.
        apply_R(self.unit, (0, 1, 2))
        with pytest.raises(DomainError):
            apply_R(self.unit, positions)

    def test_positions_are_read_through_index(self):
        expected = apply_R(self.unit, (0, 1, 2))
        for positions in ((Index(0), 1, Index(2)), [0, 1, 2], deque([0, 1, 2]), range(3)):
            assert apply_R(self.unit, positions) == expected
        assert apply_generator("a+", self.unit, Index(5)) == apply_generator("a+", self.unit, 5)

    def test_negative_generator_position_is_a_domain_error(self):
        with pytest.raises(DomainError):
            apply_generator("a+", self.unit, -6)
        with pytest.raises(DomainError):
            apply_generator("a+", self.unit, True)

    def test_float_occupation_is_a_type_error(self):
        with pytest.raises(TypeError):
            verify_reflection((1.0,) + (0,) * 8)

    def test_occupations_are_read_through_index(self):
        state = (0, 2, 0, 1, 2, 0, 2, 0, 1)
        assert verify_reflection(tuple(map(Index, state))).passed
        assert SparseVector.unit(R_SIGNATURE, (Index(2), 0, 1)) == SparseVector.unit(R_SIGNATURE, (2, 0, 1))


class TestTableIsolation:
    def test_override_leaves_shared_table(self, restore_tables):
        positions = (0, 1, 2, 3)
        vec = SparseVector(
            K_SIGNATURE, [(occ, LaurentQ.monomial(2 * sum(occ), 1 + sum(occ))) for occ in
                          product(range(2), repeat=4)]
        )
        apply_K(SparseVector.unit(K_SIGNATURE, (1, 0, 1, 0)), positions)
        table = K_OPERATOR.table

        def snapshot():
            return {
                inp: tuple(getattr(col, f) for f in type(col).__slots__)
                for inp, col in table.items()
            }

        before = snapshot()
        corrupted = zeroed_key(real_k, (1, 0, 0, 1, 0, 1, 0, 0))
        bad = apply_K(vec, positions, element=corrupted)
        assert snapshot() == before
        assert bad != reference_apply(K_OPERATOR, vec, positions, real_k)
        assert_matches_reference(K_OPERATOR, vec, positions)


class TestKInvolution:
    def test_k_squared_is_identity(self):
        # K^2 = 1 on the unit vector of each of the 75 states of the blocks
        # m <= 3, n <= 5, with the transpose symmetry and route agreement.
        assert sum(len(K_OPERATOR.states(m, n)) for m in range(4) for n in range(6)) == 75
        rep = verify_blocks(K_OPERATOR, 3, 5)
        assert rep.passed, rep.summary()

    def test_negative_control(self, monkeypatch):
        assert_zeroed_key_caught(
            monkeypatch,
            K_OPERATOR,
            (1, 0, 0, 1, 0, 1, 0, 0),
            "K transpose at (0, 1, 0, 0, 1, 0, 0, 1)",
            "K^2 on (0, 1, 0, 0), first difference at |0,1,0,0>",
        )


    def test_report_counts_every_failure(self, monkeypatch):
        # With one K element zeroed the sweep fails the transpose check at one
        # pair and K^2 = 1 at two unit vectors: three failures, one reported.
        from qreflect import tensorops

        key = (1, 0, 0, 1, 0, 1, 0, 0)
        monkeypatch.setattr(tensorops, "k_element", zeroed_key(k_element, key))
        rep = verify_blocks(K_OPERATOR, 3, 5)
        assert rep.failures == 3
        assert rep.summary().endswith(
            "FAIL (K transpose at (0, 1, 0, 0, 1, 0, 0, 1): "
            f"lhs={rep.first_failure.lhs} rhs={rep.first_failure.rhs}), 3 failed"
        )
        assert rep.to_json()["failures"] == 3
        monkeypatch.undo()
        rep = verify_blocks(K_OPERATOR, 3, 5)
        assert rep.passed and rep.failures == 0
        assert "failed" not in rep.summary() and "failures" not in rep.to_json()


class TestVerifyBlocks:
    @pytest.mark.parametrize(
        "op, stray, location",
        [
            (R_OPERATOR, (2, 0, 0), "R lists (2, 0, 0) in block (1,1): lhs=(2, 0) rhs=(1, 1)"),
            (K_OPERATOR, (0, 0, 0, 2), "K lists (0, 0, 0, 2) in block (1,1): lhs=(0, 2) rhs=(1, 1)"),
        ],
        ids=["R", "K"],
    )
    def test_state_off_its_block_fails_the_weight_check(self, op, stray, location):
        def states(m, n):
            return op.states(m, n) + [stray] * ((m, n) == (1, 1))

        rep = verify_blocks(op._replace(states=states), 2, 2)
        assert not rep.passed
        assert str(rep.first_failure) == location


class TestWideOccupations:
    def test_outputs_widen_the_fields(self):
        # R on (2^17 - 1, 1, 0) reaches (2^17, 0, 1): 18-bit fields, one more
        # than the input's, at every site.  Its elements are monomials.
        signature = R_SIGNATURE + (Q1,)
        vec = SparseVector(signature, [((2**17 - 1, 1, 0, 5), LaurentQ.monomial(3))])
        assert vec._width == 17
        out = assert_matches_reference(R_OPERATOR, vec, (0, 1, 2), real_r)
        assert out._width == 18
        assert set(out.terms) == {(2**17, 0, 1, 5), (2**17 - 1, 1, 0, 5)}

    @pytest.mark.parametrize(
        "signature, words, occ",
        [
            (TETRAHEDRON_SIGNATURE, (TETRAHEDRON_LHS, TETRAHEDRON_RHS), (3, 0, 3, 1, 0, 2)),
            (REFLECTION_SIGNATURE, (REFLECTION_LHS, REFLECTION_RHS), (0, 2, 0, 1, 2, 0, 2, 0, 1)),
        ],
    )
    def test_word_bound_leaves_no_factor_to_widen(self, signature, words, occ):
        # The verifiers' start width holds every occupation both words reach.
        vec = _word_unit(signature, occ, *words)
        for word in words:
            assert _apply_operator_word(word, vec, None, None)._width == vec._width

    @pytest.mark.parametrize("occ", [(2**20, 1, 0, 0, 0, 0), (40000, 0, 0, 0, 0, 1)])
    def test_tetrahedron_past_sixteen_bit_fields(self, occ):
        rep = verify_tetrahedron(occ)
        assert rep.passed, rep.summary()


# -- failure reports against a tuple-keyed reference --------------------------------


def _load_workloads():
    """perfbench/workloads.py, which generates the benchmark's states."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def control_k(state):
    """K with the key zeroed that the reflection benchmark's negative control
    zeroes for state; K itself when that control skips the state."""
    i, j, k, l = inp = state[:4]
    if not any(inp):
        return real_k
    block = K_OPERATOR.states(i + j + k, j + 2 * k + l)
    return zeroed_key(real_k, next(out + inp for out in block if real_k(*out, *inp)))


def reference_word(word, terms, k_fn):
    """A word applied by reference_terms, the rightmost factor first."""
    for kind, positions in reversed(word):
        op, element = (R_OPERATOR, real_r) if kind == "R" else (K_OPERATOR, k_fn)
        terms = reference_terms(op, terms, positions, element)
    return terms


def reference_reflection_summary(state, k_fn):
    """verify_reflection's summary, from tuple-keyed dicts and sorted tuples."""
    start = {state: LaurentQ.one()}
    lhs = reference_word(REFLECTION_LHS, start, k_fn)
    rhs = reference_word(REFLECTION_RHS, start, k_fn)
    name = f"reflection on {state}"
    rep = VerificationReport(name)
    zero = LaurentQ.zero()
    diffs = [occ for occ in sorted(lhs.keys() | rhs.keys()) if lhs.get(occ, zero) != rhs.get(occ, zero)]
    if diffs:
        occ = diffs[0]
        where = f"{name}, first difference at |{','.join(map(str, occ))}>"
        rep.record(False, where, str(lhs.get(occ, zero)), str(rhs.get(occ, zero)))
    else:
        rep.record(True, name)
    return rep.summary()


class TestFailureReports:
    def test_reports_match_the_tuple_keyed_reference(self):
        # The benchmark's first 40 seed-1 states, each with the K key of its
        # negative control zeroed: the first difference and both values match.
        states = _load_workloads().reflection_states(1, (5, 6), 2)[:40]
        failed = 0
        for state in states:
            k_fn = control_k(state)
            rep = verify_reflection(state, k_fn=k_fn)
            assert rep.summary() == reference_reflection_summary(state, k_fn)
            failed += not rep.passed
        assert failed == 32
