"""Unit tests for events, memory orders, value expressions and conditions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import INIT_TID, Event, EventKind, MemoryOrder, make_init_writes
from repro.core.expr import BinOp, Const, ReadVal, UnOp, is_constant
from repro.core.litmus import And, Condition, LocEq, Not, Or, RegEq, TrueProp, conj
from repro.core.execution import Outcome


class TestMemoryOrder:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("memory_order_relaxed", MemoryOrder.RLX),
            ("memory_order_seq_cst", MemoryOrder.SC),
            ("acquire", MemoryOrder.ACQ),
            ("REL", MemoryOrder.REL),
            ("acq_rel", MemoryOrder.ACQ_REL),
            ("consume", MemoryOrder.CON),
            ("plain", MemoryOrder.NA),
        ],
    )
    def test_parse(self, text, expected):
        assert MemoryOrder.parse(text) is expected

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            MemoryOrder.parse("memory_order_bogus")

    def test_strength_predicates(self):
        assert MemoryOrder.SC.at_least_acquire
        assert MemoryOrder.SC.at_least_release
        assert MemoryOrder.ACQ.at_least_acquire
        assert not MemoryOrder.ACQ.at_least_release
        assert MemoryOrder.REL.at_least_release
        assert not MemoryOrder.RLX.at_least_acquire
        assert not MemoryOrder.NA.is_atomic
        assert MemoryOrder.RLX.is_atomic

    def test_c11_spelling_roundtrip(self):
        for order in MemoryOrder:
            if order is MemoryOrder.NA:
                continue
            assert MemoryOrder.parse(order.c11_spelling()) is order


class TestEvent:
    def test_classification(self):
        read = Event(0, 0, EventKind.READ, loc="x", value=1)
        assert read.is_read and read.is_access and not read.is_write

    def test_init_events(self):
        writes = make_init_writes({"x": 0, "y": 2})
        assert all(w.tid == INIT_TID and w.is_init for w in writes)
        assert {w.loc: w.value for w in writes} == {"x": 0, "y": 2}
        assert all("INIT" in w.tags for w in writes)

    def test_with_value_and_tags(self):
        e = Event(0, 0, EventKind.READ, loc="x")
        assert e.with_value(3).value == 3
        assert e.with_tags("A").has_tag("A")

    def test_rmw_half_detection(self):
        e = Event(0, 0, EventKind.READ, loc="x", tags=frozenset({"RMW-R"}))
        assert e.is_rmw_half

    def test_pretty_mentions_kind_and_loc(self):
        e = Event(0, 0, EventKind.WRITE, loc="x", value=1, order=MemoryOrder.RLX)
        assert "W" in e.pretty() and "x" in e.pretty()


class TestExpr:
    def test_const_eval(self):
        assert Const(5).eval({}) == 5
        assert is_constant(Const(5))

    def test_readval_requires_env(self):
        with pytest.raises(KeyError):
            ReadVal(3).eval({})
        assert ReadVal(3).eval({3: 7}) == 7

    def test_binop_eval(self):
        expr = BinOp("+", ReadVal(0), Const(2))
        assert expr.eval({0: 3}) == 5
        assert expr.reads() == frozenset({0})

    def test_comparison_yields_01(self):
        assert BinOp("==", Const(1), Const(1)).eval({}) == 1
        assert BinOp("<", Const(2), Const(1)).eval({}) == 0

    def test_division_by_zero_yields_zero(self):
        assert BinOp("/", Const(1), Const(0)).eval({}) == 0
        assert BinOp("%", Const(1), Const(0)).eval({}) == 0

    def test_substitute_folds_constants(self):
        expr = BinOp("*", ReadVal(0), Const(3)).substitute({0: 2})
        assert is_constant(expr) and expr.eval({}) == 6

    def test_unop(self):
        assert UnOp("!", Const(0)).eval({}) == 1
        assert UnOp("-", Const(3)).eval({}) == -3

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            BinOp("**", Const(1), Const(2))
        with pytest.raises(ValueError):
            UnOp("+", Const(1))

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_substitute_matches_eval(self, a, b):
        expr = BinOp("+", BinOp("*", ReadVal(0), Const(2)), ReadVal(1))
        env = {0: a, 1: b}
        assert expr.substitute(env).eval({}) == expr.eval(env)


class TestCondition:
    def outcome(self, **kv):
        return Outcome.of(kv)

    def test_loc_eq(self):
        assert LocEq("x", 1).evaluate({"x": 1})
        assert not LocEq("x", 1).evaluate({"x": 0})
        assert not LocEq("x", 1).evaluate({})  # missing reads as 0

    def test_reg_eq_name(self):
        prop = RegEq("P1", "r0", 2)
        assert prop.name == "P1:r0"
        assert prop.evaluate({"P1:r0": 2})

    def test_connectives(self):
        p = And(LocEq("x", 1), Not(LocEq("y", 1)))
        assert p.evaluate({"x": 1, "y": 0})
        assert not p.evaluate({"x": 1, "y": 1})
        q = Or(LocEq("x", 5), TrueProp())
        assert q.evaluate({})

    def test_conj_empty_is_true(self):
        assert isinstance(conj([]), TrueProp)

    def test_exists_condition(self):
        cond = Condition("exists", LocEq("x", 1))
        assert cond.holds_over([self.outcome(x=0), self.outcome(x=1)])
        assert not cond.holds_over([self.outcome(x=0)])

    def test_forall_condition(self):
        cond = Condition("forall", LocEq("x", 1))
        assert cond.holds_over([self.outcome(x=1)])
        assert not cond.holds_over([self.outcome(x=1), self.outcome(x=0)])

    def test_bad_quantifier_rejected(self):
        with pytest.raises(ValueError):
            Condition("some", TrueProp())

    def test_witnesses(self):
        cond = Condition("exists", LocEq("x", 1))
        hits = cond.witnesses([self.outcome(x=0), self.outcome(x=1)])
        assert hits == [self.outcome(x=1)]

    def test_observables(self):
        cond = Condition("exists", And(RegEq("P0", "r0", 1), LocEq("y", 2)))
        assert cond.observables() == frozenset({"P0:r0", "y"})


class TestOutcome:
    def test_of_sorts_bindings(self):
        assert Outcome.of({"y": 1, "x": 0}) == Outcome.of({"x": 0, "y": 1})

    def test_project(self):
        o = Outcome.of({"x": 1, "y": 2}).project(["x"])
        assert o.as_dict() == {"x": 1}

    def test_rename(self):
        o = Outcome.of({"P0:r0": 1}).rename({"P0:r0": "out_P0_r0"})
        assert o.as_dict() == {"out_P0_r0": 1}

    def test_str_format(self):
        assert str(Outcome.of({"x": 1})) == "{ x=1; }"


class TestFrozenCopy:
    """``frozen_copy`` is ``dataclasses.replace`` minus the ``__init__``
    call, for frozen records that do no validation."""

    def test_matches_replace(self):
        from dataclasses import replace

        from repro.core.frozen import frozen_copy

        event = Event(3, 0, EventKind.WRITE, loc="x", tags=frozenset({"L"}))
        copy = frozen_copy(event, value=7)
        assert copy == replace(event, value=7)
        assert hash(copy) == hash(replace(event, value=7))
        assert event.value is None  # the original is untouched
        assert event.with_tags("X").tags == {"L", "X"}

    def test_refuses_validating_types_and_unknown_fields(self):
        from dataclasses import dataclass

        from repro.core.frozen import frozen_copy

        @dataclass(frozen=True)
        class Checked:
            n: int

            def __post_init__(self):
                assert self.n >= 0

        with pytest.raises(TypeError, match="__post_init__"):
            frozen_copy(Checked(1), n=-1)
        with pytest.raises(TypeError, match="no field"):
            frozen_copy(Event(0, 0, EventKind.READ), colour="red")
