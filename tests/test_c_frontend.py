"""Tests for the C litmus front-end: parser, printer, symbolic semantics."""

import pytest

from repro.core.errors import ParseError, SimulationError
from repro.core.events import EventKind, MemoryOrder
from repro.lang import parse_c_litmus, print_c_litmus
from repro.lang.ast import (
    AtomicLoad,
    AtomicRMW,
    AtomicStore,
    CLitmus,
    CThread,
    Decl,
    Fence,
    If,
    While,
)
from repro.lang.semantics import elaborate
from repro.papertests import (
    FIG1_SOURCE,
    FIG7_SOURCE,
    all_tests,
    atomics_128,
    fig1_exchange,
    fig7_lb,
)
from repro.tools.mutate import iter_mutants


class TestParser:
    def test_header_name(self):
        litmus = parse_c_litmus("C myname\n{ *x = 0; }\nvoid P0(atomic_int* x) { }\nexists (x=0)")
        assert litmus.name == "myname"

    def test_init_state(self):
        litmus = fig7_lb()
        assert litmus.init == {"x": 0, "y": 0}

    def test_defines_expand(self):
        litmus = fig7_lb()
        load = litmus.threads[0].body[0]
        assert isinstance(load, Decl)
        assert isinstance(load.expr, AtomicLoad)
        assert load.expr.order is MemoryOrder.RLX

    def test_thread_params_and_atomic_types(self):
        litmus = fig7_lb()
        assert litmus.threads[0].params == ("y", "x")
        assert set(litmus.threads[0].atomic_params) == {"x", "y"}

    def test_exchange_parses_as_rmw(self):
        litmus = fig1_exchange()
        stmt = litmus.threads[1].body[0]
        assert isinstance(stmt.expr, AtomicRMW)
        assert stmt.expr.kind == "xchg"
        assert stmt.expr.order is MemoryOrder.REL

    def test_fetch_ops_parse(self):
        for op in ("add", "sub", "or", "and", "xor"):
            source = f"""
C t
{{ *x = 0; }}
void P0(atomic_int* x) {{
  int r0 = atomic_fetch_{op}_explicit(x, 1, memory_order_relaxed);
}}
exists (P0:r0=0)
"""
            litmus = parse_c_litmus(source)
            rmw = litmus.threads[0].body[0].expr
            assert isinstance(rmw, AtomicRMW) and rmw.kind == op

    def test_condition_ast(self):
        litmus = fig1_exchange()
        assert str(litmus.condition) == "exists (P1:r0=0 /\\ y=2)"
        assert litmus.condition.observables() == frozenset({"P1:r0", "y"})

    def test_if_else_parses(self):
        source = """
C t
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 == 1) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  else { atomic_store_explicit(y, 1, memory_order_relaxed); }
}
exists (y=1)
"""
        litmus = parse_c_litmus(source)
        branch = litmus.threads[0].body[1]
        assert isinstance(branch, If)
        assert branch.else_body

    def test_while_parses(self):
        source = """
C t
{ *x = 0; }
void P0(atomic_int* x) {
  int r0 = 0;
  while (r0 == 0) { r0 = atomic_load_explicit(x, memory_order_relaxed); }
}
exists (P0:r0=1)
"""
        litmus = parse_c_litmus(source)
        assert isinstance(litmus.threads[0].body[1], While)

    def test_128bit_param_width(self):
        source = """
C t
{ *x = 0; }
void P0(atomic_int128* x) {
  __int128 r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=0)
"""
        litmus = parse_c_litmus(source)
        assert litmus.width_of("x") == 128

    def test_const_location(self):
        source = """
C t
{ const *c = 5; }
void P0(atomic_int* c) {
  int r0 = atomic_load_explicit(c, memory_order_relaxed);
}
exists (P0:r0=5)
"""
        litmus = parse_c_litmus(source)
        assert litmus.const_locations == ("c",)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_c_litmus("this is not a litmus test")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_c_litmus(FIG7_SOURCE + "\nextra tokens here")

    @pytest.mark.parametrize("cut", [
        "  atomic_store_explicit(x, 1, memory_order_relaxed);\n",
        "  int r0 =\n",
    ])
    def test_eof_inside_thread_body_is_a_parse_error(self, cut):
        """A file that ends mid-thread is bad input (ParseError, so the
        CLI exits 2), reported at the last token's line, not line 0."""
        source = "C cut\n{ x=0; }\nP0(atomic_int* x) {\n" + cut
        with pytest.raises(ParseError) as info:
            parse_c_litmus(source, name="cut.litmus.c")
        assert info.value.line == 4
        assert info.value.render().startswith("cut.litmus.c:4: ")


class TestPrinter:
    def test_roundtrip_fig7(self):
        litmus = fig7_lb()
        printed = print_c_litmus(litmus)
        reparsed = parse_c_litmus(printed, litmus.name)
        assert reparsed.init == litmus.init
        assert len(reparsed.threads) == len(litmus.threads)
        assert str(reparsed.condition) == str(litmus.condition)

    def test_roundtrip_fig1(self):
        litmus = fig1_exchange()
        printed = print_c_litmus(litmus)
        reparsed = parse_c_litmus(printed, litmus.name)
        assert str(reparsed.condition) == str(litmus.condition)

    @pytest.mark.parametrize(
        "litmus", all_tests(), ids=lambda litmus: litmus.name
    )
    def test_print_parse_keeps_digest(self, litmus):
        reparsed = parse_c_litmus(print_c_litmus(litmus), litmus.name)
        assert reparsed.widths == litmus.widths
        assert reparsed.digest() == litmus.digest()

    def test_128_bit_parameters_keep_their_width(self):
        printed = print_c_litmus(atomics_128())
        assert "atomic_int128* x, atomic_int* y" in printed

    def test_atomics_128_hunt_mutants_keep_digest(self):
        """Hunt store records carry reproducers as printed source, so
        every mutant a hunt can reach from the 128-bit seed (two
        rounds deep here) must re-parse to the same test."""
        frontier = [atomics_128()]
        mutants = {}
        for _ in range(2):
            frontier = [
                m.litmus for seed in frontier for m in iter_mutants(seed)
                if m.litmus.digest() not in mutants
            ]
            mutants.update((t.digest(), t) for t in frontier)
        assert len(mutants) > 20
        for digest, mutant in mutants.items():
            assert parse_c_litmus(print_c_litmus(mutant)).digest() == digest


class TestSemantics:
    def test_straight_line_single_path(self):
        programs = elaborate(fig7_lb())
        assert all(len(p.paths) == 1 for p in programs)

    def test_events_in_program_order(self):
        programs = elaborate(fig7_lb())
        path = programs[0].paths[0]
        kinds = [t.kind for t in path.templates]
        # relaxed fence compiles to nothing at source level? no: the C
        # semantics keeps the fence event (the model ignores RLX fences)
        assert kinds[0] is EventKind.READ
        assert kinds[-1] is EventKind.WRITE

    def test_rmw_produces_read_write_pair(self):
        programs = elaborate(fig1_exchange())
        path = programs[1].paths[0]
        rmw_writes = [t for t in path.templates if t.rmw_with_prev]
        assert len(rmw_writes) == 1
        reads = [t for t in path.templates if t.kind is EventKind.READ]
        assert any("RMW-R" in t.tags for t in reads)

    def test_if_forks_paths(self):
        source = """
C t
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 == 1) { atomic_store_explicit(y, 1, memory_order_relaxed); }
}
exists (y=1)
"""
        programs = elaborate(parse_c_litmus(source))
        assert len(programs[0].paths) == 2

    def test_ctrl_deps_recorded_after_branch(self):
        source = """
C t
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 == 1) { atomic_store_explicit(y, 1, memory_order_relaxed); }
}
exists (y=1)
"""
        programs = elaborate(parse_c_litmus(source))
        taken = [p for p in programs[0].paths if len(p.templates) == 2][0]
        store = taken.templates[1]
        assert store.ctrl_deps  # control-dependent on the load

    def test_while_unrolls_to_budget(self):
        source = """
C t
{ *x = 0; }
void P0(atomic_int* x) {
  int r0 = 0;
  while (r0 == 0) { r0 = atomic_load_explicit(x, memory_order_relaxed); }
}
exists (P0:r0=1)
"""
        programs = elaborate(parse_c_litmus(source), unroll=3)
        # paths: exit after 1, 2, or 3 reads (the still-looping path drops)
        assert 1 <= len(programs[0].paths) <= 4

    def test_undefined_local_raises(self):
        source = """
C t
{ *x = 0; }
void P0(atomic_int* x) {
  atomic_store_explicit(x, r9, memory_order_relaxed);
}
exists (x=0)
"""
        with pytest.raises(SimulationError):
            elaborate(parse_c_litmus(source))

    def test_finals_capture_locals(self):
        programs = elaborate(fig7_lb())
        assert "r0" in programs[0].paths[0].finals
