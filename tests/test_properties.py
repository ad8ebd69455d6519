"""Property-based tests on cross-cutting invariants.

These encode the semantic facts the whole reproduction leans on:

* model strength ordering (SC ⊆ RC11 ⊆ rc11+lb ⊆ c11_simp outcomes);
* adding fences never adds outcomes (monotonicity);
* enumeration determinism;
* the s2l optimiser preserves observable outcomes on random diy tests;
* every architecture's compiled outcome set contains the SC outcomes
  (compilation never loses sequential interleavings).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import make_profile
from repro.core.events import MemoryOrder
from repro.herd import simulate_asm, simulate_c
from repro.lang.printer import print_c_litmus
from repro.tools import (
    assembly_to_litmus,
    build_test,
    compile_and_disassemble,
    get_shape,
    prepare,
)
from repro.tools.mcompare import StateMapping

SHAPES = ("MP", "LB", "SB", "S", "R", "2+2W")
ORDERS = ("rlx", "ar", "sc")
FENCES = (None, MemoryOrder.ACQ, MemoryOrder.REL, MemoryOrder.SC)
DEPS = ("po", "data", "ctrl2")

test_strategy = st.builds(
    lambda shape, order, fence, dep: build_test(
        get_shape(shape), order, fence=fence if dep == "po" else None, dep=dep
    ),
    shape=st.sampled_from(SHAPES),
    order=st.sampled_from(ORDERS),
    fence=st.sampled_from(FENCES),
    dep=st.sampled_from(DEPS),
)

relaxed_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestModelStrength:
    @relaxed_settings
    @given(test_strategy)
    def test_sc_strongest(self, litmus):
        sc = simulate_c(litmus, "sc").outcomes
        rc11 = simulate_c(litmus, "rc11").outcomes
        assert sc <= rc11

    @relaxed_settings
    @given(test_strategy)
    def test_rc11_subset_of_rc11_lb(self, litmus):
        rc11 = simulate_c(litmus, "rc11").outcomes
        lb = simulate_c(litmus, "rc11+lb").outcomes
        assert rc11 <= lb

    @relaxed_settings
    @given(test_strategy)
    def test_rc11_lb_subset_of_c11_simp(self, litmus):
        lb = simulate_c(litmus, "rc11+lb").outcomes
        simp = simulate_c(litmus, "c11_simp").outcomes
        assert lb <= simp

    @relaxed_settings
    @given(test_strategy)
    def test_partialsc_between(self, litmus):
        rc11 = simulate_c(litmus, "rc11").outcomes
        partial = simulate_c(litmus, "c11_partialsc").outcomes
        assert rc11 <= partial


class TestFenceMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(
        shape=st.sampled_from(("MP", "LB", "SB")),
        order=st.sampled_from(("rlx",)),
        fence=st.sampled_from((MemoryOrder.ACQ, MemoryOrder.REL, MemoryOrder.SC)),
        model=st.sampled_from(("rc11", "rc11+lb", "c11_simp")),
    )
    def test_fences_only_remove_outcomes(self, shape, order, fence, model):
        bare = build_test(get_shape(shape), order, fence=None)
        fenced = build_test(get_shape(shape), order, fence=fence)
        bare_out = simulate_c(bare, model).outcomes
        fenced_out = simulate_c(fenced, model).outcomes
        assert fenced_out <= bare_out


class TestDeterminism:
    @relaxed_settings
    @given(test_strategy)
    def test_enumeration_deterministic(self, litmus):
        first = simulate_c(litmus, "rc11")
        second = simulate_c(litmus, "rc11")
        assert first.outcomes == second.outcomes
        assert first.flags == second.flags


class TestCompilationInvariants:
    def _compiled_outcomes(self, litmus, profile, optimise=True):
        prepared = prepare(litmus)
        c2s = compile_and_disassemble(prepared, profile)
        asm = assembly_to_litmus(c2s.obj, prepared.condition,
                                 listing=c2s.listing, optimise=optimise)
        mapping = StateMapping(
            observables=frozenset(prepared.init)
            | prepared.condition.observables()
        )
        result = simulate_asm(asm)
        return frozenset(mapping.apply(o) for o in result.outcomes), prepared, mapping

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.sampled_from(("MP", "LB", "SB")),
        order=st.sampled_from(("rlx", "sc")),
        arch=st.sampled_from(("aarch64", "x86_64", "riscv64")),
        opt=st.sampled_from(("-O1", "-O3")),
    )
    def test_compiled_contains_sc_outcomes(self, shape, order, arch, opt):
        """Compilation may add weak outcomes but never loses the
        sequentially consistent interleavings."""
        litmus = build_test(get_shape(shape), order)
        profile = make_profile("llvm", opt, arch)
        compiled, prepared, mapping = self._compiled_outcomes(litmus, profile)
        sc = frozenset(
            mapping.apply(o) for o in simulate_c(prepared, "sc").outcomes
        )
        assert sc <= compiled

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.sampled_from(("MP", "LB", "SB")),
        order=st.sampled_from(("rlx", "sc")),
        opt=st.sampled_from(("-O0", "-O2")),
    )
    def test_s2l_optimisation_sound(self, shape, order, opt):
        """The §IV-E rewrites never change observable outcomes."""
        litmus = build_test(get_shape(shape), order)
        profile = make_profile("llvm", opt, "aarch64")
        optimised, _, _ = self._compiled_outcomes(litmus, profile, optimise=True)
        raw, _, _ = self._compiled_outcomes(litmus, profile, optimise=False)
        assert optimised == raw

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.sampled_from(("MP", "SB")),
        arch=st.sampled_from(("aarch64", "armv7", "ppc64")),
    )
    def test_seq_cst_compilation_preserves_sc_exactly(self, shape, arch):
        """Fully seq_cst tests must compile to exactly the SC outcomes on
        every architecture (the mappings' correctness anchor)."""
        litmus = build_test(get_shape(shape), "sc")
        profile = make_profile("gcc", "-O2", arch)
        compiled, prepared, mapping = self._compiled_outcomes(litmus, profile)
        sc = frozenset(
            mapping.apply(o) for o in simulate_c(prepared, "sc").outcomes
        )
        assert compiled == sc

    def test_roundtrip_print_parse_simulate(self):
        """Printing a generated test and re-parsing preserves outcomes."""
        from repro.lang.parser import parse_c_litmus

        for shape in ("MP", "LB"):
            litmus = build_test(get_shape(shape), "rlx")
            reparsed = parse_c_litmus(print_c_litmus(litmus), litmus.name)
            assert (
                simulate_c(litmus, "rc11").outcomes
                == simulate_c(reparsed, "rc11").outcomes
            )


class TestKernelEquivalence:
    """The compiled kernel pipeline is a pure optimisation: split
    static/dynamic evaluation over bitmask rows must be observably
    identical to whole-model evaluation, for every generated test."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(litmus=test_strategy,
           model_name=st.sampled_from(("sc", "rc11", "c11_simp")))
    def test_split_matches_whole_model(self, litmus, model_name):
        from repro.cat.registry import get_model
        from repro.cat.stdlib import (
            build_env,
            build_static_env,
            dynamic_bindings,
        )

        model = get_model(model_name)
        compiled = model.compile()
        result = simulate_c(litmus, "sc", keep_executions=True)
        for execution, _ in result.executions:
            whole = model.evaluate(build_env(execution))
            static = build_static_env(
                execution.events, execution.po, execution.rmw,
                execution.addr, execution.data, execution.ctrl,
            )
            prefix = compiled.run_static(static.env)
            split = compiled.run_dynamic(
                prefix, dynamic_bindings(execution, static)
            )
            assert split.allowed == whole.allowed
            assert sorted(split.flags) == sorted(whole.flags)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(litmus=test_strategy)
    def test_derived_relations_match_reference(self, litmus):
        """Execution-derived relations (fr, loc, int/ext, final memory)
        computed by mask kernels equal their pair-level definitions."""
        result = simulate_c(litmus, "rc11", keep_executions=True)
        for execution, _ in result.executions:
            rf = frozenset(execution.rf)
            co = frozenset(execution.co)
            ref_fr = frozenset(
                (r, w2) for w, r in rf for w1, w2 in co if w1 == w
            )
            assert frozenset(execution.fr) == ref_fr
            events = execution.events
            ref_loc = frozenset(
                (a.eid, b.eid)
                for a in events for b in events
                if a.eid != b.eid and a.is_access and b.is_access
                and a.loc is not None and a.loc == b.loc
            )
            assert frozenset(execution.same_location()) == ref_loc
            ref_int = frozenset(
                (a.eid, b.eid)
                for a in events for b in events
                if a.eid != b.eid and a.tid == b.tid and not a.is_init
            )
            assert frozenset(execution.internal()) == ref_int
            ref_ext = frozenset(
                (a.eid, b.eid)
                for a in events for b in events
                if a.eid != b.eid and a.tid != b.tid
            )
            assert frozenset(execution.external()) == ref_ext
            co_pairs = execution.co.pairs
            for loc, value in execution.final_memory().items():
                ws = [e for e in events if e.is_write and e.loc == loc]
                maximal = [
                    w for w in ws
                    if not any((w.eid, o.eid) in co_pairs for o in ws)
                ]
                assert len(maximal) == 1
                expected = maximal[0].value
                assert value == (0 if expected is None else expected)


class TestSuiteRoundTripProperties:
    """The farm's corpus contract: dump/load through write_suite →
    SuiteSource preserves content digests, and sharding the reloaded
    suite partitions it exactly — for *randomized* shape families, not
    just the shipped configs."""

    family_strategy = st.builds(
        lambda shapes, order, dep: [
            build_test(get_shape(shape), order,
                       dep=dep if dep != "po" else "po",
                       fence=None,
                       name=f"{shape.replace('+', 'p')}{i:03d}")
            for i, shape in enumerate(shapes)
        ],
        shapes=st.lists(st.sampled_from(SHAPES), min_size=1, max_size=6),
        order=st.sampled_from(ORDERS),
        dep=st.sampled_from(DEPS),
    )

    @relaxed_settings
    @given(family=family_strategy, n=st.integers(min_value=1, max_value=4))
    def test_round_trip_preserves_digests_under_shard(self, family, n):
        import tempfile

        from repro.tools.sources import SuiteSource, write_suite

        digests = [t.digest() for t in family]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/suite.jsonl"
            assert write_suite(family, path) == len(family)
            source = SuiteSource(path)
            assert [t.digest() for t in source] == digests
            # the n shards partition the suite exactly, digests intact
            sharded = [
                [t.digest() for t in source.shard(k, n)] for k in range(n)
            ]
            assert sorted(d for shard in sharded for d in shard) == \
                   sorted(digests)
            for k, shard in enumerate(sharded):
                assert shard == digests[k::n]

    @relaxed_settings
    @given(family=family_strategy,
           torn=st.text(alphabet="{\"abc:,", min_size=1, max_size=20))
    def test_torn_final_line_is_tolerated(self, family, torn):
        """A crashed writer's partial last line never poisons a suite —
        the same contract CampaignStore torn lines have."""
        import json as json_mod
        import tempfile

        from repro.tools.sources import SuiteSource, write_suite

        try:
            json_mod.loads(torn)
            valid = True
        except ValueError:
            valid = False
        if valid:
            return  # only torn (invalid) tails are interesting
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/suite.jsonl"
            write_suite(family, path)
            with open(path, "a") as handle:
                handle.write(torn)  # no trailing newline: a torn write
            reloaded = [t.digest() for t in SuiteSource(path)]
            assert reloaded == [t.digest() for t in family]


# --------------------------------------------------------------------------- #
# the C-litmus front end on damaged input
# --------------------------------------------------------------------------- #
def _paper_sources():
    from repro.papertests import all_tests

    return [print_c_litmus(t) for t in all_tests()]


#: characters a mutation inserts: C punctuation, digits (``01`` is not a
#: C literal), letters (misspelt memory orders and calls) and newlines
_INSERTABLE = "{}()[];,=*&+-/\\~!<>:.#_0123456789xabcdeqrlmoyz \n"


class TestCLitmusParserFuzz:
    """Truncating, deleting from or inserting into a printed paper test
    either still parses or raises :class:`ParseError` pointing at a line
    of the damaged source — never another exception, never line 0."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_source_parses_or_raises_parse_error(self, data):
        from repro.core.errors import ParseError
        from repro.lang.parser import parse_c_litmus

        sources = _paper_sources()
        source = data.draw(st.sampled_from(sources), label="source")
        edit = data.draw(st.sampled_from(("truncate", "delete", "insert")))
        at = data.draw(st.integers(0, len(source)), label="at")
        if edit == "truncate":
            damaged = source[:at]
        elif edit == "delete":
            width = data.draw(st.integers(1, 12), label="width")
            damaged = source[:at] + source[at + width:]
        else:
            text = data.draw(
                st.text(alphabet=_INSERTABLE, min_size=1, max_size=4),
                label="text",
            )
            damaged = source[:at] + text + source[at:]
        try:
            parse_c_litmus(damaged, name="damaged.litmus")
        except ParseError as exc:
            assert 1 <= exc.line <= max(1, len(damaged.splitlines())), (
                exc.render()
            )
