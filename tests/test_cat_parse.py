"""The Cat parser on damaged input.

In the style of the asm and C-litmus front-end fuzzers: truncating,
deleting from or inserting into a shipped model source either still
parses or raises :class:`ParseError` whose line and column point inside
the damaged source — never another exception, never an unknown or
out-of-range position.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cat import list_models
from repro.cat.parser import parse
from repro.cat.registry import get_source
from repro.core.errors import ParseError

#: every model source the registry ships
SOURCES = [get_source(name) for name in list_models()]

#: characters a mutation inserts: Cat operators and postfixes, comment
#: and string delimiters, digits, identifier characters (keywords get
#: misspelt) and newlines
_INSERTABLE = "|&\\;*?~=(),[]{}^+-1\"/._0123456789acdefilnoprstwy \n"


def test_every_shipped_source_parses():
    assert SOURCES
    for source in SOURCES:
        parse(source)


def test_error_position_is_inside_the_input():
    """The end-of-input error points just past the last token."""
    try:
        parse("let a = po |")
    except ParseError as exc:
        assert (exc.line, exc.column) == (1, 13)
    else:  # pragma: no cover - the source is incomplete
        raise AssertionError("truncated model parsed")


def _assert_in_range(exc: ParseError, damaged: str) -> None:
    # the tokenizer counts lines at "\n" only, so split the same way
    lines = damaged.split("\n")
    assert 1 <= exc.line <= len(lines), exc.render()
    assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, exc.render()


class TestCatParserFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_source_parses_or_raises_parse_error(self, data):
        source = data.draw(st.sampled_from(SOURCES), label="source")
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
            parse(damaged, "damaged.cat")
        except ParseError as exc:
            _assert_in_range(exc, damaged)
