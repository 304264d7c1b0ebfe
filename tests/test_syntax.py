import pytest
from hypothesis import given, strategies as st

from ordcalc import core, parse, render
from ordcalc.syntax import HEADS, ParseError, render_set
from pools import closed, opened


def test_zero_forms():
    assert parse("buchholz", "0") is parse("poly", "0")
    assert render(parse("xi", "0")) == "0"


def test_whitespace_insensitive():
    a = parse("poly", "th( O^(0) # O^(-1) )")
    b = parse("poly", "th(O^(0)#O^(-1))")
    assert a is b


def test_sum_canonical_order():
    t = parse("buchholz", "O_2 # O_1 # w^(0)")
    assert render(t) == render(parse("buchholz", "w^(0) # O_1 # O_2"))


def _rows(*cases):
    """Parametrize over (system, text, message, span), each case named
    system-text."""
    return pytest.mark.parametrize(
        "system,text,message,span", cases, ids=[f"{c[0]}-{c[1]}" for c in cases]
    )


def _rejected(system, text, message, span):
    with pytest.raises(ParseError) as exc:
        parse(system, text)
    assert (exc.value.message, tuple(exc.value.span)) == (message, span)


@_rows(
    ("buchholz", "O^(0)", "head 'O^' is not part of system 'buchholz'", (0, 3)),
    ("buchholz", "th(0)", "head 'th' is not part of system 'buchholz'", (0, 3)),
    ("poly", "O_1", "head 'O_' is not part of system 'poly'", (0, 2)),
    ("poly", "Xi^(0)(0)", "head 'Xi' is not part of system 'poly'", (0, 4)),
    ("xi", "O^(0)", "head 'O^' is not part of system 'xi'", (0, 3)),
    ("xi", "th_1(0)", "head 'th_' is not part of system 'xi'", (0, 3)),
    ("mixed", "O^(0)", "head 'O^' is not part of system 'mixed'", (0, 3)),
    ("mixed", "th(0)", "head 'th' is not part of system 'mixed'", (0, 3)),
    ("mixed", "V.F^(0)(0)", "head 'V.' is not part of system 'mixed'", (0, 2)),
    ("poly", "v.x_1", "head 'v._' is not part of system 'poly'", (0, 4)),
    ("buchholz", "v.x^(0)", "head 'v.^' is not part of system 'buchholz'", (0, 5)),
)
def test_heads_rejected_outside_their_system(system, text, message, span):
    _rejected(system, text, message, span)


@_rows(
    ("poly", "O^(1)", "level must be <= 0, got 1", (3, 4)),
    ("xi", "Xi^(2)(0)", "level must be <= 0, got 2", (4, 5)),
    ("buchholz", "O_0", "subscript must be >= 1, got 0", (2, 3)),
    ("mixed", "OO_0^(0)", "subscript must be >= 1, got 0", (3, 4)),
    ("buchholz", "th_0(0)", "subscript must be >= 1, got 0", (3, 4)),
)
def test_index_ranges_enforced(system, text, message, span):
    _rejected(system, text, message, span)


@_rows(
    ("poly", "v.x", "expected '_' or '^(' after variable name", (3, 3)),
    ("mixed", "v.x  # 0", "expected '_' or '^(' after variable name", (5, 6)),
    (
        "buchholz",
        "th_1( w^(v.x_2) )",
        "collapse with subscript 1 cannot contain a variable with subscript >= 1",
        (0, 17),
    ),
    ("xi", "th(w^(V.F^(0)(0)))", "function variables may not occur inside a collapse body", (0, 18)),
    ("poly", "#", "expected a term head", (0, 1)),
    ("xi", "w^( )", "expected a term head", (4, 5)),
)
def test_malformed_heads_rejected_with_message_and_span(system, text, message, span):
    _rejected(system, text, message, span)


def test_variable_scope_rule_rejected_with_span():
    with pytest.raises(ParseError) as exc:
        parse("buchholz", "th_1(v.x_1)")
    assert exc.value.span.start == 0
    parse("buchholz", "th_2(v.x_1)")  # in scope


def test_error_span_points_at_token():
    with pytest.raises(ParseError) as exc:
        parse("poly", "th(O^(0) # )")
    assert exc.value.span.start == 11


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("poly", "0 # w^(0)")
    with pytest.raises(ParseError):
        parse("poly", "w^(0) w^(0)")


def test_function_variable_not_under_collapse():
    with pytest.raises(ParseError):
        parse("xi", "th(V.F^(0)(0))")


@pytest.mark.parametrize("system", ["buchholz", "poly", "xi", "mixed"])
@given(data=st.data())
def test_roundtrip_closed(system, data):
    t = data.draw(st.sampled_from(closed(system)))
    assert parse(system, render(t)) is t


@pytest.mark.parametrize("system", ["buchholz", "poly", "xi", "mixed"])
@given(data=st.data())
def test_roundtrip_open(system, data):
    t = data.draw(st.sampled_from(opened(system, max_size=4)))
    assert parse(system, render(t)) is t


def test_render_set_deterministic():
    terms = {parse("poly", "O^(0)"), parse("poly", "w^(0)")}
    assert render_set(terms) == "{w^(0), O^(0)}"
    # a function entry carries its variable, as `ordcalc k` prints it
    entries = {core.KItem(parse("xi", "w^(v.k^(0))"), "k"), core.KItem(parse("xi", "Xi^(0)(0)"))}
    assert render_set(entries) == "{w^(v.k^(0)) [k], Xi^(0)(0)}"


def test_head_table_agrees_with_core():
    """Every term class but Sum has one row, and a row's systems are exactly
    those whose bit its smallest instance carries."""
    classes = [c.__name__ for c in core.Term.__subclasses__() if c is not core.Sum]
    assert sorted(head.cls.__name__ for head in HEADS) == sorted(classes)
    smallest = {"n": 1, "j": 0, "x": "x", "F": "X", "t": core.ZERO}
    for head in HEADS:
        t = head.make(*(smallest[f] for f in head.fields))
        assert type(t) is head.cls
        bits = {s for s, bit in core.SYSTEM_NAMES.items() if t.mask & bit}
        assert set(head.systems) == bits, head.cls.__name__
        for system in head.systems:
            assert parse(system, render(t)) is t
