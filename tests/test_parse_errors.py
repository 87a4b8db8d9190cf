"""Exact bytes of every kind of parse error, and of the errors ``parse_env``
raises on well-formed text that binds badly.

A message is ``line:col: what``.  Lines are counted by ``\\n`` only; every
other character, whitespace included, is one column.  Two rules decide
which error wins: a character the scanner cannot read is reported wherever
it is in the input, before any grammar error; and at the end of input after
a comment on the last line, the column is where the ``//`` starts.
"""

import pytest

from dsub.environment import DuplicateBinding, SelfReference, UnboundVariable, parse_env
from dsub.syntax import ParseError, parse_term, parse_type

PARSE = {"type": parse_type, "term": parse_term, "env": parse_env}


def _nest(depth: int) -> str:
    return "{A: Bot .. " * depth + "Top" + "}" * depth


PINNED = (
    # unexpected characters, reported before any grammar error
    ("type", "x.A $", "1:5: unexpected character '$'"),
    ("type", "$", "1:1: unexpected character '$'"),
    ("type", "Top Bot $", "1:9: unexpected character '$'"),
    ("type", "{A: Top .. Top} $ Bot", "1:17: unexpected character '$'"),
    ("type", "x / y", "1:3: unexpected character '/'"),
    ("type", "x.A /", "1:5: unexpected character '/'"),
    ("type", "1x.A", "1:1: unexpected character '1'"),
    ("type", "\u00b2x.A", "1:1: unexpected character '\u00b2'"),
    ("type", "x.A\u0301", "1:4: unexpected character '\u0301'"),
    ("term", "{A = Top ]", "1:10: unexpected character ']'"),
    ("term", "lam(x: Top) " * 401 + "x #", "1:4815: unexpected character '#'"),
    ("env", "x : Top ; $", "1:11: unexpected character '$'"),
    # trailing input
    ("type", "Top Bot", "1:5: unexpected trailing input 'Bot'"),
    ("type", "x.A_ \u00e9.B", "1:6: unexpected trailing input '\u00e9'"),
    ("term", "x y z", "1:5: unexpected trailing input 'z'"),
    ("term", "x X", "1:3: unexpected trailing input 'X'"),
    ("term", "lam(x: Top) x // trailing\nlet", "2:1: unexpected trailing input 'let'"),
    # CRLF, tabs and Unicode whitespace: one column each, only \n starts a line
    ("type", "{A: Top\r\n.. $}", "2:4: unexpected character '$'"),
    ("type", "{A: Top\r\n.. Bot} Top", "2:9: unexpected trailing input 'Top'"),
    ("type", "\tx.A\t1", "1:6: unexpected character '1'"),
    ("type", "\t{A:\tTop ..\tTop}\tx", "1:18: unexpected trailing input 'x'"),
    ("type", "\u00a0Top\u2003Bot", "1:6: unexpected trailing input 'Bot'"),
    ("type", "\u3000{A:\u00a0Bot .. \u2028x}", "1:15: expected '.', found '}'"),
    ("type", "{A: Top ..\x0bTop}\x0c\x85$", "1:18: unexpected character '$'"),
    ("env", "x : Top ;\r\n\ty : %", "2:6: unexpected character '%'"),
    # end of input, after comments
    ("type", "{A: Top .. // c", "1:12: expected a type"),
    ("type", "{A: Top .. // c\n", "2:1: expected a type"),
    ("type", "{A: Top .. Bot // c\n", "2:1: expected '}', found 'end of input'"),
    ("type", "// only a comment", "1:1: expected a type"),
    ("type", "", "1:1: expected a type"),
    ("type", "   ", "1:4: expected a type"),
    ("term", "let x = y in // c", "1:14: expected a term"),
    ("env", "x : Top ; y : Bot // c", "1:19: expected ';', found 'end of input'"),
    ("env", "x : Top ; // c\ny : Bot", "2:8: expected ';', found 'end of input'"),
    # the grammar
    ("type", "{a: Top .. Top}", "1:2: expected 'label', found 'a'"),
    ("type", "{Top: Top .. Top}", "1:2: expected 'label', found 'Top'"),
    ("type", "all(X: Top) Top", "1:5: expected 'ident', found 'X'"),
    ("type", "all(in: Top) Top", "1:5: expected 'ident', found 'in'"),
    ("type", "all x: Top) Top", "1:5: expected '(', found 'x'"),
    ("type", "all(x Top) Top", "1:7: expected ':', found 'Top'"),
    ("type", "all(x: Top Top", "1:12: expected ')', found 'Top'"),
    ("type", "x.a", "1:3: expected 'label', found 'a'"),
    ("type", "x..A", "1:2: expected '.', found '..'"),
    ("type", "x", "1:2: expected '.', found 'end of input'"),
    ("type", "x\u00b2", "1:3: expected '.', found 'end of input'"),
    ("type", "Foo.A", "1:1: expected a type"),
    ("type", "{A Top .. Top}", "1:4: expected ':', found 'Top'"),
    ("type", "{A: Top . Top}", "1:9: expected '..', found '.'"),
    ("type", "{A: Top ... Top}", "1:11: expected a type"),
    ("type", "{A: Top .. Top", "1:15: expected '}', found 'end of input'"),
    ("type", "{A: Top .. Top)", "1:15: expected '}', found ')'"),
    ("term", "let x = y z", "1:12: expected 'in', found 'end of input'"),
    ("term", "let x = y z in", "1:15: expected a term"),
    ("term", "lam(x: Top)", "1:12: expected a term"),
    ("term", "lam x: Top) x", "1:5: expected '(', found 'x'"),
    ("term", "lam(X: Top) x", "1:5: expected 'ident', found 'X'"),
    ("term", "{A = Top", "1:9: expected '}', found 'end of input'"),
    ("term", "{a = Top}", "1:2: expected 'label', found 'a'"),
    ("term", "let in = x in x", "1:5: expected 'ident', found 'in'"),
    ("term", "let x y in x", "1:7: expected '=', found 'y'"),
    ("term", "{A: Top .. Top}", "1:3: expected '=', found ':'"),
    ("term", "Top", "1:1: expected a term"),
    ("term", "", "1:1: expected a term"),
    ("env", "x : Top ;\ny : x.A", "2:8: expected ';', found 'end of input'"),
    ("env", "x : Top", "1:8: expected ';', found 'end of input'"),
    ("env", "X : Top ;", "1:1: expected 'ident', found 'X'"),
    ("env", "in : Top ;", "1:1: expected 'ident', found 'in'"),
    ("env", "x Top ;", "1:3: expected ':', found 'Top'"),
    ("env", "x : Top ;; y : Bot ;", "1:10: expected 'ident', found ';'"),
    # nesting: 401 levels are refused at the first token of the 401st
    ("type", _nest(401), "1:4405: input is nested more than 400 levels deep"),
    ("type", "all(x: Top) " * 401 + "Top", "1:4808: input is nested more than 400 levels deep"),
    ("type", _nest(400) + " $", "1:4805: unexpected character '$'"),
    ("type", _nest(401) + " $", "1:4817: unexpected character '$'"),
    ("term", "let x = y in " * 401 + "x", "1:5209: input is nested more than 400 levels deep"),
    ("term", "{B = " + _nest(400) + "}", "1:4399: input is nested more than 400 levels deep"),
    ("term", "lam(x: Top) " * 401 + "x", "1:4808: input is nested more than 400 levels deep"),
    ("env", "x : " + _nest(401) + " ;", "1:4409: input is nested more than 400 levels deep"),
)


@pytest.mark.parametrize("kind, text, message", PINNED)
def test_parse_error_message_is_pinned(kind, text, message):
    with pytest.raises(ParseError) as exc:
        PARSE[kind](text)
    assert str(exc.value) == message
    line, col = message.split(":")[:2]
    assert (exc.value.line, exc.value.col) == (int(line), int(col))


@pytest.mark.parametrize(
    "text, error, message",
    (
        ("x : Top ; x : Bot ;", DuplicateBinding, "variable 'x' is already bound"),
        ("x : x.A ;", SelfReference, "variable 'x' occurs free in its own type"),
        ("x : y.A ;", UnboundVariable, "type mentions unbound variable(s): y"),
        ("x : {A: Bot .. Top} ;\ny : all(z: w.B) {A: v.A .. x.A} ;", UnboundVariable,
         "type mentions unbound variable(s): v, w"),
    ),
)
def test_parse_env_binding_error_is_pinned(text, error, message):
    with pytest.raises(error) as exc:
        parse_env(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "kind, text",
    (
        ("type", "{A: Bot .. Top}\n  // c"),
        ("type", "x.A\u00bd"),
        ("term", "x // c"),
        ("env", "x : Top ; y : x.A ;\n// c"),
        ("env", ""),
    ),
)
def test_parse_accepts_edge_inputs(kind, text):
    PARSE[kind](text)
