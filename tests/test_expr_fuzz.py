"""Fuzz the expression grammar through the CLI.

Whatever the expression, ``ringlab prop`` must end in exit 0 (holds), 1
(fails, with ``"holds": false`` on stdout) or 2 (a usage, parse or size
error, with nothing on stdout), and no exception may escape ``cli.main``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from ringlab import cli
from ringlab import constructions as cons
from ringlab import exprs

# integer literals as text: int() and str() refuse more than 4300 digits
HUGE = ("1000000", str(2 ** 64), "1" + "0" * 30, "9" * 5000)
# sampled_from draws uniformly: about one integer in eleven is huge
INTS = st.sampled_from([str(i) for i in range(10)] * 10 + list(HUGE))
LABELS = ("0", "1", "[1 0; 0 1]", "x")
MISSING = "no/such/file"


@pytest.fixture(scope="module")
def bimodule_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "z2.bim"
    path.write_text(cons.serialize_bimodule(
        cons.ring_bimodule(cons.zmod(2)), 2, 2))
    return str(path)


def _mix(*strategies):
    """Draw from one of the strategies, each as likely as the others."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


def _call(name, *args):
    return f"{name}({', '.join(args)})"


def _rings(files):
    small = st.integers(1, 9).map(lambda n: f"Z({n})")
    # M(2, Z(2)) is the smallest ring that is not NJ-symmetric
    known = st.sampled_from(["M(2, Z(2))", "T(2, Z(2))", "WSC(0)"])
    leaves = _mix(small, known, known, st.builds(lambda n: _call("Z", n), INTS),
                  st.builds(lambda n: _call("WSC", n), INTS))
    ideals = st.one_of(
        st.sampled_from(["J", "Nstar", "Nlower", "K"]),
        st.lists(INTS, max_size=3).map(lambda g: _call("gen", *g)))
    elements = st.one_of(INTS, st.sampled_from(LABELS).map(json.dumps))
    paths = st.sampled_from(files).map(json.dumps)
    maps = st.one_of(st.sampled_from(["id", "swap", "rot"]), paths)

    def extend(rings):
        return st.one_of(
            st.builds(_call, st.sampled_from(["M", "T", "CD"]), INTS, rings),
            st.builds(_call, st.just("Prod"), rings, rings),
            st.builds(_call, st.just("Quo"), rings, ideals),
            st.builds(_call, st.just("Corner"), rings, elements),
            st.builds(_call, st.just("Sub"), rings,
                      st.lists(INTS, max_size=3).map(
                          lambda xs: "[" + ", ".join(xs) + "]")),
            st.builds(_call, st.just("Tri"), rings, rings, paths),
            st.builds(_call, st.just("Morita"), rings, rings, paths, paths),
            st.builds(_call, st.just("Dorroh"), rings, paths),
            st.builds(_call, st.just("SkewTrunc"), rings, maps, INTS))
    return st.recursive(leaves, extend, max_leaves=3)


def _malformed(well_formed):
    """A well-formed expression with one character deleted, inserted or
    replaced, or cut short."""
    junk = st.sampled_from(list('(),[]"0123456789 ZMT-x\\é'))

    def mutate(args):
        text, pos, ch, how = args
        pos %= len(text) + 1
        if how == "delete":
            return text[:pos] + text[pos + 1:]
        if how == "insert":
            return text[:pos] + ch + text[pos:]
        if how == "replace":
            return text[:pos] + ch + text[pos + 1:]
        return text[:pos]
    return st.tuples(well_formed, st.integers(0, 200), junk,
                     st.sampled_from(["delete", "insert", "replace", "cut"])
                     ).map(mutate)


def _prop(expr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["prop", "nj_symmetric", expr, "--json",
                         "--no-cache", "--max-order", "64"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_expression_ends_in_a_defined_exit_code(bimodule_path, data):
    rings = _rings([bimodule_path, MISSING])
    expr = data.draw(_mix(*[rings] * 6, *[_malformed(rings)] * 3,
                          st.text(max_size=12)), label="expr")
    code, out, err = _prop(expr)
    event(f"exit {code}")
    assert code in (0, 1, 2), (expr, code, err)
    if code == 2:
        assert out == "", (expr, out)
        assert err.startswith(("error: ", "usage: ")), (expr, err)
    else:
        assert json.loads(out)["holds"] is (code == 0), (expr, out)


@pytest.mark.parametrize("expr", [
    "Z(99999999999999999999)", "M(1000000000000, Z(2))",
    "CD(1000000000000, Z(3))", "T(1000, Z(1))",
    "SkewTrunc(Z(2), id, 1000000000000)", "WSC(1000000000000)",
    "Z(" + "9" * 5000 + ")"])
def test_huge_arguments_are_size_errors(expr):
    code, out, err = _prop(expr)
    assert code == 2 and out == "", err
    assert "max order 64" in err or "too long" in err, err


def test_integer_literal_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(exprs.ExprError) as e:
        exprs.parse("Z(" + "9" * 5000 + ")")
    assert e.value.offset == 3


def test_nesting_past_the_depth_limit_is_a_parse_error():
    deep = "Prod(" * 1200 + "Z(1)" + ", Z(1))" * 1200
    code, out, err = _prop(deep)
    assert code == 2 and out == ""
    assert f"nested deeper than {exprs.MAX_DEPTH}" in err

    def nested(levels):             # levels - 1 products around Z(1)
        return "Prod(" * (levels - 1) + "Z(1)" + ", Z(1))" * (levels - 1)
    assert exprs.build(nested(exprs.MAX_DEPTH)).order == 1
    with pytest.raises(exprs.ExprError):
        exprs.parse(nested(exprs.MAX_DEPTH + 1))
