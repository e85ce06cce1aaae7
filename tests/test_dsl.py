import numpy as np
import pytest

from conftest import max_abs, random_series, random_signal
from volterra.dsl import Compose, Name, Product, Sum, build, parse, pretty
from volterra.errors import ParseError, ResolutionError
from volterra.evaluation import eval_time
from volterra.kernels import identity_series, zero_pad


def test_parse_explicit_composition():
    assert parse("(C <| B) <| A") == Compose(Compose(Name("C"), Name("B")), Name("A"))


def test_parse_precedence_sum_product():
    assert parse("A + B * C") == Sum(Name("A"), Product(Name("B"), Name("C")))


def test_parse_composition_left_associative():
    assert parse("C <| B <| A") == Compose(Compose(Name("C"), Name("B")), Name("A"))


def test_parse_composition_binds_tightest():
    assert parse("A * B <| C") == Product(Name("A"), Compose(Name("B"), Name("C")))


def test_parse_whitespace_insensitive():
    assert parse(" A+B *C ") == parse("A + B * C")


def test_parse_error_carries_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse("A + ")
    assert err.value.offset == 4
    assert "identifier" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse("A B")
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse("A < B")
    assert err.value.offset == 2


@pytest.mark.parametrize(
    "text, offset, expected",
    [
        # after an operand only an operator or what closes the operand can follow
        ("A | B", 2, {"'+'", "'*'", "'<|'", "end"}),
        ("(A B", 3, {"'+'", "'*'", "'<|'", "')'"}),
    ],
)
def test_parse_error_expects_what_can_follow_an_operand(text, offset, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset
    assert err.value.expected == expected


def random_tree(rng, depth):
    names = ["A", "B", "C", "D"]
    if depth == 0 or rng.random() < 0.3:
        return Name(names[rng.integers(len(names))])
    ctor = (Sum, Product, Compose)[rng.integers(3)]
    return ctor(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def all_trees(depth, names=("A", "B")):
    out = [Name(n) for n in names]
    if depth == 0:
        return out
    subs = all_trees(depth - 1, names)
    for ctor in (Sum, Product, Compose):
        out.extend(ctor(l, r) for l in subs for r in subs)
    return out


def test_pretty_parse_round_trip_exhaustive_shallow():
    for tree in all_trees(2):
        assert parse(pretty(tree)) == tree


def test_pretty_parse_round_trip_random_trees(rng):
    for _ in range(200):
        tree = random_tree(rng, 4)
        assert parse(pretty(tree)) == tree


def test_pretty_parse_round_trip_reparses_text(rng):
    for _ in range(100):
        text = pretty(random_tree(rng, 3))
        assert pretty(parse(text)) == text


def test_build_identity_unit(rng):
    A = random_series(2, 2, rng)
    got = build(parse("Id <| A"), {"Id": identity_series(), "A": A}, max_order=None)
    s = random_signal(10, rng)
    assert max_abs(eval_time(got, s) - eval_time(A, s)) <= 1e-10


def test_build_sum_doubles(rng):
    A = random_series(2, 2, rng)
    got = build(parse("A + A"), {"A": A})
    for j in A.orders():
        assert max_abs(got.kernel_of_order(j).data - 2 * A.kernels[j].data) < 1e-14


def test_build_association_orders_agree(rng):
    A = random_series(2, 2, rng)
    B = random_series(2, 2, rng)
    C = random_series(2, 2, rng)
    bindings = {"A": A, "B": B, "C": C}
    left = build(parse("(C <| B) <| A"), bindings, max_order=None)
    right = build(parse("C <| (B <| A)"), bindings, max_order=None)
    for j in set(left.orders()) | set(right.orders()):
        lk, rk = left.kernel_of_order(j), right.kernel_of_order(j)
        M = max(k.memory for k in (lk, rk) if k is not None)
        ld = zero_pad(lk, M).data if lk else np.zeros((M,) * j)
        rd = zero_pad(rk, M).data if rk else np.zeros((M,) * j)
        assert max_abs(ld - rd) <= 1e-8


def test_build_unbound_name(rng):
    with pytest.raises(ResolutionError):
        build(parse("A + B"), {"A": random_series(1, 2, rng)})
