"""Parser and evaluator for the measurement-model DSL."""

import math

import numpy as np
import pytest

from uncertlab.errors import DomainError, EvaluationError, ParseError
from uncertlab.expr import (FUNCTIONS, MAX_HEIGHT, MAX_NESTING, Binary,
                            Const, Unary, Var, affinity, evaluate,
                            evaluate_batch, parse_model)

ABC = ("a", "b", "c", "x", "y")


class TestParsing:
    def test_variables_collected_in_first_appearance_order(self):
        m = parse_model("X2 + X1 * X2 - X9")
        assert m.variables == ("X2", "X1", "X9")

    def test_declared_names_extend_the_alphabet(self):
        m = parse_model("b + a", declared=("a", "b", "c"))
        assert m.variables == ("b", "a")

    def test_undeclared_name_rejected(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_model("a + q", declared=("a", "b"))

    def test_xdigits_names_need_no_declaration(self):
        assert parse_model("X1 * X2").variables == ("X1", "X2")

    def test_unknown_function_lists_known_ones(self):
        with pytest.raises(ParseError, match="sin"):
            parse_model("sinh(X1)")

    def test_error_carries_offset(self):
        with pytest.raises(ParseError, match=r"offset"):
            parse_model("1 + * 2")

    def test_unexpected_character_named_at_its_offset(self):
        with pytest.raises(ParseError) as err:
            parse_model("X1 @ 2")
        assert str(err.value) == "unexpected character '@' (offset 3)"
        assert err.value.position == 3

    @pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400, "2e308"])
    def test_number_outside_double_range(self, literal):
        with pytest.raises(ParseError, match="outside the double range") as err:
            parse_model(f"X1 + {literal}")
        assert err.value.position == 5

    def test_number_underflowing_to_zero_is_kept(self):
        assert evaluate(parse_model("X1 + 1e-999"), {"X1": 2.0}) == 2.0

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_model("(X1 + X2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_model("X1 + X2 )")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_model("   ")

    def test_power_requires_constant_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_model("X1 ^ X2")

    def test_power_allows_constant_arithmetic_exponent(self):
        m = parse_model("x ^ (1 + 2)", declared=ABC)
        assert evaluate(m, {"x": 2.0}) == 8.0


class TestDepthBounds:
    # every evaluator recurses over the tree: past the bounds a model is
    # a ParseError at the offending token, not a RecursionError
    @pytest.mark.parametrize("opening", ["(", "sin(", "-"])
    def test_nesting_bound(self, opening):
        def nested(levels):
            closing = ")" * (levels - 1) if opening != "-" else ""
            return opening * (levels - 1) + "X1" + closing

        assert math.isfinite(evaluate(parse_model(nested(MAX_NESTING)),
                                      {"X1": 0.5}))
        with pytest.raises(ParseError, match="nested more than") as err:
            parse_model(nested(MAX_NESTING + 1))
        assert err.value.position == len(opening) * MAX_NESTING

    def test_exponent_chain_is_nesting(self):
        with pytest.raises(ParseError, match="nested more than"):
            parse_model(" ^ ".join(["X1"] + ["1"] * 600))

    def test_height_bound(self):
        at_bound = " + ".join(["X1"] * MAX_HEIGHT)
        assert evaluate(parse_model(at_bound), {"X1": 1.0}) == MAX_HEIGHT
        with pytest.raises(ParseError, match="levels high") as err:
            parse_model(at_bound + " + X1")
        assert err.value.position == len(at_bound) + 1    # the last "+"

    def test_height_counts_every_kind_of_node(self):
        # a product chain, a function over it and a sum on top
        def model(factors):
            return "sin(" + " * ".join(["X1"] * factors) + ") + X1"

        assert evaluate(parse_model(model(MAX_HEIGHT - 2)), {"X1": 1.0}) \
            == math.sin(1.0) + 1.0
        text = model(MAX_HEIGHT - 1)
        with pytest.raises(ParseError, match="levels high") as err:
            parse_model(text)
        assert err.value.position == text.rindex("+")


class TestPrecedenceAndAssociativity:
    # each case: text, assignment, expected value
    CASES = [
        ("1 + 2 * 3", {}, 7.0),
        ("(1 + 2) * 3", {}, 9.0),
        ("2 - 3 - 4", {}, -5.0),
        ("8 / 4 / 2", {}, 1.0),
        ("-2 ^ 2", {}, -4.0),
        ("2 ^ 3 ^ 2", {}, 512.0),
        ("2 * x ^ 2", {"x": 3.0}, 18.0),
        ("-x ^ 2", {"x": 2.0}, -4.0),
        ("1 - -2", {}, 3.0),
    ]

    @pytest.mark.parametrize("text,assignment,expected", CASES)
    def test_value(self, text, assignment, expected):
        m = parse_model(text, declared=ABC)
        assert evaluate(m, assignment) == pytest.approx(expected,
                                                        rel=1e-15, abs=0.0)

    def test_random_expressions_match_python(self):
        # the generator emits only numbers, names, + - * /, parentheses
        # and sin, so Python's own grammar is an independent oracle
        rng = np.random.default_rng(2024)
        names = ("a", "b", "c")
        ops = ("+", "-", "*", "/")
        env = {"a": 0.7, "b": 1.3, "c": 2.9}
        for _ in range(200):
            n_terms = int(rng.integers(2, 6))
            parts = []
            for i in range(n_terms):
                atom = rng.choice(
                    [f"{rng.uniform(0.1, 9):.3f}",
                     str(rng.choice(names)),
                     f"sin({rng.choice(names)})",
                     f"({rng.choice(names)} + {rng.uniform(0.1, 9):.3f})"])
                parts.append(str(atom))
                if i + 1 < n_terms:
                    parts.append(str(rng.choice(ops)))
            text = " ".join(parts)
            expected = eval(text, {"sin": math.sin}, dict(env))
            assert evaluate(parse_model(text, declared=names),
                            env) == expected, text


class TestEvaluation:
    def test_function_values_match_math_module(self):
        m = parse_model("sin(x) + cos(x) + exp(x) + ln(x) + sqrt(x)",
                        declared=ABC)
        x = 1.7
        want = (math.sin(x) + math.cos(x) + math.exp(x) + math.log(x)
                + math.sqrt(x))
        assert evaluate(m, {"x": x}) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_missing_assignment_is_an_error(self):
        with pytest.raises(EvaluationError, match="no value"):
            evaluate(parse_model("X1 + X2"), {"X1": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse_model("1 / X1"), {"X1": 0.0})

    def test_ln_of_nonpositive(self):
        with pytest.raises(DomainError):
            evaluate(parse_model("ln(X1)"), {"X1": -1.0})

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse_model("sqrt(X1)"), {"X1": -1e-9})

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(DomainError):
            evaluate(parse_model("X1 ^ 0.5"), {"X1": -2.0})

    def test_integer_power_of_negative_base_is_fine(self):
        assert evaluate(parse_model("X1 ^ 3"), {"X1": -2.0}) == -8.0

    @pytest.mark.parametrize("text,at,want", [
        ("X1 ^ 309", -10.0, -math.inf),
        ("X1 ^ 3", -1e200, -math.inf),
        ("X1 ^ -3", -1e-170, -math.inf),
        ("X1 ^ 4", -1e200, math.inf),
        ("-(X1 ^ 3)", -1e200, math.inf),
    ])
    def test_overflowing_power_keeps_its_sign(self, text, at, want):
        # as numpy's batch power does: an odd power of a negative base
        # overflows to -inf
        m = parse_model(text)
        assert evaluate(m, {"X1": at}) == want
        assert evaluate_batch(m, {"X1": np.array([at])}).tolist() == [want]

    @pytest.mark.parametrize("text,at", [
        ("sin(X1 * X2)", {"X1": 1e200, "X2": 1e200}),
        ("sin(exp(X1))", {"X1": 800.0}),
        ("cos(X1 / X2)", {"X1": 1.0, "X2": 1e-320}),
    ])
    def test_trig_of_infinite_value(self, text, at):
        with pytest.raises(DomainError, match="of infinite value inf"):
            evaluate(parse_model(text), at)

    def test_zero_to_zero_is_one(self):
        # convention consistent with float pow
        assert evaluate(parse_model("X1 ^ 0"), {"X1": 0.0}) == 1.0


class TestBatchEvaluation:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(77)
        m = parse_model("sin(a) * b + exp(-a) / (b + 2)", declared=ABC)
        a = rng.uniform(-2, 2, size=500)
        b = rng.uniform(0.5, 3, size=500)
        vals = evaluate_batch(m, {"a": a, "b": b})
        assert np.isfinite(vals).all()
        want = np.array([evaluate(m, {"a": ai, "b": bi})
                         for ai, bi in zip(a, b)])
        np.testing.assert_allclose(vals, want, rtol=1e-14)

    def test_invalid_rows_come_back_nonfinite_not_raised(self):
        m = parse_model("ln(X1)")
        x = np.array([1.0, -1.0, 2.0, 0.0])
        vals = evaluate_batch(m, {"X1": x})
        assert np.isfinite(vals).tolist() == [True, False, True, False]

    def test_constant_expression_broadcasts(self):
        m = parse_model("2 + 3", declared=("x",))
        vals = evaluate_batch(m, {"x": np.zeros(7)}, n=7)
        assert vals.shape == (7,)
        assert (vals == 5.0).all()


def _references_variables(node):
    if isinstance(node, Var):
        return True
    if isinstance(node, Unary):
        return _references_variables(node.arg)
    if isinstance(node, Binary):
        return (_references_variables(node.lhs)
                or _references_variables(node.rhs))
    return False


def _is_affine_by_rescan(node):
    """The structural affinity test that re-scanned every subtree for
    variables at each level: the reference for the one-pass walk
    ``affinity``."""
    if isinstance(node, Var) or not _references_variables(node):
        return True
    if isinstance(node, Unary):
        return node.fn == "neg" and _is_affine_by_rescan(node.arg)
    if node.op in ("+", "-"):
        return (_is_affine_by_rescan(node.lhs)
                and _is_affine_by_rescan(node.rhs))
    if node.op == "*" and not _references_variables(node.lhs):
        return _is_affine_by_rescan(node.rhs)
    if node.op in ("*", "/") and not _references_variables(node.rhs):
        return _is_affine_by_rescan(node.lhs)
    return False


class TestAffinity:
    def _tree(self, rng, depth):
        # leaves are mostly constants so that variable-free subtrees,
        # the walk's third answer, are common at every level
        if depth == 0 or rng.random() < 0.25:
            return (Var(f"X{rng.integers(1, 4)}") if rng.random() < 0.4
                    else Const(float(rng.integers(-3, 4))))
        if rng.random() < 0.25:
            fn = "neg" if rng.random() < 0.6 else str(
                rng.choice(sorted(FUNCTIONS)))
            return Unary(fn, self._tree(rng, depth - 1))
        return Binary(str(rng.choice(list("+-*/^"))),
                      self._tree(rng, depth - 1), self._tree(rng, depth - 1))

    def test_one_pass_walk_agrees_with_the_rescan(self):
        rng = np.random.default_rng(27)
        trees = [self._tree(rng, int(rng.integers(1, 8)))
                 for _ in range(3000)]
        verdicts = [affinity(t) < 2 for t in trees]
        assert verdicts == [_is_affine_by_rescan(t) for t in trees]
        # 0 exactly for the trees that name no variable
        assert ([affinity(t) == 0 for t in trees]
                == [not _references_variables(t) for t in trees])
        # both answers are well represented
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_long_sum_is_affine(self):
        text = " + ".join(f"{i} * X{i % 7 + 1}" for i in range(400))
        assert affinity(parse_model(text).root) == 1
        assert affinity(parse_model(text + " + X1 * X2").root) == 2

    @pytest.mark.parametrize("text", ["2 ^ X1", "2 ^ (1 + -X1)",
                                      "X2 ^ sin(X1)"])
    def test_exponent_with_a_variable_is_refused(self, text):
        with pytest.raises(ParseError, match="constant expression"):
            parse_model(text)
