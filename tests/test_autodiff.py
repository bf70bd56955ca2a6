"""Exact forward-mode derivatives of parsed models.

The oracle is mpmath.diff at 50 digits on the same expressions, so
agreement to 1e-10 relative means the truncated-jet arithmetic carries
true derivatives, not finite-difference approximations.
"""

import math

import mpmath
import numpy as np
import pytest

from uncertlab.autodiff import _MONOMIALS, _mul, derivatives
from uncertlab.errors import DomainError
from uncertlab.expr import evaluate, evaluate_batch, parse_model

mpmath.mp.dps = 50

# model text, mpmath lambda, variable names, evaluation points
MODELS = [
    ("X1 * X2", lambda a, b: a * b, ("X1", "X2"),
     [(2.0, 3.0), (-1.5, 0.7)]),
    ("X1 ^ 2", lambda a: a ** 2, ("X1",), [(0.0,), (1.3,), (-2.0,)]),
    ("sin(X1) * exp(X2)", lambda a, b: mpmath.sin(a) * mpmath.exp(b),
     ("X1", "X2"), [(0.4, -0.3), (1.1, 0.2)]),
    ("ln(X1) / X2 + sqrt(X2)",
     lambda a, b: mpmath.log(a) / b + mpmath.sqrt(b),
     ("X1", "X2"), [(2.0, 1.5), (0.5, 3.0)]),
    ("X1 ^ 3 - 2 * X1 * X2 ^ 2 + cos(X2)",
     lambda a, b: a ** 3 - 2 * a * b ** 2 + mpmath.cos(b),
     ("X1", "X2"), [(1.0, 2.0), (-0.4, 0.9)]),
    ("X1 ^ -2", lambda a: a ** -2, ("X1",), [(1.5,), (-0.8,)]),
    ("X1 ^ 2.5", lambda a: a ** mpmath.mpf("2.5"), ("X1",), [(1.7,)]),
    ("exp(-(X1 - X2) ^ 2 / 2)",
     lambda a, b: mpmath.exp(-(a - b) ** 2 / 2),
     ("X1", "X2"), [(0.3, 1.1)]),
]


def oracle_partial(fn, point, orders):
    """d^{sum(orders)} fn / prod dx_i^{orders[i]} at point, via mpmath."""
    return float(mpmath.diff(fn, point, orders))


class TestAgainstMpmath:
    @pytest.mark.parametrize("text,fn,names,points", MODELS)
    def test_gradient(self, text, fn, names, points):
        m = parse_model(text)
        for point in points:
            b = derivatives(m, dict(zip(names, point)), order=1,
                            variables=names)
            for i in range(len(names)):
                orders = tuple(1 if j == i else 0 for j in range(len(names)))
                want = oracle_partial(fn, point, orders)
                assert b.grad[i] == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("text,fn,names,points", MODELS)
    def test_hessian(self, text, fn, names, points):
        m = parse_model(text)
        for point in points:
            b = derivatives(m, dict(zip(names, point)), order=2,
                            variables=names)
            n = len(names)
            assert np.allclose(b.hess, b.hess.T)
            for i in range(n):
                for j in range(i, n):
                    orders = [0] * n
                    orders[i] += 1
                    orders[j] += 1
                    want = oracle_partial(fn, point, tuple(orders))
                    assert b.hess[i, j] == pytest.approx(
                        want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("text,fn,names,points", MODELS)
    def test_third_order_contractions(self, text, fn, names, points):
        # third_mixed[i, j] must equal d^3 f / dx_i dx_j^2
        m = parse_model(text)
        for point in points:
            b = derivatives(m, dict(zip(names, point)), order=3,
                            variables=names)
            n = len(names)
            for i in range(n):
                for j in range(n):
                    orders = [0] * n
                    orders[i] += 1
                    orders[j] += 2
                    want = oracle_partial(fn, point, tuple(orders))
                    assert b.third_mixed[i, j] == pytest.approx(
                        want, rel=1e-9, abs=1e-10)


class TestContract:
    def test_order_gates_the_fields(self):
        m = parse_model("X1 * X2")
        at = {"X1": 1.0, "X2": 2.0}
        b1 = derivatives(m, at, order=1)
        assert b1.hess is None and b1.third_mixed is None
        b2 = derivatives(m, at, order=2)
        assert b2.hess is not None and b2.third_mixed is None
        b3 = derivatives(m, at, order=3)
        assert b3.third_mixed is not None

    def test_every_kind_of_value_walks_lhs_first(self):
        # both operands fail: ln on the lhs, division by zero on the rhs
        m = parse_model("ln(X1) / (X2 - X2)")
        at = {"X1": -1.0, "X2": 3.0}
        message = "ln of non-positive value -1.0"
        with pytest.raises(DomainError, match=message):
            evaluate(m, at)
        for order in (1, 3):
            with pytest.raises(DomainError, match=message):
                derivatives(m, at, order=order)
        out = evaluate_batch(m, {"X1": np.array([2.0, -1.0]),
                                 "X2": np.array([3.0, 3.0])})
        assert not np.isfinite(out[1])

    def test_invalid_order_rejected(self):
        m = parse_model("X1")
        with pytest.raises(ValueError):
            derivatives(m, {"X1": 1.0}, order=4)

    def test_value_matches_direct_evaluation(self):
        m = parse_model("sin(X1) + X1 ^ 2")
        b = derivatives(m, {"X1": 0.7}, order=3)
        assert b.value == pytest.approx(math.sin(0.7) + 0.49, rel=1e-15)

    def test_variable_superset_gives_zero_columns(self):
        m = parse_model("X1 ^ 2")
        b = derivatives(m, {"X1": 3.0, "X2": 5.0}, order=2,
                        variables=("X1", "X2"))
        assert b.grad.tolist() == [6.0, 0.0]
        assert b.hess[1, 1] == 0.0 and b.hess[0, 1] == 0.0

    def test_variable_ordering_is_respected(self):
        m = parse_model("X1 + 2 * X2")
        at = {"X1": 0.0, "X2": 0.0}
        fwd = derivatives(m, at, order=1, variables=("X1", "X2"))
        rev = derivatives(m, at, order=1, variables=("X2", "X1"))
        assert fwd.grad.tolist() == [1.0, 2.0]
        assert rev.grad.tolist() == [2.0, 1.0]

    def test_single_variable_third_diagonal(self):
        # f = x^4: f''' = 24x
        m = parse_model("X1 ^ 4")
        b = derivatives(m, {"X1": 1.5}, order=3)
        assert b.third_mixed[0, 0] == pytest.approx(24 * 1.5, rel=1e-12)

    def test_third_mixed_index_convention(self):
        # f = X1^2 * X2: entry [i, j] holds d3f / dxi dxj^2, so the
        # X2-row X1-column entry is d3f / dX2 dX1^2 = 2
        m = parse_model("X1 ^ 2 * X2")
        b = derivatives(m, {"X1": 1.0, "X2": 1.0}, order=3)
        assert b.third_mixed[1, 0] == pytest.approx(2.0, rel=1e-14)
        assert b.third_mixed[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_domain_error_propagates(self):
        m = parse_model("ln(X1)")
        with pytest.raises(DomainError):
            derivatives(m, {"X1": -1.0}, order=2)

    def test_sqrt_at_zero_rejected(self):
        # value exists but the derivative does not
        m = parse_model("sqrt(X1)")
        with pytest.raises(DomainError):
            derivatives(m, {"X1": 0.0}, order=1)

    def test_integer_power_at_zero_base_is_exact(self):
        # polynomial powers must not go through exp/ln
        m = parse_model("X1 ^ 3")
        b = derivatives(m, {"X1": 0.0}, order=3)
        assert b.value == 0.0
        assert b.grad[0] == 0.0
        assert b.hess[0, 0] == 0.0
        assert b.third_mixed[0, 0] == 6.0


class TestRandomSweep:
    def test_many_random_polynomials_match_mpmath(self):
        rng = np.random.default_rng(314)
        names = ("X1", "X2", "X3")
        for _ in range(40):
            coeffs = rng.uniform(-2, 2, size=4)
            powers = rng.integers(1, 4, size=4)
            terms = []
            for c, p in zip(coeffs, powers):
                v = names[int(rng.integers(0, 3))]
                terms.append(f"{c:.6f} * {v} ^ {int(p)}")
            text = " + ".join(terms)
            m = parse_model(text)

            def fn(*args, _text=text):
                env = dict(zip(names, args))
                out = mpmath.mpf(0)
                for piece in _text.split(" + "):
                    c, _, rest = piece.partition(" * ")
                    v, _, p = rest.partition(" ^ ")
                    out += mpmath.mpf(c) * env[v] ** int(p)
                return out

            point = tuple(rng.uniform(0.5, 2.0, size=3))
            b = derivatives(m, dict(zip(names, point)), order=3,
                            variables=names)
            for i in range(3):
                want = oracle_partial(fn, point,
                                      tuple(1 if j == i else 0
                                            for j in range(3)))
                assert b.grad[i] == pytest.approx(want, rel=1e-9, abs=1e-10)
            for i in range(3):
                for j in range(3):
                    orders = [0] * 3
                    orders[i] += 1
                    orders[j] += 2
                    want = oracle_partial(fn, point, tuple(orders))
                    assert b.third_mixed[i, j] == pytest.approx(
                        want, rel=1e-8, abs=1e-8)

    def test_products_of_distinct_inputs_match_mpmath(self):
        # terms couple 2 or 3 of 5 inputs, so every off-diagonal hess and
        # third_mixed entry is exercised, across many pair rows at once
        rng = np.random.default_rng(2718)
        names = ("X1", "X2", "X3", "X4", "X5")
        for _ in range(6):
            terms = []
            for _ in range(5):
                picked = rng.choice(5, size=int(rng.integers(2, 4)),
                                    replace=False)
                powers = rng.integers(1, 4, size=len(picked))
                terms.append((float(rng.uniform(-2, 2)),
                              [(int(v), int(p)) for v, p in zip(picked, powers)]))
            text = " + ".join(
                f"{c:.6f} * " + " * ".join(f"{names[v]} ^ {p}" for v, p in f)
                for c, f in terms)
            m = parse_model(text, names)

            def fn(*args, _terms=terms):
                out = mpmath.mpf(0)
                for c, factors in _terms:
                    term = mpmath.mpf(f"{c:.6f}")
                    for v, p in factors:
                        term *= args[v] ** p
                    out += term
                return out

            point = tuple(rng.uniform(0.5, 2.0, size=5))
            b = derivatives(m, dict(zip(names, point)), order=3,
                            variables=names)
            for i in range(5):
                for j in range(5):
                    orders = [0] * 5
                    orders[i] += 1
                    orders[j] += 1
                    want = oracle_partial(fn, point, tuple(orders))
                    assert b.hess[i, j] == pytest.approx(
                        want, rel=1e-10, abs=1e-12)
                    orders[j] += 1
                    want = oracle_partial(fn, point, tuple(orders))
                    assert b.third_mixed[i, j] == pytest.approx(
                        want, rel=1e-9, abs=1e-10)


def test_truncated_product_matches_plain_loop_bit_for_bit():
    # reference: coefficient (a, b) = sum over p <= a, q <= b, in loop
    # order, of x[p, q] * y[a - p, b - q], accumulated from 0.0
    rng = np.random.default_rng(11)
    col = {m: c for c, m in enumerate(_MONOMIALS)}
    x = rng.standard_normal((7, 10))
    y = rng.standard_normal((7, 10))
    x[3] = 0.0
    y[4, 0] = -0.0
    got = _mul(x, y)
    for r in range(7):
        for (a, b), c in col.items():
            s = 0.0
            for p in range(a + 1):
                for q in range(b + 1):
                    s += x[r, col[(p, q)]] * y[r, col[(a - p, b - q)]]
            if c == 0:
                s = x[r, 0] * y[r, 0]   # the value keeps its sign of zero
            assert got[r, c] == s and math.copysign(1, got[r, c]) == \
                math.copysign(1, s)
