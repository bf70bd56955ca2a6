"""Exact forward-mode derivatives of parsed models.

The oracle is mpmath.diff at 50 digits on the same expressions, so
agreement to 1e-10 relative means the truncated-jet arithmetic carries
true derivatives, not finite-difference approximations.
"""

import math
from functools import partial

import mpmath
import numpy as np
import pytest

from uncertlab import autodiff
from uncertlab.autodiff import _TABLES, _mul, derivatives
from uncertlab.distributions import Gaussian, InputQuantity, JointInputModel
from uncertlab.errors import DomainError
from uncertlab.expr import coupled_pairs, evaluate, evaluate_batch, parse_model
from uncertlab.propagation import propagate_taylor2

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
        assert b.value == pytest.approx(math.sin(0.7) + 0.49,
                                        rel=1e-15, abs=0.0)

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
        assert b.third_mixed[0, 0] == pytest.approx(24 * 1.5,
                                                    rel=1e-12, abs=0.0)

    def test_third_mixed_index_convention(self):
        # f = X1^2 * X2: entry [i, j] holds d3f / dxi dxj^2, so the
        # X2-row X1-column entry is d3f / dX2 dX1^2 = 2
        m = parse_model("X1 ^ 2 * X2")
        b = derivatives(m, {"X1": 1.0, "X2": 1.0}, order=3)
        assert b.third_mixed[1, 0] == pytest.approx(2.0, rel=1e-14, abs=0.0)
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

    @pytest.mark.parametrize("n", range(8))
    def test_integer_power_at_zero_base_is_exact(self, n):
        # the k-th derivative of X1^n at 0 is n! at k = n, 0 otherwise:
        # no derivative past the degree raises 0 to a negative power
        b = derivatives(parse_model(f"X1 ^ {n}"), {"X1": 0.0}, order=3)
        assert b.value == (1.0 if n == 0 else 0.0)
        assert b.grad.tolist() == [1.0 if n == 1 else 0.0]
        assert b.hess.tolist() == [[2.0 if n == 2 else 0.0]]
        assert b.third_mixed.tolist() == [[6.0 if n == 3 else 0.0]]


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


def test_jet_widths():
    # order 1 carries the value and e1; pair columns carry every
    # monomial of degree <= order, a single input the powers of e1
    widths = {w: t.monomials for w, t in _TABLES.items()}
    assert widths[2] == ((0, 0), (1, 0))
    assert widths[3] == ((0, 0), (1, 0), (2, 0))
    assert widths[4] == ((0, 0), (1, 0), (2, 0), (3, 0))
    assert sorted(widths[6]) == [(a, b) for a in range(3) for b in range(3)
                                 if a + b <= 2]
    assert sorted(widths[10]) == [(a, b) for a in range(4) for b in range(4)
                                  if a + b <= 3]


@pytest.mark.parametrize("mul", [_mul, partial(_mul, fix=True)])
@pytest.mark.parametrize("width", sorted(_TABLES))
def test_truncated_product_matches_plain_loop_bit_for_bit(width, mul):
    # reference: coefficient (a, b) = sum over p <= a, q <= b, in loop
    # order, of x[p, q] * y[a - p, b - q], accumulated from 0.0; a jet
    # holds one monomial per row and one seeding per column
    rng = np.random.default_rng(11)
    row = {m: r for r, m in enumerate(_TABLES[width].monomials)}
    x = rng.standard_normal((width, 7))
    y = rng.standard_normal((width, 7))
    x[:, 3] = 0.0
    y[0, 4] = -0.0
    got = mul(x, y)
    assert got.shape == (width, 7)
    for k in range(7):
        for (a, b), r in row.items():
            s = 0.0
            for p in range(a + 1):
                for q in range(b + 1):
                    s += x[row[(p, q)], k] * y[row[(a - p, b - q)], k]
            if r == 0:
                s = x[0, k] * y[0, k]   # the value keeps its sign of zero
            assert got[r, k] == s and math.copysign(1, got[r, k]) == \
                math.copysign(1, s)


def random_model(rng, names, depth):
    """A random expression over ``names`` with every node kind."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.8:
            return names[int(rng.integers(len(names)))]
        return f"{rng.uniform(0.5, 3.0):.3f}"
    kind = int(rng.integers(8))
    arg = random_model(rng, names, depth - 1)
    if kind < 4:
        rhs = random_model(rng, names, depth - 1)
        return f"({arg} {'+-*/'[kind]} {rhs})"
    if kind < 7:
        fn = ("sin", "cos", "exp", "ln", "sqrt")[int(rng.integers(5))]
        return f"{fn}({arg})"
    return f"({arg}) ^ {('2', '3', '-1', '0.5', '2.5')[int(rng.integers(5))]}"


def random_requests():
    rng = np.random.default_rng(1729)
    for _ in range(120):
        names = tuple(f"X{i + 1}" for i in range(int(rng.integers(1, 5))))
        point = np.round(rng.uniform(0.2, 2.0, len(names)), 3)
        yield (random_model(rng, names, int(rng.integers(1, 5))), names,
               dict(zip(names, point.tolist())))


def model_requests():
    for text, _, names, points in MODELS:
        for point in points:
            yield text, names, dict(zip(names, point))


class TestTruncation:
    """A jet sized to a lower order carries the same coefficients, so the
    order-1 gradient and the order-2 Hessian are the order-3 ones."""

    @pytest.mark.parametrize("requests", [model_requests, random_requests])
    def test_lower_orders_are_the_order_3_entries_bit_for_bit(self,
                                                              requests):
        checked = 0
        for text, names, at in requests():
            m = parse_model(text)
            outcomes = []
            for order in (1, 2, 3):
                try:
                    outcomes.append(derivatives(m, at, order, names))
                except DomainError as err:
                    outcomes.append(str(err))
            b1, b2, b3 = outcomes
            if isinstance(b3, str):
                assert b1 == b2 == b3, text
                continue
            checked += 1
            assert b1.value == b2.value == b3.value or math.isnan(b3.value)
            for b in (b1, b2):
                assert b.grad.tobytes() == b3.grad.tobytes(), text
            assert b2.hess.tobytes() == b3.hess.tobytes(), text
        assert checked >= 10


def series_model(n):
    """sum_i X_i sin(X_{i+1}), indices cyclic over n inputs."""
    return " + ".join(f"X{i + 1} * sin(X{(i + 1) % n + 1})" for i in range(n))


class TestWideSeries:
    # closed forms of f = sum_i x_i sin(x_{i+1}), cyclic: with nxt = i + 1
    # and prv = i - 1,
    #   df/dx_i            = sin(x_nxt) + x_prv cos(x_i)
    #   d2f/dx_i^2         = -x_prv sin(x_i)
    #   d2f/dx_i dx_nxt    = cos(x_nxt)
    #   d3f/dx_i^3         = -x_prv cos(x_i)
    #   d3f/dx_prv dx_i^2  = -sin(x_i)
    # and every other second and third_mixed entry is 0 (n >= 3)
    N = 24

    def closed_forms(self, x):
        n = self.N
        grad, hess, third = np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
        for i in range(n):
            nxt, prv = (i + 1) % n, (i - 1) % n
            grad[i] = math.sin(x[nxt]) + x[prv] * math.cos(x[i])
            hess[i, i] = -x[prv] * math.sin(x[i])
            hess[i, nxt] = hess[nxt, i] = math.cos(x[nxt])
            third[i, i] = -x[prv] * math.cos(x[i])
            third[prv, i] = -math.sin(x[i])
        return grad, hess, third

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_closed_forms(self, order):
        names = tuple(f"X{i + 1}" for i in range(self.N))
        x = np.random.default_rng(24).uniform(-2.0, 2.0, self.N)
        b = derivatives(parse_model(series_model(self.N)),
                        dict(zip(names, x.tolist())), order, names)
        grad, hess, third = self.closed_forms(x)
        assert b.value == pytest.approx(
            sum(x[i] * math.sin(x[(i + 1) % self.N]) for i in range(self.N)),
            rel=1e-14, abs=0.0)
        assert b.grad == pytest.approx(grad, rel=1e-14, abs=1e-15)
        if order >= 2:
            assert b.hess == pytest.approx(hess, rel=1e-14, abs=1e-15)
        if order == 3:
            assert b.third_mixed == pytest.approx(third, rel=1e-14, abs=1e-15)


class TestOverflowingDerivatives:
    # a derivative the request does not read, or a zero seed times one
    # that overflows, must not turn a finite entry into inf * 0 = NaN

    @pytest.mark.parametrize("text,at,want", [
        ("ln(X1)", 1e-200, 1.0 / 1e-200),              # g2, g3 overflow
        ("sqrt(X1)", 1e-300, 0.5 / math.sqrt(1e-300)),
    ])
    def test_gradient_ignores_higher_derivatives(self, text, at, want):
        b = derivatives(parse_model(text), {"X1": at}, order=1)
        assert b.grad.tolist() == [want]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_quotient_by_a_tiny_denominator(self, order):
        # d(X1/X2)/dX1 = 1/X2 = 1e170; d/dX2 = -1e340 overflows; the
        # reciprocal's overflowing first derivative meets X1's columns,
        # where X2 is not seeded; X1's zero coefficients there times the
        # overflowed ones are 0, not NaN: d2/dX2^2 = 2/X2^3 and
        # d3/dX1 dX2^2 = 2/X2^3 overflow to +inf, d3/dX2^3 to -inf
        b = derivatives(parse_model("X1 / X2"), {"X1": 1.0, "X2": 1e-170},
                        order)
        assert b.grad.tolist() == [1.0 / 1e-170, -math.inf]
        if order >= 2:
            assert b.hess.tolist() == [[0.0, -math.inf],
                                       [-math.inf, math.inf]]
        if order == 3:
            assert b.third_mixed.tolist() == [[0.0, math.inf],
                                              [0.0, -math.inf]]

    def test_trig_of_infinite_value(self):
        with pytest.raises(DomainError, match="sin of infinite value"):
            derivatives(parse_model("sin(X1 * X2)"),
                        {"X1": 1e200, "X2": 1e200}, order=1)


def falling(n, k):
    """n (n - 1) ... (n - k + 1) in mpmath."""
    out = mpmath.mpf(1)
    for i in range(k):
        out *= mpmath.mpf(n) - i
    return out


def power_product(*exponents):
    """Partial of X1^n1 X2^n2 ... of the given orders, in closed form."""
    def partial_at(point, orders):
        out = mpmath.mpf(1)
        for x, n, k in zip(point, exponents, orders):
            out *= falling(n, k) * mpmath.mpf(x) ** (mpmath.mpf(n) - k)
        return out
    return partial_at


def power_of_sum(n):
    """Partial of (X1 + X2 + ...)^n of the given orders, in closed form."""
    def partial_at(point, orders):
        total = sum(mpmath.mpf(x) for x in point)
        return falling(n, sum(orders)) * total ** (n - sum(orders))
    return partial_at


# power models, the closed form of their partials, and whether their
# bases may be negative
POWER_MODELS = [
    ("X1 ^ -2", power_product(-2), True),
    ("X1 ^ -3 * X2", power_product(-3, 1), True),
    ("X1 ^ -4", power_product(-4), True),
    ("X1 ^ -1", power_product(-1), True),
    ("X1 ^ 2", power_product(2), True),
    ("X1 ^ 3", power_product(3), True),
    ("X1 ^ 5", power_product(5), True),
    ("X1 ^ 7", power_product(7), True),
    ("(X1 + X2) ^ 3", power_of_sum(3), True),
    ("X1 ^ 2.5", power_product("2.5"), False),
    ("X1 ^ -0.5 * X2 ^ 2", power_product("-0.5", 2), False),
]

# the bases of the power sweep: signed zeros, tiny and subnormal values,
# values whose powers overflow, and ordinary ones
POWER_BASES = (0.0, -0.0, 1e-170, -1e-170, 5e-324, -5e-324, 1e-300,
               1e200, -1e200, 1.7e308, 0.3, -2.5, 7.0)


class TestConstantPowers:
    """Every constant power takes the function nodes' composition, with
    derivatives n (n - 1) ... (n - k + 1) a^(n - k) by the scalar
    evaluator's power rule."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_negative_power_of_a_tiny_base_is_no_division(self, order):
        # X1^-2 overflows to inf at X1 = -1e-170; the model has no
        # division, so no "division by zero": the value is evaluate's
        m = parse_model("X1 ^ -2 * (X1 - X3)")
        at = {"X1": -1e-170, "X3": 0.0}
        assert derivatives(m, at, order).value == evaluate(m, at) == -math.inf

    def test_sweep_matches_the_scalar_evaluator(self):
        # value bits where evaluate returns, its message where it refuses
        cases = mismatches = refused = 0
        for n in range(-4, 8):
            m = parse_model(f"X1 ^ {n}")
            for a in POWER_BASES:
                try:
                    want = np.float64(evaluate(m, {"X1": a})).tobytes()
                except DomainError as err:
                    want = str(err)
                    refused += 1
                for order in (1, 2, 3):
                    try:
                        got = np.float64(
                            derivatives(m, {"X1": a}, order).value).tobytes()
                    except DomainError as err:
                        got = str(err)
                    cases += 1
                    mismatches += got != want
        assert cases == 468 and mismatches == 0
        assert refused == 4 * 2     # negative powers of the two zeros

    @pytest.mark.parametrize("text,partial_at,signed", POWER_MODELS,
                             ids=[model[0] for model in POWER_MODELS])
    def test_order_1_gradient_is_order_3_gradient(self, text, partial_at,
                                                  signed):
        m = parse_model(text)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.uniform(0.1, 3.0, len(m.variables))
            if signed:
                x *= rng.choice([-1.0, 1.0], len(x))
            at = dict(zip(m.variables, x))
            one, three = derivatives(m, at, 1), derivatives(m, at, 3)
            assert one.grad.tobytes() == three.grad.tobytes()
            assert one.value == three.value

    def test_zero_base_in_pair_columns(self):
        # d2/dX1 dX2 (X1 + X2)^2 = 2 and d3/dX1 dX2^2 (X1 + X2)^3 = 6 at 0
        at = {"X1": 0.0, "X2": 0.0}
        b = derivatives(parse_model("(X1 + X2) ^ 2"), at, 3)
        assert b.hess.tolist() == [[2.0, 2.0], [2.0, 2.0]]
        assert b.third_mixed.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        b = derivatives(parse_model("(X1 + X2) ^ 3"), at, 3)
        assert b.hess.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert b.third_mixed.tolist() == [[6.0, 6.0], [6.0, 6.0]]

    @pytest.mark.parametrize("text,partial_at,signed", POWER_MODELS,
                             ids=[model[0] for model in POWER_MODELS])
    def test_against_closed_forms(self, text, partial_at, signed):
        # gradient, Hessian and d3 / dx_i dx_j^2 against the closed forms
        # at 50 digits: within 1e-15 relative, and exactly 0 where the
        # partial is 0
        m = parse_model(text)
        names = m.variables
        rng = np.random.default_rng(200)
        worst = 0.0
        for _ in range(40):
            x = rng.uniform(0.1, 3.0, len(names))
            if signed:
                x *= rng.choice([-1.0, 1.0], len(x))
            b = derivatives(m, dict(zip(names, x)), 3)
            for i in range(len(names)):
                for j in range(len(names)):
                    for got, orders in (
                            (b.grad[i], {i: 1}),
                            (b.hess[i, j], {i: 1, j: 1 + (i == j)}),
                            (b.third_mixed[i, j],
                             {i: 1 + 2 * (i == j), j: 2 + (i == j)})):
                        want = partial_at(
                            x, [orders.get(v, 0) for v in range(len(names))])
                        if want == 0:
                            assert got == 0.0, (text, x, orders)
                        else:
                            worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-15, (text, worst)

    @pytest.mark.parametrize("text,at,want", [
        ("X1 ^ 4", -1e200, [math.inf, -math.inf, math.inf, -2.4e201]),
        ("X1 ^ 5", -1e200, [-math.inf, math.inf, -math.inf, math.inf]),
        ("X1 ^ -4", -1e-170, [math.inf] * 4),
    ])
    def test_overflowing_derivatives_keep_their_sign(self, text, at, want):
        # an odd power of a negative base overflows to -inf
        b = derivatives(parse_model(text), {"X1": at}, 3)
        assert [b.value, b.grad[0], b.hess[0, 0],
                b.third_mixed[0, 0]] == want

    @pytest.mark.parametrize("text,at", [
        ("(X1 * 1e300 * 1e300) ^ 0 + X2", 1.0),
        ("(X1 * 1e300) ^ 1 + X2", 0.0),
        ("(X1 * 1e300) ^ 2 + X2", 0.0),
        ("X1 ^ 1e300 + X2", 0.5),
    ])
    def test_derivative_past_the_degree_meets_no_overflow(self, text, at):
        # a zero derivative times a perturbation power that overflowed
        # (or an underflowed power times an overflowed factor) is 0, not
        # 0 * inf = NaN
        b = derivatives(parse_model(text), {"X1": at, "X2": 1.0}, 3)
        assert not np.isnan(b.hess).any()
        assert not np.isnan(b.third_mixed).any()
        assert b.grad[1] == 1.0 and b.third_mixed[0, 0] == 0.0


def pair_list(text, names=None):
    m = parse_model(text)
    return list(zip(*coupled_pairs(m.root, names or m.variables)))


class TestCoupledPairs:
    """The pairs whose mixed partials can be nonzero, read off the tree."""

    def test_cyclic_sine_series_couples_neighbours(self):
        assert pair_list(series_model(24)) == sorted(
            tuple(sorted((i, (i + 1) % 24))) for i in range(24))

    @pytest.mark.parametrize("text", ["sin(X1 + X2 + X3)", "X1 / (X2 + X3)",
                                      "(X1 + X2 - X3) ^ 2"])
    def test_function_quotient_and_power_couple_their_arguments(self, text):
        assert pair_list(text) == [(0, 1), (0, 2), (1, 2)]

    def test_product_couples_across_its_operands_only(self):
        assert pair_list("X1 * X2 + X3") == [(0, 1)]
        assert pair_list("(X1 + X2) * X3") == [(0, 2), (1, 2)]

    @pytest.mark.parametrize("text", ["X1 + 2 * X2", "sin(X1) + X2 ^ 2",
                                      "-X1 / 3 - exp(X2) * 2", "X1 * X1"])
    def test_separable_models_couple_nothing(self, text):
        assert pair_list(text) == []

    @pytest.mark.parametrize("text", ["X1 + 2 * X2", "sin(X1) + X2 ^ 2"])
    def test_uncoupled_models_take_the_pairless_width(self, text, monkeypatch):
        # the bits of every pair seeded, on jets of order + 1 rows
        m = parse_model(text)
        at = {"X1": 0.7, "X2": -1.3}
        with monkeypatch.context() as patch:
            patch.setattr(autodiff, "coupled_pairs", every_pair)
            dense = [derivatives(m, at, order) for order in (2, 3)]
        shapes = jet_shapes(monkeypatch)
        for order, want in zip((2, 3), dense):
            got = derivatives(m, at, order)
            assert shapes.pop() == (order + 1, 2)
            for field in ("grad", "hess", "third_mixed"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a is None) == (b is None)
                assert a is None or a.tobytes() == b.tobytes(), field

    def test_unreferenced_input_gets_no_column(self, monkeypatch):
        shapes = jet_shapes(monkeypatch)
        names = ("X1", "X2", "X3")
        b = derivatives(parse_model("X1 * sin(X3)"),
                        {"X1": 1.0, "X2": 5.0, "X3": 0.5}, 3, names)
        assert shapes == [(10, 1)]      # the pair (X1, X3), nothing else
        for field in (b.hess, b.third_mixed):
            for line in (field[1], field[:, 1]):
                assert line.tobytes() == np.zeros(3).tobytes()
        assert b.grad[1] == 0.0 and math.copysign(1.0, b.grad[1]) == 1.0


def jet_shapes(monkeypatch):
    """Record the (rows, columns) of X1's jet in every walk."""
    shapes = []
    real_walk = autodiff.walk

    def walk(node, ops):
        shapes.append(ops.var("X1").shape)
        return real_walk(node, ops)

    monkeypatch.setattr(autodiff, "walk", walk)
    return shapes


def every_pair(node, names):
    """Dense seeding: every index pair i < j, coupled or not."""
    n = len(names)
    return ([i for i in range(n) for j in range(i + 1, n)],
            [j for i in range(n) for j in range(i + 1, n)])


def dense_and_fixing(monkeypatch):
    """Seed every pair and fix zero terms in every product."""
    monkeypatch.setattr(autodiff, "coupled_pairs", every_pair)
    monkeypatch.setattr(autodiff, "_mul", partial(_mul, fix=True))


# values where a product meets 0 * inf, a quotient a tiny denominator,
# exp an overflow and a square an underflow
EDGE_POINTS = (0.0, 1e-300, 1e-170, -1e-170, 1e200, 700.0)


def wild_model(rng, names, depth):
    """A random expression that also reaches zero constants and zeroth
    and negative powers."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.75:
            return names[int(rng.integers(len(names)))]
        return ("0", "1e-300", "0.5", "2.5", "3")[int(rng.integers(5))]
    kind = int(rng.integers(9))
    arg = wild_model(rng, names, depth - 1)
    if kind < 5:
        rhs = wild_model(rng, names, depth - 1)
        return f"({arg} {'+-**/'[kind]} {rhs})"
    if kind < 7:
        fn = ("sin", "cos", "exp", "ln", "sqrt")[int(rng.integers(5))]
        return f"{fn}({arg})"
    if kind == 7:
        return f"-({arg})"
    exponent = ("0", "1", "2", "3", "-1", "-2", "0.5", "2.5")
    return f"({arg}) ^ {exponent[int(rng.integers(len(exponent)))]}"


def outcome(m, at, order, names):
    try:
        return derivatives(m, at, order, names)
    except Exception as err:            # compared by type and message
        return type(err), str(err)


def same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    if isinstance(got, tuple):
        return False
    if not (got.value == want.value
            or (math.isnan(got.value) and math.isnan(want.value))):
        return False
    for field in ("grad", "hess", "third_mixed"):
        a, b = getattr(got, field), getattr(want, field)
        if (a is None) != (b is None):
            return False
        if a is not None and not np.array_equal(a, b, equal_nan=True):
            return False
    return True


def test_value_is_the_scalar_evaluators_at_edge_points():
    """Where ``derivatives`` returns, its value is ``evaluate``'s bit for
    bit, NaN matching NaN; where ``evaluate`` refuses, so does it."""
    rng = np.random.default_rng(5)
    returned = refused = nans = 0
    for _ in range(5000):
        names = tuple(f"X{i + 1}" for i in range(int(rng.integers(1, 5))))
        at = {name: EDGE_POINTS[int(rng.integers(len(EDGE_POINTS)))]
              for name in names}
        m = parse_model(wild_model(rng, names, int(rng.integers(1, 6))),
                        names)
        try:
            want = evaluate(m, at)
        except DomainError:
            with pytest.raises(DomainError):
                derivatives(m, at, int(rng.integers(1, 4)), names)
            refused += 1
            continue
        try:
            got = derivatives(m, at, int(rng.integers(1, 4)), names).value
        except DomainError:     # a derivative the value does not need
            continue
        assert (np.float64(got).tobytes() == np.float64(want).tobytes()
                or math.isnan(got) and math.isnan(want)), (str(m.root), at)
        returned += 1
        nans += math.isnan(want)
    assert returned >= 3000 and refused >= 500 and nans >= 10


class TestAgainstDenseFixingWalk:
    """Coupled-pair seeding with one NaN check per walk gives the bundle
    that seeding every pair and fixing zero terms in every product
    gives; only the sign of a structural zero may differ."""

    def test_random_models_at_edge_points(self, monkeypatch):
        rng = np.random.default_rng(2718)
        requests = []
        for _ in range(1100):
            names = tuple(f"X{i + 1}" for i in range(int(rng.integers(1, 8))))
            point = [EDGE_POINTS[int(rng.integers(len(EDGE_POINTS)))]
                     if rng.random() < 0.5 else float(rng.uniform(-2.0, 2.0))
                     for _ in names]
            text = wild_model(rng, names, int(rng.integers(1, 6)))
            requests.append((parse_model(text, names), names,
                             dict(zip(names, point)), int(rng.integers(1, 4))))

        walks = jet_shapes(monkeypatch)
        got, rewalked = [], 0
        for m, names, at, order in requests:
            del walks[:]
            got.append(outcome(m, at, order, names))
            rewalked += len(walks) == 2 and not isinstance(got[-1], tuple)
        with monkeypatch.context() as patch:
            dense_and_fixing(patch)
            want = [outcome(m, at, order, names)
                    for m, names, at, order in requests]
        bad = [(str(m.root), at, order) for (m, names, at, order), g, w
               in zip(requests, got, want) if not same_outcome(g, w)]
        assert not bad, bad[:3]
        assert rewalked >= 10       # walks that ended in NaN
        errors = sum(isinstance(w, tuple) for w in want)
        assert 10 <= errors <= len(requests) - 500

    def test_zeroth_power_of_a_nan_base_is_one_as_in_evaluate(
            self, monkeypatch):
        # 0 * exp(X1)^2 is 0 * inf = NaN in both walks, ln(NaN) is NaN,
        # and the zeroth power drops the base
        m = parse_model("ln(0 * exp(X1) ^ 2) ^ 0 + X2")
        at = {"X1": 700.0, "X2": 1.0}
        got = outcome(m, at, 3, ("X1", "X2"))
        assert got.value == evaluate(m, at) == 2.0
        assert got.grad.tolist() == [0.0, 1.0]
        dense_and_fixing(monkeypatch)
        assert same_outcome(got, outcome(m, at, 3, ("X1", "X2")))

    def test_taylor2_results_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(300):
            names = tuple(f"X{i + 1}" for i in range(int(rng.integers(1, 8))))
            text = random_model(rng, names, int(rng.integers(1, 6)))
            means = rng.uniform(0.3, 2.0, len(names))
            sds = np.where(rng.random(len(names)) < 0.25, 0.0,
                           rng.uniform(0.01, 0.2, len(names)))
            joint = JointInputModel([
                InputQuantity(name, Gaussian(float(mean), float(sd)))
                for name, mean, sd in zip(names, means, sds)])
            cases.append((parse_model(text, names), joint))

        def run(m, joint):
            try:
                r = propagate_taylor2(m, joint)
            except Exception as err:
                return type(err), str(err)
            return "ok", np.array([r.y, r.u, *r.interval]).tobytes()

        got = [run(m, joint) for m, joint in cases]
        dense_and_fixing(monkeypatch)
        want = [run(m, joint) for m, joint in cases]
        assert got == want
        assert sum(g[0] == "ok" for g in got) >= 200
