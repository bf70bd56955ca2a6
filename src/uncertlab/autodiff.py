"""Exact derivatives of measurement models by forward-mode jet arithmetic.

Taylor-series propagation needs the gradient, the full Hessian, and the
mixed third derivatives d^3 f / dx_i dx_j^2 of the model at the input
means. Rather than differentiate symbolically (which blows up on nested
products) or numerically (which trades one tolerance problem for
another), the model is evaluated on truncated bivariate Taylor
polynomials in two perturbations e1, e2 up to total degree 3 (Griewank,
Utke & Walther, Math. Comp. 69 (2000); Griewank & Walther, *Evaluating
Derivatives*, 2008, ch. 13).

A jet is a (width, K) array: one row per monomial e1^a e2^b, one column
per seeding. Seeding x_i = mu_i + e1 and x_j = mu_j + e2 makes the
column's coefficient of e1^a e2^b equal to

    d^(a+b) f / (dx_i^a dx_j^b) / (a! b!).

A jet carries only the monomials the requested order reads: with pair
columns, the 6 of degree <= 2 for order 2 and all 10 of degree <= 3
for order 3; without them, the order + 1 powers of e1, so a gradient
carries the value and e1 alone. Truncation is exact: a coefficient of
degree d sums products of coefficients of degree <= d, so dropping
higher degrees changes no bit of the ones kept, and an order-1 gradient
equals the order-3 one to the bit.

All seedings of a point go side by side through one pass of
:func:`uncertlab.expr.walk`, the scalar evaluator's walk, with the jet
operations below: from order 2 on a column per coupled pair i < j
(:func:`uncertlab.expr.coupled_pairs`), and one seeded on e1 alone per
referenced input in no such pair. A column's coefficients depend on its
own seeding alone, and an uncoupled pair's mixed entries are exact
zeros. Row 0 is the model value, equal in every column and computed by
the scalar evaluator's rules; chain-rule coefficients and domain checks
read it from column 0. A perturbation term of a product with an
exactly-zero factor is 0, not 0 * inf = NaN. The fix never touches the
value row, so a NaN model value (0 times an overflow) stays NaN as in
the scalar evaluator. A walk runs without the fix and is made again
with it only when it ends in NaN. Results are exact up to
floating-point rounding; there is no step size.

Function nodes and constant powers share one series composition. For
every constant n the k-th derivative of a^n is n (n-1) ... (n-k+1)
a^(n-k), each power by the scalar evaluator's rule, and an exact 0.0
past an integer n's degree, so a zero base never meets a negative power.
Domain rules match the scalar evaluator, with one addition: points
where the model's value exists but a derivative does not (sqrt at zero)
raise :class:`~uncertlab.errors.DomainError`, since a truncated series
is meaningless there.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, EvaluationError
from .expr import (FUNCTIONS, MeasurementModelExpr, Ops, checked_pow,
                   coupled_pairs, walk)

__all__ = ["DerivativeBundle", "derivatives"]

# Jet rows as monomial exponents (a, b) of e1^a e2^b. They are sorted
# by degree, then by the number of terms their product coefficient sums
# (1, 2, 3, 4, 6), so every degree from 2 on and the k-th terms of all
# coefficients that have one fill a row suffix.
_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1),
              (3, 0), (0, 3), (2, 1), (1, 2))


def _monomials(order: int, pairs: bool) -> tuple:
    return tuple(m for m in _MONOMIALS
                 if m[0] + m[1] <= order and (pairs or m[1] == 0))


class _Table(NamedTuple):
    monomials: tuple
    left: np.ndarray
    right: np.ndarray
    slots: list
    start: np.ndarray
    degree2: int        # first row of degree 2, the width if none
    degree3: int        # first row of degree 3, the width if none


def _product_table(monomials: tuple) -> _Table:
    """Coefficient (a, b) of x*y sums x[p, q] y[a-p, b-q] over p <= a,
    q <= b in that order. Slot k holds the k-th terms, as gather
    indices from ``start`` on and the first output row they fill."""
    row = {m: r for r, m in enumerate(monomials)}
    terms = [[(row[(p, q)], row[(a - p, b - q)])
              for p in range(a + 1) for q in range(b + 1)]
             for a, b in monomials]
    left, right, slots = [], [], []
    for k in range(len(terms[-1])):
        first = next(c for c, t in enumerate(terms) if len(t) > k)
        slots.append((len(left), first))
        left += [t[k][0] for t in terms[first:]]
        right += [t[k][1] for t in terms[first:]]
    # Sums start from +0.0, except the value row: adding -0.0 keeps
    # x0*y0 exactly as the scalar evaluator computes it, sign of zero
    # included.
    start = np.array([[-0.0]] + [[0.0]] * (len(monomials) - 1))
    degree2, degree3 = (sum(a + b < d for a, b in monomials) for d in (2, 3))
    return _Table(monomials, np.array(left), np.array(right), slots, start,
                  degree2, degree3)


# one table per jet width: 2, 3, 4 without pair columns, 6 and 10 with
_TABLES = {len(t.monomials): t for t in (
    _product_table(_monomials(order, pairs))
    for order, pairs in ((1, False), (2, False), (3, False),
                         (2, True), (3, True)))}


def _constant(value: float, width: int) -> np.ndarray:
    """A one-column jet; broadcasting shares it across every seeding."""
    out = np.zeros((width, 1))
    out[0, 0] = value
    return out


def _mul(x: np.ndarray, y: np.ndarray, fix: bool = False) -> np.ndarray:
    """Truncated product, summing each coefficient's terms in order.

    Adding one slot at a time, rather than a matmul with a 0/1 scatter
    matrix, fixes the rounding order and keeps an infinite term out of
    the other coefficients. With ``fix``, a perturbation term with an
    exactly-zero factor is 0, not 0 * inf = NaN; term 0, the value row's
    x0 * y0, keeps its IEEE result.
    """
    table = _TABLES[len(x)]
    xs, ys = x.take(table.left, axis=0), y.take(table.right, axis=0)
    terms = xs * ys
    if fix:
        zero = (xs[1:] == 0.0) | (ys[1:] == 0.0)
        terms[1:][np.isnan(terms[1:]) & zero] = 0.0
    return _sum_terms(terms, table)


def _sum_terms(terms: np.ndarray, table: _Table) -> np.ndarray:
    """Each coefficient's terms summed in order."""
    n = len(table.monomials)
    out = terms[:n] + table.start
    for start, first in table.slots[1:]:
        out[first:] += terms[start:start + n - first]
    return out


def _scaled(g: float, pk: np.ndarray) -> np.ndarray:
    """g * pk, where an exactly-zero factor gives 0, not inf * 0 = NaN:
    a zero of pk when g overflowed, and a zero g (a power past its
    degree) when pk did."""
    term = g * pk
    if not math.isfinite(g):
        term[pk == 0.0] = 0.0
    elif g == 0.0:
        term[np.isnan(term)] = 0.0
    return term


def _compose(u: np.ndarray, g0: float, g1: float, g2: float, g3: float,
             mul: Callable) -> np.ndarray:
    """g(u) for scalar g with value g0 and derivatives g1..g3 at u's value.

    Writing u = a + p with p the zero-constant perturbation part,
    g(u) truncates to g(a) + g1 p + (g2/2) p^2 + (g3/6) p^3. As p^k
    reaches only the coefficients of degree >= k, each term is added to
    those rows alone, so an overflowing g2 or g3 (ln at 1e-200) cannot
    reach the gradient.
    """
    table = _TABLES[len(u)]
    p = u.copy()
    p[0] = 0.0
    out = _scaled(g1, p)
    if table.degree2 < len(u):
        p2 = mul(p, p)
        out[table.degree2:] += _scaled(g2 / 2.0, p2[table.degree2:])
        if table.degree3 < len(u):
            out[table.degree3:] += _scaled(g3 / 6.0,
                                           mul(p2, p)[table.degree3:])
    out[0] = g0
    return out


def _div(x: np.ndarray, y: np.ndarray, mul: Callable) -> np.ndarray:
    v = y[0, 0]
    if v == 0.0:
        raise DomainError("division by zero")
    out = mul(x, _compose(y, 1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4,
                          mul))
    out[0] = x[0, 0] / v
    return out


def _pow_const(u: np.ndarray, n: float, mul: Callable) -> np.ndarray:
    """u^n composed from d^k a^n / da^k = n (n-1) ... (n-k+1) a^(n-k),
    an exact 0.0 once the falling factorial or the power is 0, so no
    zero base meets a negative power and no 0 * inf is formed."""
    a = u[0, 0]
    g, factor = [checked_pow(a, n)], 1.0
    for k in (1, 2, 3):
        factor *= n - k + 1
        power = checked_pow(a, n - k) if factor else 0.0
        g.append(factor * power if power else 0.0)
    return _compose(u, *g, mul)


def _apply_function(fn: str, u: np.ndarray, mul: Callable) -> np.ndarray:
    spec = FUNCTIONS[fn]
    a = u[0, 0]
    g0 = spec.scalar(a)
    if spec.deriv_check is not None:
        spec.deriv_check(a)
    return _compose(u, g0, spec.d1(a), spec.d2(a), spec.d3(a), mul)


@dataclass(frozen=True)
class DerivativeBundle:
    """Model derivatives at a point, indexed by a fixed variable order.

    ``third_mixed[i, j]`` holds d^3 f / (dx_i dx_j^2); its diagonal is
    the pure third derivative. That is the exact layout the
    second-order variance correction sums over. Fields beyond the
    requested derivative order are None.
    """

    value: float
    grad: np.ndarray                      # shape (N,)
    hess: Optional[np.ndarray]            # shape (N, N), symmetric
    third_mixed: Optional[np.ndarray]     # shape (N, N)


def derivatives(
    expr: MeasurementModelExpr,
    at: Mapping[str, float],
    order: int = 3,
    variables: Optional[Sequence[str]] = None,
) -> DerivativeBundle:
    """Compute value and derivatives of ``expr`` up to ``order`` (1, 2, or 3).

    One walk of the tree over stacked seedings: a column per coupled
    input pair for orders 2 and 3, and one seeded on e1 alone per
    referenced input in no such pair. The walk is made again, fixing
    zero terms outside the value row, only where it ends in NaN, so
    ``value`` is the scalar evaluator's, NaN included. ``variables``
    fixes the variable order of the output arrays and defaults to the
    expression's own first-appearance order; callers that carry a
    declared input list (possibly a superset of the variables actually
    referenced) pass it here, and unreferenced inputs get exact zero
    derivatives. Raises :class:`DomainError` where the model or one of
    the needed derivatives is undefined.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2, or 3, got {order}")
    names = tuple(variables) if variables is not None else expr.variables
    missing = [v for v in expr.variables if v not in names]
    if missing:
        raise EvaluationError(
            f"variable(s) not covered by the requested order: {', '.join(missing)}")
    absent = [v for v in names if v not in at]
    if absent:
        raise EvaluationError(f"no value for variable(s): {', '.join(absent)}")

    n = len(names)
    position = {name: t for t, name in enumerate(names)}
    # column r seeds input first[r] on e1 and, for r < pairs, second[r]
    # on e2: a column per coupled pair, then one per referenced input in
    # no coupled pair
    first, second = coupled_pairs(expr.root, names) if order > 1 else ([], [])
    pairs = len(first)
    alone = {position[v] for v in expr.variables} - {*first, *second}
    first, second = np.array(first + sorted(alone), int), np.array(second, int)
    monomials = _monomials(order, pairs > 0)
    width = len(monomials)

    def leaf(name: str) -> np.ndarray:
        # built per leaf: keeping all N jets of N^2/2 columns would cost N^3
        jet = np.zeros((width, len(first)))
        jet[0] = float(at[name])
        jet[1] = first == position[name]                # row (1, 0): e1
        if pairs:
            jet[2, :pairs] = second == position[name]   # row (0, 1): e2
        return jet

    def walk_with(mul: Callable) -> np.ndarray:
        return walk(expr.root, Ops(
            const=lambda value: _constant(value, width), var=leaf,
            apply=partial(_apply_function, mul=mul),
            power=partial(_pow_const, mul=mul), mul=mul,
            div=partial(_div, mul=mul)))

    # The fix touches no value row, and every domain check reads value
    # rows alone: both walks fail alike, and differ only in coefficients
    # the plain walk leaves NaN.
    with np.errstate(all="ignore"):
        jet = walk_with(_mul)
        if math.isnan(jet.sum()):
            jet = walk_with(partial(_mul, fix=True))
    c = dict(zip(monomials, np.broadcast_to(jet, (width, len(first)))))

    grad = np.zeros(n)
    hess = np.zeros((n, n)) if order >= 2 else None
    third = np.zeros((n, n)) if order >= 3 else None
    grad[first] = c[1, 0]
    if hess is not None:
        hess[first, first] = 2.0 * c[2, 0]
    if third is not None:
        third[first, first] = 6.0 * c[3, 0]
    if pairs:
        i = first[:pairs]
        if len(first) > pairs:
            c = {m: row[:pairs] for m, row in c.items()}
        grad[second] = c[0, 1]
        hess[second, second] = 2.0 * c[0, 2]
        hess[i, second] = hess[second, i] = c[1, 1]
        if third is not None:
            third[second, second] = 6.0 * c[0, 3]
            third[i, second] = 2.0 * c[1, 2]
            third[second, i] = 2.0 * c[2, 1]
    return DerivativeBundle(float(jet[0, 0]), grad, hess, third)
