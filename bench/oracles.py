"""Output checks for the benchmark, computed without uncertlab.

Every function here derives the expected answer from the generated
inputs alone (closed forms, quadrature, or the guard-band rules as the
README states them) and compares it with one report. A check returns a
list of failure messages; an empty list means the report is correct.
Nothing in this module imports uncertlab, so a defect in the program
cannot hide itself by also being in the oracle.
"""

import math

import numpy as np
from scipy import integrate, special

# Relative tolerance for quantities the program computes exactly (jet
# derivatives, linear algebra): only rounding separates the two routes.
EXACT_RTOL = 1e-9

# Monte Carlo estimates must lie within this many standard errors of
# the reference moments (JCGM 101:2008 treats y and u as estimates
# whose standard errors shrink as 1/sqrt(M)).
MC_Z = 5.0

# Binomial bound, in standard deviations, on the domain-failure count.
DOMAIN_Z = 6.0

# Independent draws behind the kurtosis that sizes the tolerance on u.
KURTOSIS_DRAWS = 100_000


def _close(name: str, got: float, want: float, rtol: float = EXACT_RTOL,
           atol: float = 1e-12) -> list[str]:
    if not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        return [f"{name}: got {got!r}, expected {want!r}"]
    return []


# ---------------------------------------------------------------------------
# Closed-form derivatives of the generated models
# ---------------------------------------------------------------------------

def series_derivatives(means: np.ndarray):
    """Value, gradient, Hessian and T[i, j] = d3f/dx_i dx_j^2 of the
    cyclic series f = sum_i X_i sin(X_{i+1 mod N}) at ``means``."""
    x = np.asarray(means, dtype=np.float64)
    n = len(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    third = np.zeros((n, n))
    value = 0.0
    for i in range(n):
        j = (i + 1) % n
        a, b = x[i], x[j]
        sb, cb = math.sin(b), math.cos(b)
        value += a * sb
        grad[i] += sb
        grad[j] += a * cb
        hess[i, j] += cb
        hess[j, i] += cb
        hess[j, j] += -a * sb
        third[i, j] += -sb            # d3/da db^2 of a sin b
        third[j, j] += -a * cb        # d3/db^3
    return value, grad, hess, third


def product_derivatives(means: np.ndarray):
    """Value and derivatives of f = X1 * X2."""
    m1, m2 = means
    grad = np.array([m2, m1])
    hess = np.array([[0.0, 1.0], [1.0, 0.0]])
    return m1 * m2, grad, hess, np.zeros((2, 2))


def taylor_variance(grad, hess, third, variances, order: int) -> float:
    """GUM law of propagation; order 2 adds the JCGM 100 eq. (10) term."""
    v = np.asarray(variances)
    var = float(np.sum(grad**2 * v))
    if order == 2:
        var += float((0.5 * hess**2 + grad[:, None] * third) @ v @ v)
    return var


# ---------------------------------------------------------------------------
# Propagation reports
# ---------------------------------------------------------------------------

def _check_budget(budget, names, sensitivities, sds) -> list[str]:
    errors = []
    if [b["name"] for b in budget] != list(names):
        return [f"budget names {[b['name'] for b in budget]} != {list(names)}"]
    for b, c, s in zip(budget, sensitivities, sds):
        errors += _close(f"budget[{b['name']}].sensitivity", b["sensitivity"], c)
        errors += _close(f"budget[{b['name']}].u_input", b["u_input"], s)
        errors += _close(f"budget[{b['name']}].contribution",
                         b["contribution"], c * c * s * s)
    return errors


def _check_expanded(m: dict, k: float) -> list[str]:
    errors = _close("k", m["k"], k)
    errors += _close("U", m["U"], k * m["u"])
    errors += _close("interval[0]", m["interval"][0], m["y"] - m["U"])
    errors += _close("interval[1]", m["interval"][1], m["y"] + m["U"])
    return errors


def check_taylor(report: dict, ref: dict) -> list[str]:
    """taylor1/taylor2 against closed-form derivatives.

    ``ref`` holds names, sds, k, order and the value/grad/hess/third
    tuple of the model at the input means.
    """
    res = report["results"]
    m = res["measurement"]
    value, grad, hess, third = ref["derivatives"]
    sds = np.asarray(ref["sds"])
    var = taylor_variance(grad, hess, third, sds**2, ref["order"])
    errors = _close("y", m["y"], value)
    errors += _close("u^2", m["u"] ** 2, var)
    errors += _check_expanded(m, ref["k"])
    errors += _check_budget(res["budget"], ref["names"], grad, sds)
    return errors


def check_analytic(report: dict, ref: dict) -> list[str]:
    """Affine model y = c0 + c'X: y = c0 + c'mu and u^2 = c' Sigma c."""
    res = report["results"]
    m = res["measurement"]
    c = np.asarray(ref["coefficients"])
    sds = np.asarray(ref["sds"])
    cov = np.asarray(ref["correlation"]) * np.outer(sds, sds)
    errors = _close("y", m["y"], ref["offset"] + float(c @ ref["means"]))
    errors += _close("u^2", m["u"] ** 2, float(c @ cov @ c))
    errors += _check_expanded(m, ref["k"])
    errors += _check_budget(res["budget"], ref["names"], c, sds)
    return errors


def check_monte_carlo(report: dict, ref: dict) -> list[str]:
    """y and u within MC_Z standard errors of the reference moments.

    ``ref``: mean, sd and kurtosis of the output over valid draws, the
    probability p_fail that a draw leaves the model's domain, M and k.
    """
    m = report["results"]["measurement"]
    d = m.get("mc_diagnostics") or {}
    errors = []
    if d.get("M") != ref["M"]:
        return [f"mc_diagnostics.M {d.get('M')!r} != {ref['M']}"]
    n_fail = d["domain_error_count"]
    expected = ref["M"] * ref["p_fail"]
    slack = DOMAIN_Z * math.sqrt(expected * (1.0 - ref["p_fail"]))
    if abs(n_fail - expected) > slack + 0.5:
        errors.append(f"domain_error_count {n_fail} outside "
                      f"{expected:.1f} +/- {slack:.1f}")
    n = ref["M"] - n_fail
    sd, kurt = ref["sd"], ref["kurtosis"]
    se_y = sd / math.sqrt(n)
    se_u = sd * math.sqrt(max(kurt - 1.0, 0.0) / (4.0 * n))
    if not abs(m["y"] - ref["mean"]) <= MC_Z * se_y:
        errors.append(f"y {m['y']!r} not within {MC_Z} SE ({se_y:.3g}) of "
                      f"{ref['mean']!r}")
    if not abs(m["u"] - sd) <= MC_Z * se_u:
        errors.append(f"u {m['u']!r} not within {MC_Z} SE ({se_u:.3g}) of "
                      f"{sd!r}")
    errors += _close("mc_standard_error", d["mc_standard_error"],
                     m["u"] / math.sqrt(n))
    errors += _close("k", m["k"], ref["k"])
    errors += _close("U", m["U"], ref["k"] * m["u"])
    lo, hi = m["interval"]
    if not lo < m["y"] < hi:
        errors.append(f"interval {m['interval']} does not bracket y")
    return errors


def product_moments(means, sds) -> dict:
    """Exact moments of X1 * X2 for independent Gaussians."""
    (m1, m2), (s1, s2) = means, sds
    var = m2 * m2 * s1 * s1 + m1 * m1 * s2 * s2 + s1 * s1 * s2 * s2
    # the kurtosis only sizes the tolerance on u, so an independent
    # sample is precise enough for it
    rng = np.random.default_rng(20240601)
    y = rng.normal(m1, s1, KURTOSIS_DRAWS) * rng.normal(m2, s2, KURTOSIS_DRAWS)
    return {"mean": m1 * m2, "sd": math.sqrt(var),
            "kurtosis": _kurtosis(y), "p_fail": 0.0}


def _kurtosis(y: np.ndarray) -> float:
    c = y - y.mean()
    return float(np.mean(c**4) / np.mean(c**2) ** 2)


def mixed_moments(x1, x2, x3, x4) -> dict:
    """Moments of X1*X2/(1+X3) + sqrt(X4) + ln(X1^2 + X4^2) given X4 >= 0.

    x1 = (mean, sd) gaussian, x2 = (lower, upper) rectangular,
    x3 = (lower, mode, upper) triangular with lower > -1, x4 = (mean,
    sd) gaussian. Draws with X4 < 0 fall outside sqrt's domain; the
    program drops them, so the reference conditions on X4 >= 0. X1 is
    integrated by Gauss-Hermite, X3 and the truncated X4 by adaptive
    quadrature; terms couple only through X1 (A with C) and X4 (B with C).
    """
    m1, s1 = x1
    a2, b2 = x2
    a3, c3, b3 = x3
    m4, s4 = x4

    def tri_pdf(t):
        if t < c3:
            return 2.0 * (t - a3) / ((b3 - a3) * (c3 - a3)) if c3 > a3 else 0.0
        return 2.0 * (b3 - t) / ((b3 - a3) * (b3 - c3)) if b3 > c3 else 0.0

    def tri_mean(g):
        return integrate.quad(lambda t: g(t) * tri_pdf(t), a3, b3,
                              points=[c3], epsabs=0, epsrel=1e-13)[0]

    r1 = tri_mean(lambda t: 1.0 / (1.0 + t))
    r2 = tri_mean(lambda t: 1.0 / (1.0 + t) ** 2)
    e_x2 = 0.5 * (a2 + b2)
    e_x2sq = (a2 * a2 + a2 * b2 + b2 * b2) / 3.0

    nodes, weights = np.polynomial.hermite.hermgauss(60)
    x1k = m1 + math.sqrt(2.0) * s1 * nodes
    w1k = weights / math.sqrt(math.pi)

    p_valid = float(special.ndtr(m4 / s4))
    top = m4 + 12.0 * s4

    def e4(g):
        def f(t):
            return g(t) * math.exp(-0.5 * ((t - m4) / s4) ** 2)
        val = integrate.quad(f, 0.0, top, epsabs=0, epsrel=1e-13,
                             limit=200)[0]
        return val / (s4 * math.sqrt(2.0 * math.pi) * p_valid)

    def logs(t):
        return np.log(x1k**2 + t * t)

    e_a = m1 * e_x2 * r1
    e_a2 = (m1 * m1 + s1 * s1) * e_x2sq * r2
    e_b = e4(math.sqrt)
    e_b2 = e4(lambda t: t)
    e_c = e4(lambda t: float(w1k @ logs(t)))
    e_c2 = e4(lambda t: float(w1k @ logs(t) ** 2))
    e_bc = e4(lambda t: math.sqrt(t) * float(w1k @ logs(t)))
    e_x1c = e4(lambda t: float(w1k @ (x1k * logs(t))))
    e_ac = e_x2 * r1 * e_x1c

    mean = e_a + e_b + e_c
    second = e_a2 + e_b2 + e_c2 + 2.0 * (e_a * e_b + e_ac + e_bc)
    var = second - mean * mean

    rng = np.random.default_rng(20240602)
    n = KURTOSIS_DRAWS
    s_x4 = rng.normal(m4, s4, 4 * n)
    s_x4 = s_x4[s_x4 >= 0.0][:n]
    s_x1 = rng.normal(m1, s1, n)
    s_x2 = rng.uniform(a2, b2, n)
    s_x3 = rng.triangular(a3, c3, b3, n)
    y = s_x1 * s_x2 / (1.0 + s_x3) + np.sqrt(s_x4) + np.log(s_x1**2 + s_x4**2)
    return {"mean": mean, "sd": math.sqrt(var), "kurtosis": _kurtosis(y),
            "p_fail": 1.0 - p_valid}


# ---------------------------------------------------------------------------
# Virtual measurement
# ---------------------------------------------------------------------------

def check_train(report: dict, ref: dict) -> list[str]:
    """A fixed step budget runs to the last step and never converges."""
    t = report["results"]["training"]
    errors = []
    if t["family"] != ref["family"]:
        errors.append(f"family {t['family']!r} != {ref['family']!r}")
    if t["n_steps"] != ref["steps"]:
        errors.append(f"n_steps {t['n_steps']} != step budget {ref['steps']}")
    if t["converged"]:
        errors.append("converged under a fixed step budget")
    if t["n_weights"] != ref["n_weights"]:
        errors.append(f"n_weights {t['n_weights']} != {ref['n_weights']}")
    for key in ("initial_free_energy", "final_free_energy"):
        if not math.isfinite(t[key]):
            errors.append(f"{key} is not finite")
    return errors


def zone(y: float, U: float, lsl: float, usl: float) -> str:
    """The five-zone guard-band rule as the README states it."""
    if lsl + U <= y <= usl - U:
        return "conformity"
    if y < lsl - U:
        return "non_conformity_lower"
    if y > usl + U:
        return "non_conformity_upper"
    return "uncertainty_lower" if y <= 0.5 * (lsl + usl) else "uncertainty_upper"


def check_decision(d: dict, y: float, U: float, lsl: float,
                   usl: float) -> list[str]:
    errors = []
    want = zone(y, U, lsl, usl)
    if d["zone"] != want:
        errors.append(f"zone {d['zone']!r} != {want!r} for y={y!r} U={U!r}")
    no_zone = 2.0 * U >= usl - lsl
    if d["no_reliable_zone"] != no_zone:
        errors.append(f"no_reliable_zone {d['no_reliable_zone']} for U={U!r}")
    tol = None if no_zone else [lsl + U, usl - U]
    if d["resulting_tolerance"] != tol:
        errors.append(f"resulting_tolerance {d['resulting_tolerance']} != {tol}")
    if d["y"] != y or d["U"] != U:
        errors.append(f"echoed (y, U) ({d['y']!r}, {d['U']!r}) != ({y!r}, {U!r})")
    return errors


def check_conformity(report: dict, ref: dict) -> list[str]:
    decisions = report["results"]["decisions"]
    if len(decisions) != len(ref["measurements"]):
        return [f"{len(decisions)} decisions for "
                f"{len(ref['measurements'])} measurements"]
    errors = []
    for d, (y, U) in zip(decisions, ref["measurements"]):
        errors += check_decision(d, y, U, ref["lsl"], ref["usl"])
    return errors[:10]


def check_predict(report: dict, ref: dict) -> list[str]:
    """Variance identity, interval, decisions, and coverage of the truth.

    ``ref``: the parts (rows), the generator's true mean at each part,
    k, the spec, and the minimum share of parts whose k*sigma_hat
    interval must contain the true mean.
    """
    parts = report["results"]["parts"]
    rows, truth = ref["rows"], ref["true_mean"]
    if len(parts) != len(rows):
        return [f"{len(parts)} parts reported for {len(rows)} rows"]
    errors = []
    covered = 0
    lsl, usl = ref["spec"]
    for i, (p, row, mu) in enumerate(zip(parts, rows, truth)):
        if p["x"] != list(row):
            errors.append(f"part {i}: x {p['x']} != {list(row)}")
        s2 = p["aleatoric_var"] + p["epistemic_var"]
        errors += _close(f"part {i}: sigma_hat^2", p["sigma_hat"] ** 2, s2,
                         rtol=1e-12, atol=0.0)
        if p["aleatoric_var"] <= 0.0 or p["epistemic_var"] < 0.0:
            errors.append(f"part {i}: negative variance component")
        half = ref["k"] * p["sigma_hat"]
        errors += _close(f"part {i}: interval[0]", p["interval"][0],
                         p["y_hat"] - half)
        errors += _close(f"part {i}: interval[1]", p["interval"][1],
                         p["y_hat"] + half)
        errors += check_decision(p["conformity"], p["y_hat"], half, lsl, usl)
        covered += p["interval"][0] <= mu <= p["interval"][1]
    share = covered / len(parts)
    if share < ref["min_coverage"]:
        errors.append(f"true-mean coverage {share:.3f} < {ref['min_coverage']}")
    return errors[:10]


def check_verify(report: dict, ref: dict) -> list[str]:
    checks = report["results"]["conjugate_check"]
    return [] if checks["passed"] is True else [f"verify failed: {checks}"]
