"""Independent answer checks, run after the timed window.

Nothing here calls biorth.  The family sequences are evaluated from the
JSON configs with the benchmark's own Fraction arithmetic, null spaces
come from sympy, pFq sums from mpmath, and root counts from sympy's
Sturm sequences.  sympy and mpmath are imported lazily, so the timed
process's peak memory is read before they load.

Each check returns None when the answer is right and a one-line reason
when it is not.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import (
    PFQ_TERMS, QUAD_ORDERS, WEIGHT_FAMILIES, ZERO_DEGREE,
    family_config, family_name,
)

# Float-mode construction must match the exact answer to this relative
# error; float mode is documented to agree to about 1e-12 at n <= 8.
FLOAT_REL_TOL = 1e-10
# The CLI's own verify threshold for quadrature moment quotients.
QUAD_REL_TOL = 1e-9
# Converged float pFq sums against mpmath.
PFQ_REL_TOL = 1e-12


# ------------------------------------------------------ family sequences

def _rising(a, n):
    out = 1
    for k in range(n):
        out *= a + k
    return out


class Sequences:
    """alpha_n..delta_n of a polynomial-in-n family config, evaluated as
    sum_l c_l (-n)_l (for degree <= 1 that is the linear a_0 - n a_1)."""

    def __init__(self, spec):
        config = family_config(spec)
        if config.get("kind") != "polynomial":
            raise ValueError("checks cover polynomial-in-n configs only")
        self.lists = [[Fraction(v) for v in config.get(k, [])]
                      for k in "abcd"]
        self._cache = {}

    def quadruple(self, n):
        if n not in self._cache:
            self._cache[n] = tuple(
                sum((c * _rising(-n, ell) for ell, c in enumerate(cs)),
                    Fraction(0))
                for cs in self.lists)
        return self._cache[n]

    def moment(self, k, mu):
        out = Fraction(1)
        for ell in range(k):
            alpha, beta, gamma, delta = self.quadruple(ell)
            out *= (alpha + mu * beta) / (gamma + mu * delta)
        return out

    def quotient(self, n, mu):
        alpha, beta, gamma, delta = self.quadruple(n)
        return (alpha + mu * beta) / (gamma + mu * delta)

    def expansion_weights(self, n):
        """Coefficient of x^n in each mixed-basis polynomial B_k, which
        is prod_{j<k} beta_j * prod_{j=k}^{n-1} delta_j."""
        quads = [self.quadruple(j) for j in range(n)]
        return [math.prod((q[1] for q in quads[:k]), start=Fraction(1))
                * math.prod((q[3] for q in quads[k:]), start=Fraction(1))
                for k in range(n + 1)]


# ------------------------------------------------------------ construction

def null_vector(seq: Sequences, mu):
    """The exact null vector of M[l][k] = m_k(mu_l), scaled so the
    mixed-basis expansion of sum f_k B_k is monic, or a reason."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(mu)
    if n == 0:
        v = [Fraction(1)]
    else:
        rows = [[QQ(m.numerator, m.denominator)
                 for m in (seq.moment(k, x) for k in range(n + 1))]
                for x in mu]
        space = DomainMatrix(rows, (n, n + 1), QQ).nullspace().to_Matrix()
        if space.rows != 1:
            return None, f"null space has dimension {space.rows}"
        v = [Fraction(int(e.p), int(e.q)) for e in space.row(0)]
    scale = sum(a * b for a, b in zip(v, seq.expansion_weights(n)))
    if scale == 0:
        return None, "null vector has no monic expansion"
    return [x / scale for x in v], None


def check_exact_f(seq, mu, f, normalization="expansion"):
    """f must span the moment matrix's null space with the requested
    scale: monic mixed-basis expansion, or last nonzero entry one."""
    f = [Fraction(x) for x in f]
    ref, why = null_vector(seq, mu)
    if why:
        return why
    if len(f) != len(ref):
        return f"f has {len(f)} entries, expected {len(ref)}"
    if normalization == "expansion":
        return None if f == ref else "f differs from the exact null vector"
    lead = next(x for x in reversed(ref) if x != 0)
    return None if f == [x / lead for x in ref] else \
        "f differs from the leading-one null vector"


def float_rel_error(seq, mu, f):
    ref, why = null_vector(seq, mu)
    if why:
        return math.inf
    if len(f) != len(ref):
        return math.inf
    scale = max(abs(float(x)) for x in ref)
    return max(abs(float(a) - float(b)) for a, b in zip(f, ref)) / scale


def check_nodes(outcome, seq):
    if any(r != 0 for r in outcome["residuals"]):
        return "nonzero orthogonality residual"
    if outcome["path"] != "divided-difference":
        return f"auto path took {outcome['path']} on a node family"
    mu = outcome["mu"]
    f = outcome["f"]
    for x in mu:
        if sum(fk * seq.moment(k, x) for k, fk in enumerate(f)) != 0:
            return f"f is not orthogonal to m(mu={x})"
    return check_exact_f(seq, mu, f)


# ---------------------------------------------------------------- commands

def _mu_arg(argv):
    return [Fraction(x) for x in argv[argv.index("--mu") + 1].split(",")]


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_command(outcome):
    """Check one CLI call; the kind is read back from its argv."""
    argv = outcome["argv"]
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}: " \
            f"{outcome['stderr'].strip()[:100]}"
    payload = json.loads(outcome["stdout"])
    command, family = argv[0], argv[2]
    seq = Sequences(family)
    exact = _opt(argv, "--mode", "exact") == "exact"
    if command == "poly":
        mu = _mu_arg(argv)
        if not exact:
            err = float_rel_error(seq, mu, payload["f"])
            return None if err <= FLOAT_REL_TOL else \
                f"float f has relative error {err:.3g}"
        if any(r != "0" for r in payload["residuals"]):
            return "nonzero orthogonality residual"
        path = _opt(argv, "--path", "auto")
        if payload["path"] == "divided-difference" or \
                (path != "auto" and payload["path"] != path):
            return f"unexpected path {payload['path']}"
        f = [Fraction(x) for x in payload["f"]]
        if [Fraction(x) for x in payload["p"]] != \
                f[:len(payload["p"])] or any(f[len(payload["p"]):]):
            return "p does not carry the coefficients of f"
        return check_exact_f(seq, mu, f,
                             _opt(argv, "--normalization", "expansion"))
    if command == "sweep":
        mu = _mu_arg(argv)
        if [row["n"] for row in payload["rows"]] != list(range(len(mu) + 1)):
            return "sweep rows do not cover every prefix"
        for row in payload["rows"]:
            # degree 0 meets the node hypotheses vacuously on jacobi
            if row["path"] == "divided-difference" and row["n"] > 0:
                return "sweep took the divided-difference route"
            why = check_exact_f(seq, mu[:row["n"]],
                                [Fraction(x) for x in row["f"]])
            if why:
                return f"row n={row['n']}: {why}"
        return None
    if command == "moments":
        n = int(_opt(argv, "--n"))
        for row, x in zip(payload["moments"], _mu_arg(argv)):
            values = [Fraction(v) for v in row["values"]]
            if values != [seq.moment(k, x) for k in range(n + 1)]:
                return f"moments at mu={x} differ"
        return None
    if command == "verify":
        n_max = int(_opt(argv, "--n"))
        if payload["failed"] != 0:
            return f"{payload['failed']} verify checks failed"
        for n in range(1, n_max + 1):
            names = {c["name"] for c in payload["checks"] if c["n"] == n}
            skipped = any(w.startswith(f"n={n}: skipped")
                          for w in payload["warnings"])
            if not skipped and not {"path-equivalence",
                                    "orthogonality"} <= names:
                return f"verify has no construction checks at n={n}"
        quads = [c for c in payload["checks"] if c["name"] == "quadrature"]
        if len(quads) + sum("quadrature skipped" in w
                            for w in payload["warnings"]) != 2:
            return "verify did not run both quadrature checks"
        return None
    return f"no check for command {command}"


# ------------------------------------------------------------------ weight

# theta as an analytic function of mu for each weight-workload family
# (the largest indicial root, derived by hand; the cubic-s3 factorization
# is stated in workloads.py)
EXPECTED_THETA = {
    "jacobi": lambda mu: mu - 1,
    "power-weight": lambda mu: 1 / mu - 1,
    "bessel-case": lambda mu: 4 * mu - 2,
    "confluent-s2": lambda mu: 4 * mu - 2,
    "cubic-s3": lambda mu: 9 * mu - 3,
}


def pfq_partial_sum(upper, lower, z, terms):
    """sum_{n=0}^{terms} prod (u)_n / prod (l)_n z^n / n!, exactly."""
    total = Fraction(0)
    for n in range(terms + 1):
        num = math.prod((_rising(u, n) for u in upper), start=Fraction(1))
        den = math.prod((_rising(v, n) for v in lower), start=Fraction(1))
        total += num / den * Fraction(z) ** n / math.factorial(n)
    return total


def series_closed_form(form, terms):
    """y_n = nu^n prod (upper)_n / (n! prod (lower)_n)."""
    out = []
    for n in range(terms + 1):
        num = Fraction(form.nu) ** n * math.prod(
            (_rising(u, n) for u in form.upper), start=Fraction(1))
        den = math.factorial(n) * math.prod(
            (_rising(v, n) for v in form.lower), start=Fraction(1))
        out.append(num / den)
    return out


def sturm_verdict(coeffs, support):
    """True when the polynomial (lowest degree first) is squarefree and
    has all its roots real and strictly inside the support, by sympy's
    Sturm-sequence root count."""
    from sympy import Poly, QQ, Symbol

    x = Symbol("x")
    p = Poly([QQ(c.numerator, c.denominator) for c in reversed(coeffs)],
             x, domain=QQ)
    if p.gcd(p.diff(x)).degree() > 0:
        return False
    inside = p.count_roots(0, 1 if support == "(0,1)" else None)
    inside -= int(p.eval(0) == 0)
    if support == "(0,1)":
        inside -= int(p.eval(1) == 0)
    return inside == p.degree()


def check_weight(outcome):
    import mpmath

    name, mu, theta = outcome["family"], outcome["mu"], outcome["theta"]
    if theta != EXPECTED_THETA[name](mu):
        return f"theta {theta} is not the expected indicial root"
    seq = Sequences(_weight_spec(name))
    if outcome["s"] != max(len(v) for v in seq.lists) - 1:
        return f"ODE order {outcome['s']} differs from the family degree"
    residual = outcome["residual"]
    if residual.max_abs != 0 or any(c != 0 for c in residual.coefficients):
        return "ode_residual is not exactly zero"
    form = outcome["form"]
    y = outcome["series"]
    if y != series_closed_form(form, len(y) - 1):
        return "series differs from the Pochhammer closed form"
    z = outcome["z"]
    exact = outcome["pfq_exact"]
    if exact.value != pfq_partial_sum(form.upper, form.lower, z, PFQ_TERMS):
        return "exact pFq partial sum differs"
    mpmath.mp.dps = 30
    ref = mpmath.hyper([mpmath.mpf(u.numerator) / u.denominator
                        for u in map(Fraction, form.upper)],
                       [mpmath.mpf(v.numerator) / v.denominator
                        for v in map(Fraction, form.lower)],
                       mpmath.mpf(z.numerator) / z.denominator)
    err = abs(outcome["pfq_float"].value - ref) / abs(ref)
    if err > PFQ_REL_TOL:
        return f"float pFq differs from mpmath by {float(err):.3g}"
    qseq = Sequences(outcome["quad_family"])
    e, qmu = outcome["exponent"], outcome["quad_mu"]
    for n in range(QUAD_ORDERS):
        if qseq.quotient(n, qmu) != (n + e + 1) / (n + e + 2):
            return f"family quotient {n} is not (n+e+1)/(n+e+2)"
    errors = outcome["quad_errors"]
    if len(errors) != QUAD_ORDERS or max(errors) > QUAD_REL_TOL:
        return f"quadrature quotient error {max(errors):.3g}"
    zseq = Sequences(outcome["zero_family"])
    coeffs = list(outcome["zero_poly"])
    coeffs += [0] * (ZERO_DEGREE + 1 - len(coeffs))
    why = check_exact_f(zseq, outcome["zero_mu"], coeffs)
    if why:
        return f"zero-location polynomial: {why}"
    support = family_config(outcome["zero_family"])["support"]
    if outcome["zeros"].passed != sturm_verdict(outcome["zero_poly"],
                                                support):
        return "zero-location verdict disagrees with the Sturm count"
    return None


def _weight_spec(name):
    return next(s for s in WEIGHT_FAMILIES if family_name(s) == name)
