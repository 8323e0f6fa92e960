"""Moebius-quotient moment families.

A family supplies four scalar sequences alpha_n, beta_n, gamma_n,
delta_n, and its moments are the telescoping products

    m_n(mu) = prod_{l<n} (alpha_l + mu beta_l) / (gamma_l + mu delta_l),

normalized so m_0 is identically 1.  Families come in two kinds: the
sequences given by polynomials in n (coefficient lists in the falling
Pochhammer basis (-n)_l, which for degree <= 1 is the plain linear form
a_0 - n a_1), or an explicit per-n rule.  Everything downstream --
node lists, factor polynomials, validity predicates, existence
determinants -- reads the sequences through this one interface, and a
family computes each quadruple once.

Every consumer of moment values reads them from one table:
moment_row(family, n, x) is the row [m_0(x), ..., m_n(x)], built as a
single running product that checks each denominator factor for a pole.
The existence determinant, the oracle matrix, the residuals, the
divided-difference triangle (row l at the node lambda_l) and the CLI
all take their moments from it.  validity_check needs no moments at
all: m_j(lambda_l) = prod_{i<j} g_i(lambda_l) / h_i(lambda_l) with
g_i(lambda_l) = (alpha_i beta_l - beta_i alpha_l) / beta_l and
h_i(lambda_l) = -(alpha_l delta_i - beta_l gamma_i) / beta_l, so its
moment_nonzero entries follow from the node and cross-product
predicates.  moment_rational keeps m_n as a rational function of mu.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .errors import BetaZero, ConfigError, PoleAt
from .linalg import determinant
from .polynomials import Polynomial, RationalFunction
from .scalars import all_exact, is_exact, parse_rational, pochhammer

KIND_POLYNOMIAL = "polynomial-in-n"
KIND_EXPLICIT = "explicit-sequence"

_SUPPORTS = ("(0,1)", "(0,inf)")
_BASES = ("linear-2.1", "pochhammer-3")


def _eval_poch_poly(coeffs, n):
    """Sum of c_l * (-n)_l; exact when the coefficients are exact."""
    total = 0
    for ell, c in enumerate(coeffs):
        if c == 0:
            continue
        total = total + c * pochhammer(-n, ell)
    return total


class MqfFamily:
    """Immutable family of Moebius-quotient moment data.

    For the polynomial kind, a/b/c/d are coefficient tuples over the
    basis (-n)_l.  For the explicit kind, rule(n) returns the quadruple
    (alpha_n, beta_n, gamma_n, delta_n).  Each quadruple is computed
    once and kept, so a stochastic or expensive rule still yields a
    stable family; the cache holds at most one entry per index asked
    for.
    """

    __slots__ = ("_kind", "_a", "_b", "_c", "_d", "_rule", "_support",
                 "_weight_form", "_name", "_quads")

    def __init__(self, kind, a=(), b=(), c=(), d=(), rule=None,
                 support="(0,1)", weight_form=None, name=""):
        if kind not in (KIND_POLYNOMIAL, KIND_EXPLICIT):
            raise ConfigError(f"unknown family kind: {kind!r}")
        if support not in _SUPPORTS:
            raise ConfigError(f"unknown support: {support!r}")
        if kind == KIND_EXPLICIT:
            if rule is None:
                raise ConfigError("explicit-sequence kind needs a rule")
        elif rule is not None:
            raise ConfigError("polynomial-in-n kind takes no rule")
        self._kind = kind
        self._a = tuple(a)
        self._b = tuple(b)
        self._c = tuple(c)
        self._d = tuple(d)
        self._rule = rule
        self._support = support
        self._weight_form = dict(weight_form) if weight_form else None
        self._name = name
        self._quads = {}

    kind = property(lambda self: self._kind)
    a = property(lambda self: self._a)
    b = property(lambda self: self._b)
    c = property(lambda self: self._c)
    d = property(lambda self: self._d)
    support = property(lambda self: self._support)
    name = property(lambda self: self._name)

    @property
    def weight_form(self):
        return dict(self._weight_form) if self._weight_form else None

    @property
    def degree_s(self) -> int:
        """Polynomial degree s = max degree over the four sequences."""
        if self._kind != KIND_POLYNOMIAL:
            raise ConfigError("degree s is defined for polynomial-in-n only")
        return max(len(self._a), len(self._b), len(self._c), len(self._d)) - 1

    def quadruple(self, n: int):
        """(alpha_n, beta_n, gamma_n, delta_n), computed once per index."""
        quad = self._quads.get(n)
        if quad is not None:
            return quad
        if n < 0:
            raise ValueError("sequence index must be nonnegative")
        if self._kind == KIND_EXPLICIT:
            quad = tuple(self._rule(n))
            if len(quad) != 4:
                raise ConfigError("rule must return a quadruple")
        else:
            quad = (
                _eval_poch_poly(self._a, n),
                _eval_poch_poly(self._b, n),
                _eval_poch_poly(self._c, n),
                _eval_poch_poly(self._d, n),
            )
        self._quads[n] = quad
        return quad

    def quadruples(self, n: int):
        """Yield the quadruples of indices 0..n-1 in order, each computed
        at most once over the family's lifetime."""
        quads = self._quads
        for k in range(n):
            quad = quads.get(k)
            yield quad if quad is not None else self.quadruple(k)

    def alpha(self, n):
        return self.quadruple(n)[0]

    def beta(self, n):
        return self.quadruple(n)[1]

    def gamma(self, n):
        return self.quadruple(n)[2]

    def delta(self, n):
        return self.quadruple(n)[3]

    def __repr__(self):
        tag = self._name or self._kind
        return f"MqfFamily({tag!r})"


def gh_factors(family: MqfFamily, k: int):
    """The degree-<=1 factor pair (g_k, h_k) with g_k = alpha_k + mu beta_k
    and h_k = gamma_k + mu delta_k, as polynomials in mu."""
    alpha, beta, gamma, delta = family.quadruple(k)
    return Polynomial((alpha, beta)), Polynomial((gamma, delta))


def moment_row(family: MqfFamily, n: int, x):
    """The moment table row [m_0(x), ..., m_n(x)] at one scalar x.

    One running product: each entry is the previous one times
    (alpha_l + x beta_l) / (gamma_l + x delta_l), so float rows match
    a per-entry evaluation bit for bit.  Raises PoleAt at the first
    denominator factor gamma_l + x delta_l that vanishes.
    """
    if n < 0:
        raise ValueError("moment index must be nonnegative")
    value = 1
    row = [value]
    for ell, (alpha, beta, gamma, delta) in enumerate(family.quadruples(n)):
        den = gamma + x * delta
        if den == 0:
            raise PoleAt(x, detail=f"denominator factor {ell} vanishes")
        value = value * (alpha + x * beta) / den
        row.append(value)
    return row


def moment(family: MqfFamily, n: int, mu):
    """m_n(mu) as a scalar, the last entry of moment_row; n = 0 is the
    empty product 1.

    Raises PoleAt when a denominator factor gamma_l + mu delta_l
    vanishes for some l < n.
    """
    return moment_row(family, n, mu)[-1]


def moment_rational(family: MqfFamily, n: int) -> RationalFunction:
    """m_n as a rational function of mu, cancelled in exact mode."""
    if n < 0:
        raise ValueError("moment index must be nonnegative")
    num = Polynomial((1,))
    den = Polynomial((1,))
    for ell in range(n):
        g, h = gh_factors(family, ell)
        num = num * g
        den = den * h
    return RationalFunction(num, den)


def lambda_node(family: MqfFamily, j: int):
    """The node lambda_j = -alpha_j / beta_j; exact for exact data."""
    alpha, beta, _, _ = family.quadruple(j)
    if beta == 0:
        raise BetaZero(j)
    if is_exact(alpha) and is_exact(beta):
        return -Fraction(alpha) / Fraction(beta)
    return -alpha / beta


class ValidityReport:
    """Predicate sheet for the triangular-solve hypotheses at degree n.

    cross_condition[l][k] records alpha_l delta_k - beta_l gamma_k != 0
    for l = 0..n, k = 0..n-1.  moment_nonzero[l][j] records that the
    product prod_{i<j} g_i(lambda_l) / h_i(lambda_l) -- the value
    m_j(lambda_l) the divided-difference solve divides by -- is finite
    and nonzero for l > j (entries with l <= j are None).
    theorem3_applicable is the conjunction of everything.
    """

    __slots__ = ("n", "beta_nonzero", "lambda_distinct", "cross_condition",
                 "moment_nonzero", "theorem3_applicable")

    def __init__(self, n, beta_nonzero, lambda_distinct, cross_condition,
                 moment_nonzero):
        self.n = n
        self.beta_nonzero = tuple(beta_nonzero)
        self.lambda_distinct = lambda_distinct
        self.cross_condition = tuple(tuple(row) for row in cross_condition)
        self.moment_nonzero = tuple(tuple(row) for row in moment_nonzero)
        ok = all(self.beta_nonzero) and self.lambda_distinct
        ok = ok and all(all(row) for row in self.cross_condition)
        ok = ok and all(v for row in self.moment_nonzero for v in row
                        if v is not None)
        self.theorem3_applicable = ok

    def __repr__(self):
        return (f"ValidityReport(n={self.n}, "
                f"theorem3_applicable={self.theorem3_applicable})")


def _nonzero(value, scale) -> bool:
    if is_exact(value):
        return value != 0
    return abs(value) > 1e-12 * max(1.0, scale)


def validity_check(family: MqfFamily, n: int) -> ValidityReport:
    """Evaluate every hypothesis the node-based construction relies on.

    Failures are reported, never raised; n = 0 is vacuously applicable.
    moment_nonzero is derived rather than evaluated: m_j(lambda_l) for
    l > j is finite and nonzero exactly when beta_l != 0 and, for every
    i < j, beta_i != 0, lambda_i != lambda_l and cross_condition[l][i].
    """
    quads = list(family.quadruples(n + 1))
    beta_nonzero = []
    lambdas = []
    for ell, (alpha, beta, _, _) in enumerate(quads):
        ok = _nonzero(beta, abs(alpha) if not is_exact(beta) else 0)
        beta_nonzero.append(ok)
        lambdas.append(lambda_node(family, ell) if ok else None)

    seen = [lam for lam in lambdas if lam is not None]
    exact_nodes = all(is_exact(v) for v in seen)

    def apart(x, y):
        if exact_nodes:
            return x != y
        return abs(x - y) > 1e-12 * max(1.0, abs(x), abs(y))

    lambda_distinct = all(apart(x, y)
                          for i, x in enumerate(seen) for y in seen[:i])

    cross = []
    for alpha_l, beta_l, _, _ in quads:
        row = []
        for _, _, gamma_k, delta_k in quads[:n]:
            value = alpha_l * delta_k - beta_l * gamma_k
            scale = abs(alpha_l * delta_k) + abs(beta_l * gamma_k)
            row.append(_nonzero(value, scale))
        cross.append(row)

    moment_ok = []
    for ell, lam in enumerate(lambdas):
        row = []
        ok = lam is not None
        for j in range(n):
            if ell <= j:
                row.append(None)
                continue
            row.append(ok)
            ok = ok and lambdas[j] is not None \
                and apart(lambdas[j], lam) and cross[ell][j]
        moment_ok.append(row)

    return ValidityReport(n, beta_nonzero, lambda_distinct, cross, moment_ok)


def pole_screen(family: MqfFamily, mu_list) -> None:
    """Raise what existence_determinant raises before its elimination.

    That is PoleAt for the first (l, j), l-major, with
    h_j(mu_l) = gamma_j + mu_l delta_j = 0 and j < n = len(mu_list), or
    the error of a quadruple the family cannot supply, which the
    determinant meets inside mu_0's row, after any pole of that row at a
    lower index.  Exact data take O(n) work: each factor's root
    -gamma_j/delta_j is computed once and each mu looked up (an
    identically zero h_j is a pole at every mu).  Inexact data take the
    determinant's own rows, moment_row at each mu, so a float h_j(mu_l)
    that rounds to zero is a pole here too.
    """
    n = len(mu_list)
    try:
        factors = [quad[2:] for quad in family.quadruples(n)]
    except Exception:
        # mu_0's row meets its poles below the bad index first
        moment_row(family, n, mu_list[0])
        raise
    if not (all_exact(mu_list) and all(map(all_exact, factors))):
        for mu in mu_list:
            moment_row(family, n, mu)
        return
    always = next((j for j, (gamma, delta) in enumerate(factors)
                   if gamma == 0 and delta == 0), n)
    first_root = {}
    for j, (gamma, delta) in enumerate(factors[:always]):
        if delta != 0:
            first_root.setdefault(Fraction(-gamma, delta), j)
    for mu in mu_list:
        j = min(first_root.get(mu, n), always)
        if j < n:
            raise PoleAt(mu, detail=f"denominator factor {j} vanishes")


def existence_determinant(family: MqfFamily, mu_list):
    """det[m_j(mu_l)] for l over the given mu values and j = 0..n-1.

    Nonvanishing is exactly the existence-and-uniqueness test for the
    degree-n biorthogonal polynomial at those parameter values.  The rows
    are built through m_n, so a vanishing gamma_j + mu_l delta_j, j < n,
    raises PoleAt even for j = n-1, whose factor only m_n contains.
    biorthogonal_poly certifies existence from its route's answer
    instead and computes this O(n^3) determinant only when a route
    fails; it stays as that cold path and as the tests' oracle.
    """
    n = len(mu_list)
    return determinant([moment_row(family, n, mu)[:n] for mu in mu_list])


def _parse_scalar_list(values, field):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"field {field!r} must be a list")
    out = []
    for v in values:
        if isinstance(v, bool):
            raise ConfigError(f"field {field!r} has a boolean entry")
        if isinstance(v, (int, str)):
            try:
                out.append(parse_rational(v) if isinstance(v, str) else Fraction(v))
            except ValueError as exc:
                raise ConfigError(f"field {field!r}: {exc}") from exc
        elif isinstance(v, float):
            out.append(v)
        else:
            raise ConfigError(f"field {field!r} has a non-scalar entry")
    return tuple(out)


def family_from_config(config: dict) -> MqfFamily:
    """Build a family from the JSON config schema.

    Accepted shape: {"name", "kind": "polynomial" | "explicit-table",
    "a"/"b"/"c"/"d" as lists of "p/q" strings (polynomial kind),
    "table" as a list of per-n quadruples (explicit-table kind),
    "basis": "linear-2.1" | "pochhammer-3", "support", "weight_form"}.
    """
    if not isinstance(config, dict):
        raise ConfigError("family config must be a JSON object")
    name = config.get("name", "")
    kind = config.get("kind")
    support = config.get("support", "(0,1)")
    weight_form = config.get("weight_form")
    if weight_form is not None and not isinstance(weight_form, dict):
        raise ConfigError("weight_form must be an object")
    if kind == "polynomial":
        basis = config.get("basis", "pochhammer-3")
        if basis not in _BASES:
            raise ConfigError(f"unknown basis: {basis!r}")
        lists = {f: _parse_scalar_list(config.get(f, []), f)
                 for f in ("a", "b", "c", "d")}
        if basis == "linear-2.1":
            too_long = [f for f, v in lists.items() if len(v) > 2]
            if too_long:
                raise ConfigError(
                    f"basis linear-2.1 allows at most two coefficients, "
                    f"got more in {too_long}")
        return MqfFamily(KIND_POLYNOMIAL, support=support, name=name,
                         weight_form=weight_form, **lists)
    if kind == "explicit-table":
        table = config.get("table")
        if not isinstance(table, list) or not table:
            raise ConfigError("explicit-table kind needs a nonempty table")
        rows = []
        for i, row in enumerate(table):
            quad = _parse_scalar_list(row, f"table[{i}]")
            if len(quad) != 4:
                raise ConfigError(f"table[{i}] must have four entries")
            rows.append(quad)
        rows = tuple(rows)

        def rule(n, _rows=rows):
            if n >= len(_rows):
                raise ConfigError(
                    f"explicit table covers n < {len(_rows)}, got n = {n}")
            return _rows[n]

        return MqfFamily(KIND_EXPLICIT, rule=rule, support=support,
                         name=name, weight_form=weight_form)
    raise ConfigError(f"unknown family config kind: {kind!r}")


def load_family(path) -> MqfFamily:
    """Read a JSON family config from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return family_from_config(config)
