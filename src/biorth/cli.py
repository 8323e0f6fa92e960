"""Command-line front end.

    biorth <command> --family PATH --mu LIST --n INT
           --mode exact|float --normalization expansion|leading-one
           --output json|csv --seed INT

Commands: moments, poly, verify, ode, hyper, sweep.  Family configs are
JSON files; a bare name (jacobi, power-weight, bessel-case) resolves to
the bundled configs.  Exact-mode payloads carry every number as a
"p/q" string so JSON never sees a decimal; float mode emits numbers.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
or arguments, 3 singular or degenerate mathematical input.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .construction import (
    NORM_EXPANSION,
    NORM_LEADING_ONE,
    PATH_DIVIDED,
    biorthogonal_poly,
    expand_in_mixed_basis,
    oracle_nullspace,
    orthogonality_residuals,
)
from .errors import BiorthError, ConfigError, QuadratureFailure
from .families import (
    MqfFamily,
    family_from_config,
    lambda_node,
    load_family,
    moment_row,
    validity_check,
)
from .hyper import hypergeometric_form
from .odes import (
    GATE_DEGREE,
    GATE_UNIT,
    frobenius_ode,
    indicial_roots,
    linear_closed_form,
    linear_ode,
    select_theta,
    series_coefficients,
)
from .quadrature import verify_moment_quotient
from .scalars import all_exact, format_scalar, parse_rational, to_float

SERIES_LENGTH = 10
QUADRATURE_MU = (Fraction(3, 2), Fraction(2))
QUADRATURE_ORDERS = 4


@dataclass(frozen=True)
class RunConfig:
    command: str
    family_path: str
    mu: tuple
    n: int
    mode: str
    normalization: str
    output: str
    seed: int
    path: str
    theta_gate: str


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biorth",
        description="Biorthogonal polynomials of Moebius-quotient "
                    "weight families.")
    parser.add_argument("command",
                        choices=("moments", "poly", "verify", "ode",
                                 "hyper", "sweep"))
    parser.add_argument("--family", required=True,
                        help="family config path or bundled name")
    parser.add_argument("--mu", default="",
                        help="comma-separated rational parameter values")
    parser.add_argument("--n", type=int, default=None,
                        help="degree / order bound (command-dependent)")
    parser.add_argument("--mode", choices=("exact", "float"),
                        default="exact")
    parser.add_argument("--normalization",
                        choices=(NORM_EXPANSION, NORM_LEADING_ONE),
                        default=NORM_EXPANSION)
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--path",
                        choices=("auto", "mixed-basis", "divided-difference",
                                 "oracle"),
                        default="auto",
                        help="construction path for poly/sweep")
    parser.add_argument("--theta-gate", choices=(GATE_UNIT, GATE_DEGREE),
                        default=GATE_UNIT,
                        help="admissibility rule for the Frobenius exponent")
    return parser


def parse_config(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    mu = []
    if args.mu.strip():
        for chunk in args.mu.split(","):
            value = parse_rational(chunk)
            mu.append(value if args.mode == "exact" else float(value))
    return RunConfig(args.command, args.family, tuple(mu), args.n,
                     args.mode, args.normalization, args.output, args.seed,
                     args.path, args.theta_gate)


def resolve_family(spec: str) -> MqfFamily:
    path = Path(spec)
    if path.is_file():
        return load_family(path)
    name = spec if spec.endswith(".json") else spec + ".json"
    candidate = resources.files("biorth").joinpath("data", name)
    if candidate.is_file():
        return family_from_config(json.loads(candidate.read_text()))
    raise ConfigError(f"no family config at {spec!r} and no bundled "
                      f"family of that name")


def _ser(value, mode: str):
    """One scalar, JSON-ready: exact mode renders every number as a
    string through format_scalar, float mode emits JSON numbers.
    Complex values are strings in both modes."""
    if isinstance(value, complex):
        return format_scalar(value)
    if mode == "float":
        return to_float(value)
    return format_scalar(value)


def _ser_list(values, mode: str):
    return [_ser(v, mode) for v in values]


def cmd_moments(cfg: RunConfig, family: MqfFamily) -> dict:
    if not cfg.mu:
        raise ConfigError("moments needs at least one --mu value")
    n = cfg.n if cfg.n is not None else 6
    rows = []
    for mu in cfg.mu:
        values = moment_row(family, n, mu) if n >= 0 else []
        rows.append({"mu": _ser(mu, cfg.mode),
                     "values": _ser_list(values, cfg.mode)})
    return {"moments": rows, "warnings": []}


def cmd_poly(cfg: RunConfig, family: MqfFamily) -> dict:
    result = biorthogonal_poly(family, list(cfg.mu), path=cfg.path,
                               normalization=cfg.normalization)
    residuals = orthogonality_residuals(family, result.f, cfg.mu)
    return {
        "f": _ser_list(result.f, cfg.mode),
        "p": _ser_list(result.p.coeffs, cfg.mode),
        "path": result.path,
        "qtilde": _ser_list(result.qtilde, cfg.mode)
        if result.qtilde is not None else None,
        "lambda": _ser_list(result.lambda_nodes, cfg.mode)
        if result.lambda_nodes is not None else None,
        "residuals": _ser_list(residuals, cfg.mode),
        "warnings": [],
    }


def cmd_ode(cfg: RunConfig, family: MqfFamily) -> dict:
    if not cfg.mu:
        raise ConfigError("ode needs one --mu value")
    mu = cfg.mu[0]
    ode = frobenius_ode(family, mu)
    payload = {
        "s": ode.s,
        "p": _ser_list(ode.p, cfg.mode),
        "q": _ser_list(ode.q, cfg.mode),
        "linear": None,
        "warnings": [],
    }
    if ode.s <= 1:
        lin = linear_ode(family, mu)
        e1, e2 = linear_closed_form(lin)
        payload["linear"] = {
            "sigma": _ser_list((lin.sigma0, lin.sigma1), cfg.mode),
            "rho": _ser_list((lin.rho0, lin.rho1), cfg.mode),
            "e1": _ser(e1, cfg.mode),
            "e2": _ser(e2, cfg.mode),
        }
    return payload


def cmd_hyper(cfg: RunConfig, family: MqfFamily) -> dict:
    if not cfg.mu:
        raise ConfigError("hyper needs one --mu value")
    mu = cfg.mu[0]
    ode = frobenius_ode(family, mu)
    roots = indicial_roots(ode)
    theta = select_theta(roots, ode.s, cfg.theta_gate)
    if theta is None:
        raise BiorthError(
            f"no indicial root passes the {cfg.theta_gate} gate")
    form = hypergeometric_form(ode, theta)
    series = series_coefficients(ode, theta, SERIES_LENGTH - 1)
    warnings = []
    if cfg.mode == "exact":
        # An irrational indicial root is carried as a float from there on;
        # say which fields that reached instead of passing them off as exact.
        inexact = [name for name, values in (
            ("roots", roots.with_multiplicity()), ("theta", (theta,)),
            ("upper", form.upper), ("lower", form.lower),
            ("nu", (form.nu,)), ("series", series))
            if not all_exact(values)]
        if inexact:
            warnings.append(f"{', '.join(inexact)}: float values, "
                            "not exact rationals")
    return {
        "s": ode.s,
        "roots": _ser_list(roots.with_multiplicity(), cfg.mode),
        "theta": _ser(theta, cfg.mode),
        "s1": form.s1,
        "s2": form.s2,
        "upper": _ser_list(form.upper, cfg.mode),
        "lower": _ser_list(form.lower, cfg.mode),
        "nu": _ser(form.nu, cfg.mode),
        "series": _ser_list(series, cfg.mode),
        "warnings": warnings,
    }


def cmd_sweep(cfg: RunConfig, family: MqfFamily) -> dict:
    n = cfg.n if cfg.n is not None else len(cfg.mu)
    if n > len(cfg.mu):
        raise ConfigError(f"sweep to degree {n} needs at least {n} "
                          f"--mu values, got {len(cfg.mu)}")
    rows = []
    for k in range(n + 1):
        mu = list(cfg.mu[:k])
        result = biorthogonal_poly(family, mu, path=cfg.path,
                                   normalization=cfg.normalization)
        rows.append({
            "n": k,
            "mu": _ser_list(mu, cfg.mode),
            "f": _ser_list(result.f, cfg.mode),
            "path": result.path,
        })
    return {"rows": rows, "max_n": n, "warnings": []}


def _draw_mu(rng: random.Random, n: int, mode: str):
    while True:
        if mode == "exact":
            values = [Fraction(rng.randint(1, 24), rng.randint(1, 6))
                      for _ in range(n)]
        else:
            values = [round(rng.uniform(0.5, 8.0), 6) for _ in range(n)]
        if len(set(values)) == n:
            return values


def _residual_scale(family, f, mu_list):
    scale = 0.0
    for mu in mu_list:
        row = moment_row(family, len(f) - 1, mu)
        for k in range(len(f)):
            scale = max(scale, abs(to_float(f[k]) * to_float(row[k])))
    return max(scale, 1e-300)


def cmd_verify(cfg: RunConfig, family: MqfFamily) -> dict:
    n_max = cfg.n if cfg.n is not None else 6
    rng = random.Random(cfg.seed)
    checks = []
    warnings = []

    def add(name, n, passed, detail=""):
        checks.append({"name": name, "n": n, "passed": bool(passed),
                       "detail": detail})

    for n in range(1, n_max + 1):
        mu = _draw_mu(rng, n, cfg.mode)
        try:
            auto = biorthogonal_poly(family, mu)
            oracle = oracle_nullspace(family, mu, NORM_EXPANSION)
            mixed = expand_in_mixed_basis(family, mu)
        except BiorthError as exc:
            warnings.append(f"n={n}: skipped ({exc})")
            continue
        if cfg.mode == "exact":
            equal = list(auto.f) == list(oracle.f) == list(mixed.f)
            detail = f"path={auto.path}"
        else:
            scale = max(abs(to_float(v)) for v in auto.f)
            equal = all(
                abs(to_float(x) - to_float(y)) <= 1e-8 * scale
                for x, y in zip(auto.f, oracle.f)) and all(
                abs(to_float(x) - to_float(y)) <= 1e-8 * scale
                for x, y in zip(auto.f, mixed.f))
            detail = f"path={auto.path}"
        add("path-equivalence", n, equal, detail)

        residuals = orthogonality_residuals(family, auto.f, mu)
        if cfg.mode == "exact":
            ok = all(r == 0 for r in residuals)
        else:
            scale = _residual_scale(family, auto.f, mu)
            ok = all(abs(to_float(r)) <= 1e-10 * scale for r in residuals)
        add("orthogonality", n, ok, f"path={auto.path}")

        report = validity_check(family, n)
        if report.theorem3_applicable:
            # every m_k(lambda_l) with l < k must vanish
            ok = True
            for ell in range(n):
                row = moment_row(family, n, lambda_node(family, ell))
                for value in row[ell + 1:]:
                    if cfg.mode == "exact":
                        ok = ok and value == 0
                    else:
                        ok = ok and abs(to_float(value)) <= 1e-10
            add("triangularity", n, ok)
        else:
            warnings.append(
                f"n={n}: node hypotheses fail; construction used "
                f"path={auto.path}")

    weight_form = family.weight_form
    if weight_form is not None:
        for mu in QUADRATURE_MU:
            mu_val = mu if cfg.mode == "exact" else float(mu)
            try:
                errors = verify_moment_quotient(
                    weight_form, family, QUADRATURE_ORDERS, mu_val)
                ok = all(e < 1e-9 for e in errors)
                add("quadrature", QUADRATURE_ORDERS, ok,
                    f"mu={format_scalar(mu)}, max rel err "
                    f"{max(errors):.3e}")
            except QuadratureFailure as exc:
                warnings.append(f"quadrature skipped at mu="
                                f"{format_scalar(mu)}: {exc}")
    else:
        warnings.append("no weight_form: quadrature checks not applicable")

    failed = sum(1 for c in checks if not c["passed"])
    return {
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
        "warnings": warnings,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def render_csv(cfg: RunConfig, payload: dict) -> str:
    lines = []
    if cfg.command == "sweep":
        n = payload["max_n"]
        header = (["n"] + [f"mu_{i + 1}" for i in range(n)]
                  + [f"f_{i}" for i in range(n + 1)])
        lines.append(",".join(header))
        for row in payload["rows"]:
            cells = [str(row["n"])]
            cells += row["mu"] + [""] * (n - len(row["mu"]))
            cells += row["f"] + [""] * (n + 1 - len(row["f"]))
            lines.append(",".join(_csv_cell(c) for c in cells))
    else:
        lines.append("key,value")
        for key, value in payload.items():
            lines.append(f"{key},{_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def render(cfg: RunConfig, payload: dict) -> str:
    if cfg.output == "csv":
        return render_csv(cfg, payload)
    return json.dumps(payload, indent=2) + "\n"


_DISPATCH = {
    "moments": cmd_moments,
    "poly": cmd_poly,
    "verify": cmd_verify,
    "ode": cmd_ode,
    "hyper": cmd_hyper,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        family = resolve_family(cfg.family_path)
        payload = _DISPATCH[cfg.command](cfg, family)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BiorthError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render(cfg, payload))
    if cfg.command == "verify" and payload["failed"] > 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
