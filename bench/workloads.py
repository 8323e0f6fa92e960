"""The three benchmark workloads: seeded inputs and the timed operations.

Every workload is a sequence of whole *rounds*.  A round is a fixed list
of operation kinds, each with fresh inputs drawn from the seeded
generator, so every run attempts the same mix whatever its seed and
length.  An operation is a thunk that calls into biorth and returns an
outcome record; the inputs are made before the thunk runs and the
answers are checked after the timed window (see checks.py).

The program is reached through module attributes looked up at call time
(``construction.biorthogonal_poly`` rather than a name bound at import),
so the traced run's wrappers see every call.

This module imports nothing from biorth at import time: setup_probe.py
imports it before starting the set-up clock.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
BUNDLED_DIR = SRC / "biorth" / "data"

# ---------------------------------------------------------------- families

# Re-declared from tests/conftest.py: alpha_n = 1 + n, beta_n = 1,
# gamma_n = 1, delta_n = 3 + n meets every divided-difference hypothesis.
STEPS = {
    "name": "steps", "kind": "polynomial", "basis": "pochhammer-3",
    "a": ["1", "-1"], "b": ["1"], "c": ["1"], "d": ["3", "-1"],
    "support": "(0,1)",
}
# alpha_n = 2 + n, beta_n = 1, gamma_n = 1, delta_n = 5 + 2n: nodes
# lambda_j = -(2 + j) are distinct, alpha_l delta_k - beta_l gamma_k =
# (2 + l)(5 + 2k) - 1 > 0, and m_j(lambda_l) has numerator factors
# i - l != 0 for i < j < l, so the auto path takes divided differences.
WIDE_STEPS = {
    "name": "wide-steps", "kind": "polynomial", "basis": "pochhammer-3",
    "a": ["2", "-1"], "b": ["1"], "c": ["1"], "d": ["5", "-2"],
    "support": "(0,1)",
}
# alpha_n = 1 + n + n^2 (in the (-n)_l basis: 1 - 2(-n)_1 + (-n)_2),
# beta_n = 1, gamma_n = 2, delta_n = 3 + n: distinct nodes
# -(1 + j + j^2), positive cross products, nonzero diagonal moments;
# quadratic alpha grows the exact numbers faster than the linear pair.
QUADRATIC_NODES = {
    "name": "quadratic-nodes", "kind": "polynomial", "basis": "pochhammer-3",
    "a": ["1", "-2", "1"], "b": ["1"], "c": ["2"], "d": ["3", "-1"],
    "support": "(0,1)",
}
# Frobenius order s = 2: indicial roots -1 and 4 mu - 2, classified as a
# 1F1 (c contributes an upper parameter).
CONFLUENT_S2 = {
    "name": "confluent-s2", "kind": "polynomial", "basis": "pochhammer-3",
    "a": ["0", "0", "1"], "b": ["0", "-1"], "c": ["1", "-1"], "d": [],
    "support": "(0,inf)",
}
# Frobenius order s = 3: the indicial polynomial factors as
# -(theta + 1)(theta + 2)(9 mu - 3 - theta)/36, so every rational mu has
# rational exponents; classified as a 1F2.
CUBIC_S3 = {
    "name": "cubic-s3", "kind": "polynomial", "basis": "pochhammer-3",
    "a": ["0", "0", "0", "1"], "b": ["0", "0", "-1"], "c": ["1", "-1"],
    "d": [],
    "support": "(0,inf)",
}

NODE_FAMILIES = (STEPS, WIDE_STEPS, QUADRATIC_NODES)
COMMAND_FAMILIES = ("jacobi", "power-weight")
WEIGHT_FAMILIES = ("jacobi", "power-weight", "bessel-case", CONFLUENT_S2,
                   CUBIC_S3)


def family_name(spec) -> str:
    return spec if isinstance(spec, str) else spec["name"]


def family_config(spec) -> dict:
    """The JSON config of a family, read by the benchmark itself (the
    checks evaluate the sequences from it independently)."""
    if isinstance(spec, str):
        return json.loads((BUNDLED_DIR / f"{spec}.json").read_text())
    return spec


def resolve_families(workload: str) -> dict:
    """Resolve a workload's families through the program: bundled names
    through the CLI's resolver, benchmark-defined ones from config."""
    import biorth
    if workload == "nodes":
        return {f["name"]: biorth.family_from_config(f)
                for f in NODE_FAMILIES}
    from biorth import cli
    specs = COMMAND_FAMILIES if workload == "commands" else WEIGHT_FAMILIES
    return {family_name(s): cli.resolve_family(s) if isinstance(s, str)
            else biorth.family_from_config(s) for s in specs}


# ------------------------------------------------------------- operations

@dataclass
class Op:
    """One timed operation: ``run()`` calls biorth and returns the
    outcome record; ``expect_fault`` marks a known program fault that
    is counted as failed rather than as a wrong answer."""

    kind: str
    run: Callable[[], dict]
    expect_fault: bool = False


def distinct_rationals(rng, n, num_hi, den_hi, lo=Fraction(0)):
    """n distinct rationals lo + p/q, 1 <= p <= num_hi, 1 <= q <= den_hi."""
    out = []
    while len(out) < n:
        value = lo + Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi))
        if value not in out:
            out.append(value)
    return out


def _fmt(values) -> str:
    return ",".join(f"{v.numerator}/{v.denominator}" for v in values)


# nodes: one exact auto construction plus its residuals, at one degree.
NODES_DEGREE = 12


def nodes_round(rng, families, wrap_weight=None):
    from biorth import construction

    ops = []
    for spec in NODE_FAMILIES:
        name = spec["name"]
        fam = families[name]
        mu = distinct_rationals(rng, NODES_DEGREE, 24, 6)

        def run(fam=fam, mu=mu, name=name):
            result = construction.biorthogonal_poly(fam, mu, path="auto")
            residuals = construction.orthogonality_residuals(
                fam, result.f, mu)
            return {"family": name, "mu": mu, "f": result.f,
                    "path": result.path, "residuals": residuals}

        ops.append(Op(f"poly-{name}", run))
    return ops


# commands: in-process CLI calls, small degrees, mostly exact.
COMMAND_DEGREE = 8
SWEEP_DEGREE = 6
VERIFY_DEGREE = 5
MOMENTS_ORDER = 24
MOMENTS_MU = 4
COMMAND_REPEATS = 2
# Float poly at these degrees loses accuracy without a warning (n = 20)
# or reports a false NoExistence (n = 32).  The inputs do not depend on
# the seed, so these operations fail identically in every run.
FAULT_MU = {20: [Fraction(k, 3) for k in range(1, 21)],
            32: [Fraction(k, 3) for k in range(1, 33)]}


def run_cli(argv) -> dict:
    from biorth import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def command_argvs(rng):
    """The argument lists of one round, fault requests last."""
    argvs = []
    for _ in range(COMMAND_REPEATS):
        for fam in COMMAND_FAMILIES:
            mu = _fmt(distinct_rationals(rng, COMMAND_DEGREE, 24, 6))
            argvs.append((f"poly-{fam}", ["poly", "--family", fam,
                                          "--mu", mu]))
            mu = _fmt(distinct_rationals(rng, SWEEP_DEGREE, 24, 6))
            argvs.append((f"sweep-{fam}", ["sweep", "--family", fam,
                                           "--mu", mu]))
            argvs.append((f"verify-{fam}", [
                "verify", "--family", fam, "--n", str(VERIFY_DEGREE),
                "--seed", str(rng.randint(0, 10 ** 6))]))
            mu = _fmt(distinct_rationals(rng, MOMENTS_MU, 24, 6))
            argvs.append((f"moments-{fam}", [
                "moments", "--family", fam, "--mu", mu,
                "--n", str(MOMENTS_ORDER)]))
            mu = _fmt(distinct_rationals(rng, COMMAND_DEGREE, 24, 6))
            argvs.append((f"poly-float-{fam}", [
                "poly", "--family", fam, "--mu", mu, "--mode", "float"]))
        mu = _fmt(distinct_rationals(rng, COMMAND_DEGREE, 24, 6))
        argvs.append(("poly-oracle-jacobi", [
            "poly", "--family", "jacobi", "--mu", mu, "--path", "oracle",
            "--normalization", "leading-one"]))
    for n, mu in FAULT_MU.items():
        argvs.append((f"poly-float-fault-{n}", [
            "poly", "--family", "jacobi", "--mu", _fmt(mu),
            "--mode", "float"]))
    return argvs


def commands_round(rng, families, wrap_weight=None):
    return [Op(kind, (lambda argv=argv: run_cli(argv)),
               expect_fault=kind.startswith("poly-float-fault"))
            for kind, argv in command_argvs(rng)]


# weight: the whole weight-side pipeline for one (family, mu).
SERIES_TERMS = 16
PFQ_TERMS = 24
QUAD_ORDERS = 4
ZERO_DEGREE = 3
# Each ODE family's mu range, as (offset, invert): mu = offset + r, or
# 1/(offset + r) when invert, with r >= 0 seeded.  The ranges keep a
# real indicial root >= 1 (the unit gate) for every draw.
ODE_MU = {
    "jacobi": (Fraction(2), False),          # theta = mu - 1
    "power-weight": (Fraction(2), True),     # theta = 1/mu - 1
    "bessel-case": (Fraction(3, 4), False),  # theta = 4 mu - 2
    "confluent-s2": (Fraction(3, 4), False),  # theta = 4 mu - 2
    "cubic-s3": (Fraction(4, 9), False),     # theta = 9 mu - 3
}
QUAD_FAMILIES = ("jacobi", "power-weight")


def quadrature_mu(family: str, exponent: Fraction) -> Fraction:
    """The mu at which the family's power weight is x^exponent:
    jacobi has exponent mu - 1, power-weight 1/mu - 1."""
    return 1 + exponent if family == "jacobi" else 1 / (1 + exponent)


def weight_round(rng, families, wrap_weight=None):
    from biorth import construction, hyper, odes, quadrature

    wrap = wrap_weight or (lambda w: w)
    ops = []
    for i, spec in enumerate(WEIGHT_FAMILIES):
        name = family_name(spec)
        offset, invert = ODE_MU[name]
        r = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        mu = 1 / (offset + r) if invert else offset + r
        z = Fraction(rng.randint(1, 9), 10)
        qname = QUAD_FAMILIES[i % 2]
        # endpoint-singular exponent in [-0.6, -0.4], one stratum per
        # position in the round so each kind's quadrature work is alike
        exponent = -Fraction(40 + 4 * i + rng.randint(0, 3), 100)
        qmu = quadrature_mu(qname, exponent)
        zname = QUAD_FAMILIES[(i + 1) % 2]
        zmu = distinct_rationals(rng, ZERO_DEGREE, 8, 3)

        def run(fam=families[name], mu=mu, z=z, qfam=families[qname],
                qmu=qmu, zfam=families[zname], zmu=zmu, name=name,
                qname=qname, zname=zname, exponent=exponent):
            ode = odes.frobenius_ode(fam, mu)
            roots = odes.indicial_roots(ode)
            theta = odes.select_theta(roots, ode.s)
            form = hyper.hypergeometric_form(ode, theta)
            y = odes.series_coefficients(ode, theta, SERIES_TERMS)
            residual = odes.ode_residual(ode, theta, y, SERIES_TERMS - 1)
            exact = hyper.eval_pFq(form.upper, form.lower, z, N=PFQ_TERMS)
            approx = hyper.eval_pFq([float(u) for u in form.upper],
                                    [float(v) for v in form.lower], float(z))
            weight = wrap(hyper.weight_from_config(qfam.weight_form, qmu))
            errors = quadrature.verify_moment_quotient(
                weight, qfam, QUAD_ORDERS, qmu)
            poly = construction.biorthogonal_poly(zfam, zmu).p
            zeros = construction.zero_location_check(poly, zfam.support)
            return {"family": name, "mu": mu, "s": ode.s, "theta": theta,
                    "form": form, "series": y, "residual": residual,
                    "z": z, "pfq_exact": exact, "pfq_float": approx,
                    "quad_family": qname, "quad_mu": qmu,
                    "exponent": exponent, "quad_errors": errors,
                    "zero_family": zname, "zero_mu": zmu,
                    "zero_poly": poly.coeffs, "zeros": zeros}

        ops.append(Op(f"pipeline-{name}", run))
    return ops


ROUNDS = {"nodes": nodes_round, "commands": commands_round,
          "weight": weight_round}
WORKLOADS = tuple(ROUNDS)
