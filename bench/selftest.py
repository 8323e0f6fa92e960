"""Self-test of the answer checks: real answers pass, perturbed ones fail.

    python3 bench/selftest.py

Runs one operation of each kind through biorth, confirms that checks.py
accepts the outcome, then perturbs one field at a time and confirms
that each perturbation is rejected; the known float-mode faults must be
rejected as they stand.  Exits 1 if any check lets a perturbed answer
through or rejects a real one.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def first_op(workload, prefix):
    families = workloads.resolve_families(workload)
    ops = workloads.ROUNDS[workload](random.Random(7), families)
    return next(op for op in ops if op.kind.startswith(prefix)).run()


def edit_payload(outcome, change):
    out = copy.deepcopy(outcome)
    payload = json.loads(out["stdout"])
    change(payload)
    out["stdout"] = json.dumps(payload)
    return out


def bump(text):
    return str(Fraction(text) + Fraction(1, 1000))


def cases():
    """(name, check, real outcome, [(perturbation, outcome), ...])."""
    node = first_op("nodes", "poly-steps")
    seq = checks.Sequences(workloads.STEPS)
    yield ("nodes", lambda o: checks.check_nodes(o, seq), node, [
        ("f[3] + 1/1000", dict(node, f=node["f"][:3]
                               + (node["f"][3] + Fraction(1, 1000),)
                               + node["f"][4:])),
        ("f scaled by 2", dict(node, f=tuple(2 * x for x in node["f"]))),
        ("residual 1", dict(node, residuals=[1] + node["residuals"][1:])),
        ("path mixed-basis", dict(node, path="mixed-basis")),
    ])

    for prefix, changes in (
            ("poly-jacobi", [
                ("f[2] and p[2] + 1/1000",
                 lambda p: [p[k].__setitem__(2, bump(p[k][2]))
                            for k in ("f", "p")]),
                ("p[2] + 1/1000",
                 lambda p: p["p"].__setitem__(2, bump(p["p"][2]))),
                ("residual 1/7",
                 lambda p: p["residuals"].__setitem__(0, "1/7"))]),
            ("sweep-power-weight", [
                ("row 4 f[1] + 1/1000",
                 lambda p: p["rows"][4]["f"].__setitem__(
                     1, bump(p["rows"][4]["f"][1])))]),
            ("moments-jacobi", [
                ("value + 1/1000",
                 lambda p: p["moments"][1]["values"].__setitem__(
                     5, bump(p["moments"][1]["values"][5])))]),
            ("verify-jacobi", [
                ("one failed check", lambda p: p.__setitem__("failed", 1)),
                ("checks dropped", lambda p: p.__setitem__("checks", []))]),
            ("poly-float-jacobi", [
                ("f[1] relative 1e-6",
                 lambda p: p["f"].__setitem__(1, p["f"][1] * (1 + 1e-6)))]),
            ("poly-oracle-jacobi", [
                ("leading entry 2",
                 lambda p: [p[k].__setitem__(-1, "2") for k in ("f", "p")])]),
    ):
        real = first_op("commands", prefix)
        yield (prefix, checks.check_command, real,
               [(name, edit_payload(real, change))
                for name, change in changes])

    w = first_op("weight", "pipeline-bessel-case")
    series = list(w["series"])
    series[2] += Fraction(1, 10 ** 6)
    residual = dataclasses.replace(
        w["residual"], coefficients=(Fraction(1, 9),)
        + w["residual"].coefficients[1:], max_abs=1 / 9)
    yield ("weight", checks.check_weight, w, [
        ("theta + 1", dict(w, theta=w["theta"] + 1)),
        ("series y_2 + 1e-6", dict(w, series=series)),
        ("ode residual 1/9", dict(w, residual=residual)),
        ("exact pFq + 1e-30", dict(w, pfq_exact=dataclasses.replace(
            w["pfq_exact"], value=w["pfq_exact"].value
            + Fraction(1, 10 ** 30)))),
        ("float pFq relative 1e-9", dict(w, pfq_float=dataclasses.replace(
            w["pfq_float"], value=w["pfq_float"].value * (1 + 1e-9)))),
        ("quadrature error 1e-6", dict(w, quad_errors=[1e-6]
                                       + w["quad_errors"][1:])),
        ("zero verdict flipped", dict(w, zeros=dataclasses.replace(
            w["zeros"], passed=not w["zeros"].passed))),
        ("zero polynomial x + 1", dict(w, zero_poly=(Fraction(1),
                                                     Fraction(1)))),
    ])


def main():
    bad = 0
    for name, check, real, perturbed in cases():
        why = check(real)
        status = "accepted" if why is None else f"REJECTED ({why})"
        bad += why is not None
        print(f"{name}: real answer {status}")
        for label, outcome in perturbed:
            why = check(outcome)
            bad += why is None
            print(f"  {label}: " + (f"rejected ({why})" if why else
                                    "ACCEPTED"))
    # The known float-mode faults must show as failures.
    for n in workloads.FAULT_MU:
        why = checks.check_command(first_op("commands",
                                            f"poly-float-fault-{n}"))
        bad += why is None
        print(f"float poly fault at n={n}: " +
              (f"detected ({why})" if why else "NOT DETECTED"))
    print("self-test passed" if not bad else f"self-test FAILED ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
