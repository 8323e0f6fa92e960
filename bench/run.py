"""Benchmark for biorth: one workload, one seed, one run.

    python3 bench/run.py --workload nodes|commands|weight --seed N
                         --seconds S --trace 0|1

Run from the repository root; no install step is needed, the script
puts ``src`` on the path itself.  One process with one thread drives a
closed loop: the next operation starts when the previous one returns.

--trace 0 measures the end-to-end metrics: set-up time (median of
fresh-interpreter probes), operations per second and per-kind median
latency over S seconds of whole rounds, and the peak resident memory of
this process, read before any reference library is imported.

--trace 1 measures the per-layer metrics: a fixed set of rounds is run
untraced and then traced (see tracing.py), each repeated until S/2
seconds pass, and the spans of the first traced pass are written to
bench/out/.  Import times come from ``python -X importtime``.

Every timed figure is scaled by a reference computation timed between
operations, so that the host's changing load cancels (calibration.py).
Every answer is checked after the timed window against computations
made apart from the program (checks.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; progress and the metric table go before it.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibration
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
IMPORT_PROBES = 3
# Rounds in one traced pass, sized to about a second untraced.
TRACE_ROUNDS = {"nodes": 4, "commands": 1, "weight": 10}
# Reference timings on each side of an operation that set its scale.
REFERENCE_WINDOW = 5
# Gap allowed between an operation's traced duration and the sum of
# the self times of its spans (float summation only).
SELF_SUM_TOL_S = 1e-6


class BenchError(Exception):
    """A condition that makes the run meaningless; reported, no result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe(argv):
    proc = subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True, timeout=120, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"probe {argv} failed: {proc.stderr.strip()}")
    return proc


def setup_seconds(workload):
    """Median scaled wall time, in fresh interpreters, to import biorth
    and resolve the workload's families."""
    return statistics.median(
        float(probe([str(BENCH / "setup_probe.py"), workload])
              .stdout.split()[-1])
        for _ in range(SETUP_PROBES))


def import_times():
    """Median cumulative import times of biorth and numpy, in ms."""
    samples = {"biorth": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        err = probe(["-X", "importtime", "-c", "import biorth"]).stderr
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name in samples and name not in seen:
                    seen[name] = int(parts[1]) / 1000.0
        for name, values in samples.items():
            values.append(seen.get(name, 0.0))
    return {f"import.{name}_ms": statistics.median(values)
            for name, values in samples.items()}


class Log:
    """What a sequence of operations leaves behind: per operation its
    kind, whether a fault is expected and its raw seconds, plus (when
    traced) its span self times; a reference timing (calibration.py)
    before the first operation and after each one; and the outcomes,
    handed to ``sink`` as they come so they need not stay in memory."""

    def __init__(self, sink):
        self.ops = []
        self.own = []
        self.reference = [calibration.reference_seconds()]
        self.sink = sink

    def run(self, ops, tracer=None):
        """Run operations one after another.  An exception is the
        operation's failure, not the run's."""
        for op in ops:
            before = dict(tracer.self_s) if tracer else None
            start = time.perf_counter()
            try:
                outcome = op.run() if tracer is None else \
                    tracer.run_op(op.run)
            except Exception as exc:  # counted as a failed operation
                outcome = {"error": f"{type(exc).__name__}: {exc}"}
            seconds = tracer.last_op_seconds if tracer else \
                time.perf_counter() - start
            self.reference.append(calibration.reference_seconds())
            self.ops.append((op.kind, op.expect_fault, seconds))
            if tracer:
                self.own.append({k: v - before.get(k, 0.0)
                                 for k, v in tracer.self_s.items()})
            self.sink(outcome)

    def factors(self):
        """Per operation, REFERENCE_S over the median of the reference
        timings in a window of REFERENCE_WINDOW on each side of it."""
        ref, w = self.reference, REFERENCE_WINDOW
        return [calibration.REFERENCE_S
                / statistics.median(ref[max(0, i + 1 - w):i + 1 + w])
                for i in range(len(self.ops))]

    def scaled_seconds(self):
        return [s * f for (_, _, s), f in zip(self.ops, self.factors())]


def evaluate(workload, log, outcomes):
    """Check every outcome; returns (ok flags, failed count, wrong)."""
    import checks

    seqs = {}
    ok, failed, wrong = [], 0, []
    for (kind, expect_fault, _), outcome in zip(log.ops, outcomes):
        why = outcome.get("error")
        if why is None:
            if workload == "nodes":
                name = outcome["family"]
                if name not in seqs:
                    seqs[name] = checks.Sequences(next(
                        s for s in workloads.NODE_FAMILIES
                        if s["name"] == name))
                why = checks.check_nodes(outcome, seqs[name])
            elif workload == "commands":
                why = checks.check_command(outcome)
            else:
                why = checks.check_weight(outcome)
        ok.append(why is None)
        if why is None:
            continue
        if expect_fault or "error" in outcome or outcome.get("code"):
            failed += 1
        else:
            wrong.append(f"{kind}: {why}")
    return ok, failed, wrong


def kind_median_ms(log, seconds, ok):
    """Mean over operation kinds of each kind's median latency, failed
    operations left out.  A plain median over a mix of kinds jumps
    between the kinds' modes as their counts shift."""
    by_kind = {}
    for (kind, _, _), s, good in zip(log.ops, seconds, ok):
        if good:
            by_kind.setdefault(kind, []).append(s)
    return statistics.fmean(statistics.median(v) for v in by_kind.values()) \
        * 1000.0


def make_pass(workload, families, seed, rounds, wrap=None):
    rng = random.Random(seed)
    ops = []
    for _ in range(rounds):
        ops += workloads.ROUNDS[workload](rng, families, wrap)
    return ops


def warm_up(workload, families, seed):
    """One untimed round, so lazy set-up and caches are done first."""
    Log(lambda outcome: None).run(workloads.ROUNDS[workload](
        random.Random(f"warm-up {seed}"), families))
    gc.collect()


def read_pickles(path):
    with open(path, "rb") as fh:
        while True:
            try:
                yield pickle.load(fh)
            except EOFError:
                return


def end_to_end(workload, seed, seconds):
    setup_s = setup_seconds(workload)
    families = workloads.resolve_families(workload)
    warm_up(workload, families, seed)
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    # Outcomes go to a file as they come, so the peak memory reflects
    # the program rather than how many answers the run has collected.
    path = OUT / f"outcomes-{workload}-{seed}-{os.getpid()}.pickle"
    try:
        with open(path, "wb") as fh:
            log = Log(lambda outcome: pickle.dump(outcome, fh))
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                log.run(workloads.ROUNDS[workload](rng, families))
        peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok, failed, wrong = evaluate(workload, log, read_pickles(path))
    finally:
        path.unlink(missing_ok=True)
    scaled = log.scaled_seconds()
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": sum(ok) / sum(scaled),
        "latency_p50_ms": kind_median_ms(log, scaled, ok),
        "peak_rss_mb": peak_rss_mb,
    }
    return len(log.ops), failed, wrong, metrics


def per_layer(workload, seed, seconds):
    import tracing

    metrics = import_times()
    families = workloads.resolve_families(workload)
    warm_up(workload, families, seed)
    rounds = TRACE_ROUNDS[workload]

    def repeat(tracer=None):
        """Repeat one fixed pass until seconds/2 have passed; keep the
        outcomes and spans of the first pass only."""
        outcomes = []
        log = Log(outcomes.append)
        wrap = tracer.count_weight if tracer else None
        start = time.perf_counter()
        while not log.ops or time.perf_counter() - start < seconds / 2:
            log.run(make_pass(workload, families, seed, rounds, wrap),
                    tracer)
            log.sink = lambda outcome: None
            if tracer is not None:
                tracer.keep_spans = False
        return log, outcomes

    plain, _ = repeat()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, outcomes = repeat(tracer)
    finally:
        tracer.uninstall()
    pass_ops = len(outcomes)
    ops = len(traced.ops)
    ok, failed, wrong = evaluate(workload, traced, outcomes)
    failed *= ops // pass_ops

    gap = max(tracer.self_sum_gaps())
    if gap > SELF_SUM_TOL_S:
        raise BenchError(f"self times miss an operation's traced duration "
                         f"by {gap:.3g} s")
    self_s = defaultdict(float)
    for own, factor in zip(traced.own, traced.factors()):
        for name, seconds_own in own.items():
            self_s[name] += seconds_own * factor
    plain_ms = statistics.fmean(plain.scaled_seconds()) * 1000.0
    traced_ms = statistics.fmean(traced.scaled_seconds()) * 1000.0
    counts = tracer.counts
    for mod_fn in tracing.SPANNED:
        name = ".".join(mod_fn)
        metrics[f"{name}.self_ms"] = self_s[name] / ops * 1000.0
        metrics[f"{name}.calls"] = counts[f"{name}.calls"] / ops
    for name in ("polynomials.rf_eval", "families.quadruple"):
        metrics[f"{name}.calls"] = counts[f"{name}.calls"] / ops
    metrics["construction.divided_difference.attempts"] = \
        counts["construction.qtilde_values.calls"] / ops
    for path in ("divided-difference", "mixed-basis", "oracle"):
        key = f"construction.route.{path}"
        metrics[key] = counts[key] / ops
    metrics["construction.result_bits_max"] = tracer.result_bits_max
    metrics["hyper.eval_pFq.terms"] = counts["hyper.eval_pFq.terms"] / ops
    metrics["quadrature.weight_evals"] = \
        counts["quadrature.weight_evals"] / ops
    metrics[f"{tracing.ROOT}.self_ms"] = self_s[tracing.ROOT] / ops * 1000.0
    metrics["trace.op_ms"] = traced_ms
    metrics["trace.overhead_ms"] = traced_ms - plain_ms

    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps(dict(tracer.export(), workload=workload,
                                   seed=seed, ops_in_spans=pass_ops)))
    print(f"spans of {pass_ops} operations written to "
          f"{out.relative_to(ROOT)}; largest self-time gap {gap:.3g} s")
    return ops, failed, wrong, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "biorth" / "__init__.py").is_file() or \
            not spec_path.is_file():
        print(f"error: no biorth sources under {SRC} or no {spec_path.name};"
              " run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    measure = per_layer if args.trace else end_to_end
    try:
        attempted, failed, wrong, measured = measure(
            args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}: attempted "
          f"{attempted}, failed {failed}, wrong {len(wrong)}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
