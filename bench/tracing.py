"""Per-layer tracing from outside the program.

Every listed public function is replaced, at every biorth module that
binds it, by a wrapper that records a span (name, parent, start, end)
and its call count.  biorth's modules import functions by name, so
patching only the defining module would miss most calls.  The hottest
entry points, ``MqfFamily.quadruple`` and ``rf_eval``, are counted
without a span to keep the overhead small; their time lands in the
self time of whichever span called them.

A span's self time is its duration minus the time covered by its child
spans.  The benchmark wraps each operation in a root span
``bench.op``, so within one operation the self times of all spans add
up to the operation's traced duration.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs that get a span: self time and call count.
SPANNED = (
    ("cli", "main"), ("cli", "resolve_family"), ("cli", "render"),
    ("families", "validity_check"), ("families", "moment_rational"),
    ("families", "moment"), ("families", "existence_determinant"),
    ("polynomials", "poly_gcd"),
    ("linalg", "determinant"), ("linalg", "solve_linear"),
    ("linalg", "nullspace"),
    ("construction", "qtilde_values"),
    ("construction", "divided_difference_solve"),
    ("construction", "mixed_basis"), ("construction", "expand_in_mixed_basis"),
    ("construction", "oracle_nullspace"),
    ("construction", "orthogonality_residuals"),
    ("construction", "biorthogonal_poly"),
    ("construction", "zero_location_check"),
    ("roots", "poly_roots"),
    ("odes", "frobenius_ode"), ("odes", "indicial_roots"),
    ("odes", "series_coefficients"), ("odes", "ode_residual"),
    ("hyper", "hypergeometric_form"), ("hyper", "eval_pFq"),
    ("quadrature", "verify_moment_quotient"),
)
# Functions that are only counted.
COUNTED = (("polynomials", "rf_eval"),)
ROOT = "bench.op"


def _bits(value) -> int:
    num = getattr(value, "numerator", None)
    if num is None:
        return 0
    return max(abs(num).bit_length(), value.denominator.bit_length())


class Tracer:
    """Span stack, self times and counters for one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.result_bits_max = 0
        self.spans = []          # [id, parent, op, name, start, end, self]
        self.keep_spans = True
        self.op_index = -1
        self._stack = []         # [span id, child seconds]
        self._next_id = 0
        self._patches = []
        self.last_op_seconds = 0.0

    # -- spans --------------------------------------------------------
    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0.0])
        return sid, parent

    def _exit(self, name, sid, parent, start, end):
        _, child = self._stack.pop()
        duration = end - start
        own = duration - child
        self.self_s[name] += own
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if self.keep_spans:
            self.spans.append((sid, parent, self.op_index, name, start, end,
                               own))

    def spanned(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, sid, parent, start, time.perf_counter())
            if on_return is not None:
                on_return(result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run_op(self, thunk):
        """Run one operation under the root span and return its outcome;
        the traced duration is left in ``last_op_seconds``."""
        self.op_index += 1
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            end = time.perf_counter()
            self._exit(ROOT, sid, parent, start, end)
            self.last_op_seconds = end - start

    # -- result hooks ---------------------------------------------------
    def _on_poly(self, result):
        self.counts["construction.route." + result.path] += 1
        bits = max((_bits(v) for v in result.f), default=0)
        self.result_bits_max = max(self.result_bits_max, bits)

    def _on_pfq(self, result):
        self.counts["hyper.eval_pFq.terms"] += result.terms

    def count_weight(self, weight):
        """A weight callable that counts its evaluations."""
        counts = self.counts

        def counting(x):
            counts["quadrature.weight_evals"] += 1
            return weight(x)
        return counting

    # -- patching -------------------------------------------------------
    def install(self):
        hooks = {"biorthogonal_poly": self._on_poly,
                 "eval_pFq": self._on_pfq}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "biorth" or n.startswith("biorth.")]
        for group, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for mod_name, fn_name in group:
                original = getattr(
                    importlib.import_module("biorth." + mod_name), fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapped = make(name, original, hooks[fn_name]) \
                    if fn_name in hooks else make(name, original)
                for module in modules:
                    if module.__dict__.get(fn_name) is original:
                        self._patches.append((module, fn_name, original))
                        setattr(module, fn_name, wrapped)
        from biorth.families import MqfFamily
        original = MqfFamily.quadruple
        self._patches.append((MqfFamily, "quadruple", original))
        MqfFamily.quadruple = self.counted("families.quadruple", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- checks and export ----------------------------------------------
    def self_sum_gaps(self):
        """Per traced operation, |sum of self times - root duration|."""
        own = defaultdict(float)
        root = {}
        for _, _, op, name, start, end, s in self.spans:
            own[op] += s
            if name == ROOT:
                root[op] = end - start
        return [abs(own[op] - root[op]) for op in root]

    def export(self):
        return {"fields": ["id", "parent", "op", "name", "start_s", "end_s",
                           "self_s"],
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts),
                "self_s": dict(self.self_s),
                "result_bits_max": self.result_bits_max}
