"""Span tracer that wraps the public functions of each dpbound layer.

The tracer never edits library source.  It replaces a public function at
every binding where callers look it up (the defining module, every
``dpbound`` module that imported it by name, and the package namespace),
so ``dpbound.general.build_family`` and ``dpbound.baselines.build_family``
are both wrapped and a call through either is counted once.
``numpy.linalg`` is wrapped the same way as the kernel layer.

Each call records a span (id, parent id, request id, name, start, end).
Self time, a span's duration minus the time its child spans cover, is
accumulated online; spans are kept in compact in-memory columns and
written out once, when the run ends.  A target that no longer exists is
reported as absent instead of failing, because later changes delete some
of them (for instance ``adversary.enumerate_partitions``).  Private
helpers are never wrapped.  A generator function gets one span per step,
because its work runs inside the loop that consumes it.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import os
import sys
import time
from collections import Counter

# metric prefix -> (module, attribute path) of each function it covers;
# several functions may share one prefix (both log-det entry points).
TARGETS = {
    "general.capacity_upper_bound": [("dpbound.general", "capacity_upper_bound")],
    "general.outer_sup": [("dpbound.general", "outer_sup")],
    "general.inner_inf": [("dpbound.general", "inner_inf")],
    "general.objective": [("dpbound.general", "objective")],
    "adversary.enumerate_partitions": [("dpbound.adversary", "enumerate_partitions")],
    "adversary.build_family": [("dpbound.adversary", "build_family")],
    "channel.validate_model": [("dpbound.channel", "validate_model")],
    "channel.AdversaryFamily.validate": [("dpbound.channel", "AdversaryFamily.validate")],
    "spectral.signal_subspace": [("dpbound.spectral", "signal_subspace")],
    "spectral.whiten_state": [("dpbound.spectral", "whiten_state")],
    "spectral.logdet": [("dpbound.spectral", "logdet_psd"),
                        ("dpbound.spectral", "logdet_ratio")],
    "baselines.water_filling": [("dpbound.baselines", "water_filling")],
    "baselines.interference_free_capacity": [
        ("dpbound.baselines", "interference_free_capacity")],
    "baselines.tin_worst_case": [("dpbound.baselines", "tin_worst_case")],
    "rank1.rank_one_bound": [("dpbound.rank1", "rank_one_bound")],
    "oracle.run_equivalence_suite": [("dpbound.oracle", "run_equivalence_suite")],
    "oracle.brute_force_inner_inf": [("dpbound.oracle", "brute_force_inner_inf")],
    "oracle.logdet_concavity_check": [("dpbound.oracle", "logdet_concavity_check")],
    "oracle.feasible_concavity_pairs": [("dpbound.oracle", "feasible_concavity_pairs")],
    "sweep.run_sweep": [("dpbound.sweep", "run_sweep")],
    "sweep.emit_data_files": [("dpbound.sweep", "emit_data_files")],
    "cli.cli_dispatch": [("dpbound.cli", "cli_dispatch")],
    "numpy.linalg.svd": [("numpy.linalg", "svd")],
    "numpy.linalg.eigh": [("numpy.linalg", "eigh")],
    "numpy.linalg.eigvalsh": [("numpy.linalg", "eigvalsh")],
    "numpy.linalg.cholesky": [("numpy.linalg", "cholesky")],
    "numpy.linalg.solve": [("numpy.linalg", "solve")],
}

# Counts derived from return values or nesting, recorded at the same
# boundaries as the spans.
PARTITIONS = "adversary.partitions"
FAMILIES_IN_INNER_INF = "general.families_in_inner_inf"
BYTES_WRITTEN = "sweep.bytes_written"

REQUEST_SPAN = "bench.request"


class Tracer:
    """Records spans and per-name counts while installed."""

    def __init__(self):
        self.names = [REQUEST_SPAN] + list(TARGETS)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._patched = []          # (owner, attribute, original)
        self.absent = []
        self.keep_spans = False
        self.active = True          # False while the harness checks outputs
        self.spans = {col: array.array("q") for col in
                      ("id", "parent", "request", "name", "start_ns", "end_ns")}
        self.reset()

    def reset(self) -> None:
        """Forget all counts and self times; kept spans stay."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.extra = Counter()
        self._depth = Counter()
        self._stack = []            # [span id, child ns] per open span
        self._next_id = 1
        self._request = -1

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target that exists."""
        self.absent = []
        for prefix, funcs in TARGETS.items():
            found = False
            for module_name, attr_path in funcs:
                owner, attr, fn = _resolve(module_name, attr_path)
                if fn is None:
                    continue
                found = True
                wrapper = (self._wrap_generator(prefix, fn)
                           if inspect.isgeneratorfunction(fn) else self._wrap(prefix, fn))
                if "." in attr_path:       # a method: patch the class only
                    self._patch(owner, attr, fn, wrapper)
                    continue
                for mod in _binding_modules(module_name):
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, fn, wrapper)
            if not found:
                self.absent.append(prefix)

    def uninstall(self) -> None:
        """Restore every binding that :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    # -- recording ----------------------------------------------------

    def request(self, index: int, fn, *args):
        """Run one benchmark request inside a root span."""
        self._request = index
        return self._wrap(REQUEST_SPAN, fn)(*args)

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        clock = time.perf_counter_ns
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            self._depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._depth[name] -= 1
                dur = end - start
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if self.keep_spans:
                    for col, val in zip(self.spans.values(),
                                        (sid, parent, self._request, idx, start, end)):
                        col.append(val)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """A generator's work runs in its consumer's loop, so it gets one span
        per step: each value it yields, plus the step that finds it done."""
        step = self._wrap(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    value = step(it)
                except StopIteration:
                    return
                yield value

        return wrapper

    # -- output -------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the kept spans as gzip'd CSV; returns the span count."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        cols = list(self.spans)
        n = len(self.spans["id"])
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(n):
                row = [self.spans[c][i] for c in cols]
                row[3] = self.names[row[3]]
                fh.write(",".join(map(str, row)) + "\n")
        return n


def _after_enumerate(tracer: Tracer, result) -> None:
    tracer.extra[PARTITIONS] += len(result)


def _after_build_family(tracer: Tracer, result) -> None:
    if tracer._depth["general.inner_inf"]:
        tracer.extra[FAMILIES_IN_INNER_INF] += 1


def _after_emit(tracer: Tracer, result) -> None:
    tracer.extra[BYTES_WRITTEN] += sum(os.path.getsize(p) for p in result)


_AFTER = {
    "adversary.enumerate_partitions": _after_enumerate,
    "adversary.build_family": _after_build_family,
    "sweep.emit_data_files": _after_emit,
}


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, function) for a dotted path, or Nones if gone."""
    owner = sys.modules.get(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if not callable(fn):
        return None, None, None
    return owner, parts[-1], fn


def _binding_modules(module_name: str):
    """Modules whose globals may hold a binding of a target."""
    if module_name.startswith("numpy"):
        return [sys.modules[module_name]]
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "dpbound" or name.startswith("dpbound."))]
