"""The four benchmark workloads: inputs, one request, and its output check.

Each workload's ``setup(dp, seed, scratch)`` makes its inputs and returns
itself, ready to serve requests ``0 .. window - 1``: ``item(j)`` names the
input of request ``j``, ``request(item)`` sends it and ``check(item, out)``
returns None or the reason the output is wrong.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has finished.  Inputs come from the workload
seed; the library only ever sees the generated inputs.

``mimo_batch``
    One request is one ``capacity_upper_bound`` call on a model with
    2 <= m_t, m_r <= 4, m_s in 1..3, real or complex field, and a_max and P
    log-uniform on [0.1, 100], searched with
    ``SearchConfig(restarts=2, max_iters=40)`` (the settings of acceptance
    criterion 5).  About 99% of the time is the outer coordinate ascent:
    each objective evaluation is one ``numpy.linalg.svd`` and a minimum over
    about 2 partitions.  It shows outer-search changes (ROADMAP item 3) and
    is the bypass for inner-minimisation changes (item 2).

``state_heavy``
    One request is one ``capacity_upper_bound`` call on a 2x2 or 3x3 model
    with m_s = 5, real or complex, all ranks, searched with
    ``SearchConfig(restarts=2, max_iters=10)``.  Each evaluation minimises
    over about 66 partitions and the final witness builds about 65
    families per ``inner_inf``, so the inner minimisation (item 2)
    dominates while the outer evaluation count is about 18x lower than in
    ``mimo_batch``.

``verify_suite``
    One request is one in-process ``dpbound verify --seed-ladder a..a+9``
    call (20 brute-force equivalence cases and 1000 concavity trials), the
    ladder start advancing from the seed.  It is the only workload that
    measures the ``oracle`` layer and the ``spectral`` log-det path.  There
    is no outer search and ``inner_inf`` only sees instances of dimension
    at most 2, so items 2 and 3 are predicted to leave it unchanged.

``scalar_sweep``
    One request is one in-process ``dpbound sweep`` call over a 501-point
    INR grid (-10..40 dB, step 0.1) at an SNR drawn from the seed, default
    traces, written to a scratch directory inside the checkout.  It
    bypasses ``general`` and calls ``validate_model``, ``rank_one_bound``,
    ``water_filling`` and ``tin_worst_case`` once per point on tiny inputs,
    so per-call overhead added to ``adversary``, ``baselines`` or
    ``channel`` shows here (items 4 and 5).

Inputs left out for now: m_s >= 7, because one 2x2 request takes about
80 s; and m_s > 8, because those inputs hit the silent partition-budget
fallback, whose values item 2 will legitimately tighten.  Both can be
added once item 2 lands, as a change to the benchmark alone.

A run sends a fixed window of requests made from the seed, in whole
passes (see ``run.py``).  For the two bound workloads
the window holds one model per shape class, and the seed picks that
model from a fixed pool of ``pool_per_class`` models per class.  The pool
makes it possible to keep a reference output for every input the
benchmark can send (``references.json``, recorded at the commit that
introduced the benchmark), and the fixed classes make every run, whatever
its seed, send the same mix of shapes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

KNOWN_SOUNDNESS = ("Exact", "CertifiedRelaxation", "HeuristicSup")
POOL_KEY = 20130516          # fixed: pool models never depend on the run seed

# Tolerances of the output checks.  The sandwich slack is the one acceptance
# criterion 5 uses; the reference slack is one-sided because a better outer
# search may only raise the supremum.
SANDWICH_TOL = 1e-9
REFERENCE_TOL = 1e-6

SWEEP_SNRS_DB = tuple(k / 2 for k in range(61))     # 0, 0.5, ..., 30 dB
SWEEP_COLUMNS = ("bound", "tin", "int_free")


def _rand_psd(rng, n, complex_field):
    """Full-rank PSD matrix with eigenvalues log-uniform in [0.25, 4]."""
    w = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    A = rng.standard_normal((n, n))
    if complex_field:
        A = A + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    return (Q * w) @ Q.conj().T


def _log_uniform(rng, lo=0.1, hi=100.0):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def load_references() -> dict:
    """Recorded reference outputs; empty before the first recording."""
    if not REFERENCES.exists():
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


class BoundWorkload:
    """Shared logic of the two ``capacity_upper_bound`` workloads.

    The request window holds one model per shape class, in class order;
    the seed picks which pool model stands for each class.
    """

    name = ""
    classes: tuple = ()          # (m_t, m_r, m_s, field), one request each
    pool_per_class = 0
    search = {}

    def make_model(self, dp, cls: int, q: int):
        m_t, m_r, m_s, field = self.classes[cls]
        rng = np.random.default_rng([POOL_KEY, cls, q])
        cplx = field == "complex"
        H = rng.standard_normal((m_r, m_t))
        if cplx:
            H = H + 1j * rng.standard_normal((m_r, m_t))
        Q_s = _rand_psd(rng, m_s, cplx)
        a_max = _log_uniform(rng)
        P = _log_uniform(rng)
        return dp.validate_model(m_t, m_r, m_s, H, Q_s, a_max, P, field)

    def setup(self, dp, seed: int, scratch: Path) -> "BoundWorkload":
        self.dp = dp
        self.config = dp.SearchConfig(**self.search)
        self.picks = [int(np.random.default_rng([seed, c]).integers(self.pool_per_class))
                      for c in range(len(self.classes))]
        self.models = [self.make_model(dp, c, q) for c, q in enumerate(self.picks)]
        self.window = len(self.models)
        self.refs = load_references().get(self.name, {})
        return self

    def item(self, j: int):
        return j, self.picks[j]

    def request(self, item):
        return self.dp.capacity_upper_bound(self.models[item[0]], self.config)

    def check(self, item, report) -> str | None:
        """None when the report passes every check, else the reason."""
        cls, q = item
        tag = report.soundness.value
        if tag not in KNOWN_SOUNDNESS:
            return f"unknown soundness tag {tag!r}"
        model = self.models[cls]
        tin = self.dp.tin_worst_case(model)
        int_free = self.dp.interference_free_capacity(model)
        if not tin <= report.value_bits + SANDWICH_TOL:
            return f"value {report.value_bits!r} below TIN {tin!r}"
        if not report.value_bits <= int_free + SANDWICH_TOL:
            return f"value {report.value_bits!r} above int-free {int_free!r}"
        ref = self.refs["raw_value_bits"][cls][q]
        if not report.raw_value_bits >= ref - REFERENCE_TOL:
            return f"raw value {report.raw_value_bits!r} below reference {ref!r}"
        return None


class MimoBatch(BoundWorkload):
    name = "mimo_batch"
    # A balanced fraction of dims x m_s x field: every (m_t, m_r) pair once
    # per field, with m_s set by a Latin square so that each m_s value meets
    # each m_t, each m_r and each field equally often.
    classes = tuple((m_t, m_r, 1 + (m_t + m_r + f) % 3, field)
                    for f, field in enumerate(("real", "complex"))
                    for m_t in (2, 3, 4) for m_r in (2, 3, 4))
    pool_per_class = 16
    search = {"restarts": 2, "max_iters": 40}


class StateHeavy(BoundWorkload):
    name = "state_heavy"
    classes = tuple((d, d, 5, field) for d in (2, 3) for field in ("real", "complex"))
    pool_per_class = 12
    search = {"restarts": 2, "max_iters": 10}


def _cli(dp, argv):
    """Run the in-process CLI; returns (exit code, parsed stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dp.cli.cli_dispatch(["--quiet"] + argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


class VerifySuite:
    name = "verify_suite"
    window = 10

    def setup(self, dp, seed: int, scratch: Path) -> "VerifySuite":
        self.dp = dp
        self.base = seed * 1_000_000
        return self

    def item(self, j: int) -> int:
        return self.base + 10 * j

    def request(self, start: int):
        return _cli(self.dp, ["verify", "--seed-ladder", f"{start}..{start + 9}"])

    def check(self, start, output) -> str | None:
        code, doc = output
        if code != 0 or doc is None:
            return f"verify exited {code}"
        if doc.get("passed") is not True:
            return "verify did not pass"
        if doc["equivalence"]["cases"] != 20 or doc["concavity"]["trials"] != 1000:
            return (f"ran {doc['equivalence']['cases']} cases and "
                    f"{doc['concavity']['trials']} trials, expected 20 and 1000")
        return None


def sweep_digest(csv_path) -> dict:
    """SHA-256 of each checked column of a sweep CSV, over parsed values.

    The CSV carries six significant digits, so two different values differ
    by at least 1e-6 relative: equal parsed values are the same test as a
    1e-9 relative tolerance, and a digest stores it compactly.
    """
    with open(csv_path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    out = {}
    for col in SWEEP_COLUMNS:
        k = header.index(col)
        text = "\n".join(repr(float(r[k])) for r in rows)
        out[col] = hashlib.sha256(text.encode("ascii")).hexdigest()
    out["points"] = len(rows)
    return out


class ScalarSweep:
    name = "scalar_sweep"
    window = 10

    def setup(self, dp, seed: int, scratch: Path) -> "ScalarSweep":
        self.dp = dp
        rng = np.random.default_rng(seed)
        self.snrs = [int(k) for k in rng.integers(len(SWEEP_SNRS_DB), size=self.window)]
        self.out_dir = str(scratch / "sweep")
        os.makedirs(self.out_dir, exist_ok=True)
        self.refs = load_references().get(self.name, {})
        return self

    def item(self, j: int) -> int:
        return self.snrs[j]

    def request(self, snr_index: int):
        return _cli(self.dp, ["sweep", "--snr-db", repr(SWEEP_SNRS_DB[snr_index]),
                              "--inr-start", "-10", "--inr-stop", "40",
                              "--step", "0.1", "--out", self.out_dir])

    def check(self, snr_index, output) -> str | None:
        code, doc = output
        if code != 0 or doc is None:
            return f"sweep exited {code}"
        got = sweep_digest(os.path.join(self.out_dir, "sweep.csv"))
        want = self.refs[str(snr_index)]
        bad = [k for k in want if got.get(k) != want[k]]
        if bad:
            return f"sweep at {SWEEP_SNRS_DB[snr_index]} dB differs in {bad}"
        return None


WORKLOADS = {w.name: w for w in (MimoBatch, StateHeavy, VerifySuite, ScalarSweep)}
