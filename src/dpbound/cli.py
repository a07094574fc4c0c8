"""Command-line interface.

Subcommands: ``bound rank1``, ``bound general``, ``dof``, ``baseline``,
``sweep`` and ``verify``.  Every command prints a single JSON object on
stdout; exit status is 0 on success, 1 on validation/usage errors and 2
on internal errors.  Progress notes go to stderr unless ``--quiet``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .baselines import interference_free_capacity, tin_worst_case
from .channel import FieldKind, _json_safe, db_to_power, inr_to_amax, load_model
from .dof import DofScenario, InrScaling, dof_upper_bound
from .errors import DirtyPaperError, TooLarge
from .general import SearchConfig, capacity_upper_bound
from .oracle import concavity_trials, concavity_verdicts, run_equivalence_suite
from .rank1 import Rank1Inputs, prelog_gap_certificate, prelog_reference, rank_one_bound
from .sweep import SweepSpec, emit_data_files, run_sweep


def _emit(doc: dict) -> None:
    """Print ``doc`` as strict JSON; a NaN or infinity raises before any output."""
    print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _note(args, msg: str) -> None:
    if not getattr(args, "quiet", False):
        print(msg, file=sys.stderr)


# largest --ms of ``bound rank1``, which holds one state eigenvalue per
# dimension and sums one term per dimension
MAX_RANK1_STATE_DIM = 10 ** 6


def _cmd_bound_rank1(args) -> int:
    if args.ms > MAX_RANK1_STATE_DIM:
        raise TooLarge(f"--ms {args.ms} exceeds {MAX_RANK1_STATE_DIM}")
    P = db_to_power(args.snr_db, "SNR")
    field = FieldKind(args.field)
    a_max = inr_to_amax(args.inr_db, 1.0)
    inputs = Rank1Inputs(h_norm_sq_P=P, v=(1.0,) * args.ms, a_max=a_max,
                         kappa=field.kappa)
    raw = rank_one_bound(inputs)
    int_free = field.kappa * math.log2(1.0 + P)
    cert = None if math.isinf(a_max) else prelog_gap_certificate(inputs)
    _emit(_json_safe({
        "value_bits": min(raw, int_free),
        "raw_value_bits": raw,
        "prelog_bits": prelog_reference(inputs),
        "int_free_bits": int_free,
        "soundness": "Exact",
        "gap_certificate": cert,
        "snr_db": args.snr_db,
        "inr_db": args.inr_db,
        "m_s": args.ms,
        "field": field.value,
    }))
    return 0


def _parse_ranks(text: str) -> tuple | range:
    """Parse ``bound general --ranks``: a range ``a..b`` or a list ``a,b,...``.

    Rejects empty ranges, empty list items and non-integers; whether each
    rank fits the model is checked once the model is loaded.  A range stays
    a ``range``, so its size costs no memory.
    """
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            ranks = range(int(lo), int(hi) + 1)
        else:
            ranks = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a..b or a comma-separated list of integer ranks, "
            f"got {text!r}") from None
    if not ranks:
        raise argparse.ArgumentTypeError(f"rank range {text!r} is empty")
    return ranks


def _cmd_bound_general(args) -> int:
    model = load_model(args.model)
    search = SearchConfig(restarts=args.restarts, ranks=args.ranks)
    _note(args, f"evaluating bound for {model.m_t}x{model.m_r} channel, "
                f"m_s={model.m_s}")
    report = capacity_upper_bound(model, search)
    _emit(report.to_json())
    return 0


def _parse_bool(text: str) -> bool:
    """Parse ``dof --amax-finite``: ``true`` or ``false``, any case."""
    flag = text.lower()
    if flag not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return flag == "true"


def _cmd_dof(args) -> int:
    scenario = DofScenario(m_t=args.mt, m_r=args.mr, m_s=args.ms,
                           amax_finite=args.amax_finite,
                           inr_scaling=InrScaling(args.inr_scaling))
    _emit({"dof": dof_upper_bound(scenario)})
    return 0


def _cmd_baseline(args) -> int:
    model = load_model(args.model)
    if args.which == "int-free":
        _emit({"int_free_bits": interference_free_capacity(model)})
    else:
        _emit({"tin_bits": tin_worst_case(model)})
    return 0


def _cmd_sweep(args) -> int:
    traces = tuple(args.traces.split(",")) if args.traces else \
        ("bound", "tin", "int_free", "half_if")
    spec = SweepSpec(snr_db=args.snr_db, inr_db_start=args.inr_start,
                     inr_db_stop=args.inr_stop, inr_db_step=args.step,
                     field=FieldKind(args.field), traces=traces)
    _note(args, f"sweeping {spec.points} INR points at "
                f"SNR {args.snr_db} dB")
    result = run_sweep(spec)
    files = emit_data_files(result, args.out)
    _emit({"points": len(result.rows), "files": sorted(files)})
    return 0


# concavity trials per verify run, split evenly over the seed ladder
CONCAVITY_TRIALS = 1000


def _seed_ladder(text: str) -> range:
    """Parse a ``verify`` seed ladder ``a..b``: seeds a to b inclusive.

    Rejects malformed and empty ladders, negative seeds, and ladders too
    long for every seed to get one of the ``CONCAVITY_TRIALS`` trials.
    """
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            raise ValueError(text)
        ladder = range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a..b with integer seeds, got {text!r}") from None
    if not ladder:
        raise argparse.ArgumentTypeError(f"seed ladder {text!r} is empty")
    if ladder.start < 0:
        raise argparse.ArgumentTypeError(
            f"seeds must be nonnegative, got {text!r}")
    if len(ladder) > CONCAVITY_TRIALS:
        raise argparse.ArgumentTypeError(
            f"seed ladder {text!r} has {len(ladder)} seeds; at most "
            f"{CONCAVITY_TRIALS} fit {CONCAVITY_TRIALS} concavity trials")
    return ladder


def _cmd_verify(args) -> int:
    ladder = args.seed_ladder

    _note(args, "running aligned-vs-brute-force equivalence suite (20 cases)")
    records = run_equivalence_suite()
    equiv_ok = all(r["ok"] for r in records)
    witness_ok = all(r["witness_ok"] for r in records)

    _note(args, "running log-det concavity trials")
    trials = 0
    concave_ok = True
    for order, M, Psi in concavity_trials(ladder, CONCAVITY_TRIALS // len(ladder)):
        concave_ok &= bool(np.all(concavity_verdicts(M, Psi)))
        trials += len(order)

    passed = equiv_ok and witness_ok and concave_ok
    _emit({
        "passed": passed,
        "equivalence": {"cases": len(records),
                        "max_gap": max(r["gap"] for r in records),
                        "ok": equiv_ok},
        "witness": {"max_gap": max(r["witness_gap"] for r in records),
                    "ok": witness_ok},
        "concavity": {"trials": trials, "ok": concave_ok},
        "seed_ladder": list(ladder),
    })
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpbound",
        description="Capacity bounds for the compound dirty paper channel")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="capacity upper bounds")
    bound_sub = p_bound.add_subparsers(dest="bound_kind", required=True)

    p_r1 = bound_sub.add_parser("rank1", help="closed-form MISO/SIMO bound")
    p_r1.add_argument("--snr-db", type=float, required=True)
    p_r1.add_argument("--inr-db", type=float, required=True)
    p_r1.add_argument("--ms", type=int, required=True)
    p_r1.add_argument("--field", choices=["real", "complex"], default="real")
    p_r1.set_defaults(func=_cmd_bound_rank1)

    p_gen = bound_sub.add_parser("general", help="general max-min bound")
    p_gen.add_argument("--model", required=True, help="model JSON file")
    p_gen.add_argument("--ranks", type=_parse_ranks, default=None,
                       help="signal ranks to try, e.g. 1..2 or 1,3")
    p_gen.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    p_gen.set_defaults(func=_cmd_bound_general)

    p_dof = sub.add_parser("dof", help="degrees-of-freedom upper bound")
    p_dof.add_argument("--mt", type=int, required=True)
    p_dof.add_argument("--mr", type=int, required=True)
    p_dof.add_argument("--ms", type=int, required=True)
    p_dof.add_argument("--amax-finite", type=_parse_bool,
                       required=True, metavar="BOOL")
    p_dof.add_argument("--inr-scaling", required=True,
                       choices=["sublinear", "linear", "superlinear"])
    p_dof.set_defaults(func=_cmd_dof)

    p_base = sub.add_parser("baseline", help="reference rates")
    p_base.add_argument("which", choices=["int-free", "tin"])
    p_base.add_argument("--model", required=True)
    p_base.set_defaults(func=_cmd_baseline)

    p_sweep = sub.add_parser("sweep", help="scalar INR sweep, plot data out")
    p_sweep.add_argument("--snr-db", type=float, required=True)
    p_sweep.add_argument("--inr-start", type=float, required=True)
    p_sweep.add_argument("--inr-stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--traces", default=None,
                         help="comma-separated subset of "
                              "bound,tin,int_free,half_if")
    p_sweep.add_argument("--field", choices=["real", "complex"], default="real")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--seed-ladder", type=_seed_ladder, default="0..9",
                          help="seeds a..b of the concavity trials")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DirtyPaperError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
