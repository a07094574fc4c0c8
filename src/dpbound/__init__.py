"""Capacity upper bounds for the compound vector dirty paper channel.

A transmitter knows an additive Gaussian interference sequence but not the
matrix transforming it before reception; only a cap on the transform's
largest singular value is known.  This package evaluates upper bounds on
the capacity of that channel, closed-form for rank-one received signals
and max-min search in general, along with reference rates, a high-SNR
degrees-of-freedom calculator and brute-force verification oracles.
"""

__version__ = "0.1.0"

from .baselines import interference_free_capacity, tin_worst_case, water_filling
from .channel import (
    AdversaryFamily,
    ChannelModel,
    FieldKind,
    inr_to_amax,
    load_model,
    model_from_json,
    model_to_json,
    validate_model,
)
from .adversary import GroupPartition, build_family, enumerate_partitions, objective
from .dof import DofScenario, InrScaling, dof_fixed_rank, dof_upper_bound
from .general import (
    BoundReport,
    SearchConfig,
    Soundness,
    capacity_upper_bound,
    inner_inf,
    outer_sup,
)
from .oracle import (
    brute_force_inner_inf,
    cross_check_rank1,
    logdet_concavity_check,
    run_equivalence_suite,
    witness_value,
)
from .rank1 import (
    Rank1Inputs,
    prelog_gap_certificate,
    prelog_reference,
    rank1_inputs_from_model,
    rank_one_bound,
)
from .spectral import (
    SignalSubspace,
    WhitenedState,
    signal_subspace,
    whiten_state,
)
from .sweep import SweepResult, SweepSpec, emit_data_files, run_sweep

__all__ = [
    "AdversaryFamily",
    "BoundReport",
    "ChannelModel",
    "DofScenario",
    "FieldKind",
    "GroupPartition",
    "InrScaling",
    "Rank1Inputs",
    "SearchConfig",
    "SignalSubspace",
    "Soundness",
    "SweepResult",
    "SweepSpec",
    "WhitenedState",
    "brute_force_inner_inf",
    "build_family",
    "capacity_upper_bound",
    "cross_check_rank1",
    "dof_fixed_rank",
    "dof_upper_bound",
    "emit_data_files",
    "enumerate_partitions",
    "inner_inf",
    "inr_to_amax",
    "interference_free_capacity",
    "load_model",
    "logdet_concavity_check",
    "model_from_json",
    "model_to_json",
    "objective",
    "outer_sup",
    "prelog_gap_certificate",
    "prelog_reference",
    "rank1_inputs_from_model",
    "rank_one_bound",
    "run_equivalence_suite",
    "run_sweep",
    "signal_subspace",
    "tin_worst_case",
    "validate_model",
    "water_filling",
    "whiten_state",
    "witness_value",
]
