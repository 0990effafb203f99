"""Shared utilities: RNG handling, alias sampling, timing, validation,
checkpoint archives, fault injection."""

from repro.utils.alias import AliasTable, PackedAliasTables, build_alias_tables
from repro.utils.checkpoint import (
    Checkpoint,
    CheckpointError,
    array_checksum,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.faults import InjectedCrash
from repro.utils.rng import ensure_rng, shard_rng, spawn_rng
from repro.utils.timers import Timer
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_non_negative,
)

__all__ = [
    "AliasTable",
    "PackedAliasTables",
    "build_alias_tables",
    "Checkpoint",
    "CheckpointError",
    "InjectedCrash",
    "array_checksum",
    "load_checkpoint",
    "save_checkpoint",
    "ensure_rng",
    "shard_rng",
    "spawn_rng",
    "Timer",
    "check_fraction",
    "check_positive",
    "check_non_negative",
]
