"""Shared substrate: validation, RNG, hashing, decode kernels, WHT, Bloom."""

from repro.util.bloom import BloomFilter
from repro.util.hashing import SeededHashFamily, hash_elementwise
from repro.util.kernels import (
    FusedSupportKernel,
    KernelTiming,
    kernel_timing_scope,
    mersenne_reduce,
)
from repro.util.rng import derive_seed, ensure_generator, per_user_seeds, spawn_many
from repro.util.wht import fwht, hadamard_entries, hadamard_row, next_power_of_two

__all__ = [
    "BloomFilter",
    "FusedSupportKernel",
    "KernelTiming",
    "kernel_timing_scope",
    "mersenne_reduce",
    "SeededHashFamily",
    "hash_elementwise",
    "derive_seed",
    "ensure_generator",
    "per_user_seeds",
    "spawn_many",
    "fwht",
    "hadamard_entries",
    "hadamard_row",
    "next_power_of_two",
]
