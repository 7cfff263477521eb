"""Shared substrate: validation, RNG, hashing, decode kernels, WHT, Bloom."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bloom": ("BloomFilter",),
        "kernels": (
            "FusedSupportKernel",
            "KernelTiming",
            "kernel_timing_scope",
            "mersenne_reduce",
        ),
        "hashing": ("SeededHashFamily", "hash_elementwise"),
        "rng": ("derive_seed", "ensure_generator", "per_user_seeds", "spawn_many"),
        "wht": ("fwht", "hadamard_entries", "hadamard_row", "next_power_of_two"),
    },
)
