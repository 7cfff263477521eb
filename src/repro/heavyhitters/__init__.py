"""Heavy-hitter identification protocols over massive domains [3, 4, 19, 21]."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "common": ("HeavyHitterResult",),
        "pem": ("pem_heavy_hitters",),
        "succinct": ("bitstogram_heavy_hitters",),
        "treehist": ("treehist_heavy_hitters",),
    },
)
