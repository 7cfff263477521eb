"""Client/aggregator simulation layer."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "chaos": ("FaultPlan", "FrameFilter", "WorkerFault", "chaos_unit"),
        "service": (
            "SERVICE_BACKENDS",
            "CombinerCore",
            "CombinerDaemon",
            "IngestDaemon",
            "RetryPolicy",
            "SealedWindow",
            "ServiceError",
            "ServiceResult",
            "ShardFolder",
            "ShipPayload",
            "WorkerServiceStats",
            "feed_envelopes",
            "run_distributed_collection",
        ),
        "simulation": (
            "BACKENDS",
            "CollectionStats",
            "ShardedCollectionStats",
            "ShardStats",
            "report_bytes",
            "run_collection",
            "run_sharded_collection",
        ),
        "streaming": (
            "COMPOSITIONS",
            "USER_MODELS",
            "EventTimeCollector",
            "StreamResult",
            "StreamSnapshot",
            "WindowSpec",
            "stream_collection",
            "stream_reports",
        ),
    },
)
