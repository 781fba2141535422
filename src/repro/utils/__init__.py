"""Shared utilities: table formatting, process-level parallelism, the C-kernel
loader (:mod:`.native`) and the one CSR SpMV every layer binds (:mod:`.sparse`)."""

from .parallel import available_workers, parallel_map
from .tables import format_mean_std, format_table, format_timing_split

__all__ = [
    "format_table",
    "format_mean_std",
    "format_timing_split",
    "parallel_map",
    "available_workers",
]
