"""Shared utilities: table formatting, the C-kernel loader (:mod:`.native`) and
the one CSR SpMV every layer binds (:mod:`.sparse`)."""

from .tables import format_mean_std, format_table

__all__ = [
    "format_table",
    "format_mean_std",
]
