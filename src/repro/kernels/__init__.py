"""Fused MTTKRP kernel layer: cached gather indices, reusable workspaces,
blocked execution, and a pluggable backend registry.

The memoized engine's numeric phase is the same three-step pipeline for
every node rebuild — gather factor rows, Hadamard-multiply with the parent
values, segment-sum — and everything about it except the floating-point
values is static.  This package caches the static part
(:class:`NodeKernelIndex`), reuses the scratch (:class:`WorkspaceArena`),
blocks the passes to cache capacity (:mod:`~repro.kernels.blocking`), and
makes the executor pluggable (:func:`get_kernel`; select with the
``REPRO_KERNEL`` environment variable or the engines' ``kernel=`` argument).
The COO engines of :mod:`repro.parallel` share one shard kernel
(:func:`coo_mttkrp_shard`, :mod:`~repro.kernels.shard`).

Backends: ``csr`` (default; segmented sums as CSR sparse products, within
``AGREEMENT_RTOL`` of the original engine), ``numpy`` (bitwise identical to
the original engine), ``alto`` (``numpy`` on bit-packed gathers, bitwise
identical to it), ``reference`` (the original engine's numeric path, for
benchmarking and differential tests), and ``numba`` (fused ``prange``
loop, auto-detected).
"""

from .alto import AltoEncoding, AltoKernel, aligned_chunks, fits_alto
from .backends import (CSR_UNAVAILABLE, CsrKernel, KernelBackend, NumpyKernel,
                       RebuildContext, ReferenceKernel)
from .blocking import (CANDIDATE_BLOCK_ROWS, autotune_block_rows,
                       clear_tuning_cache, default_block_rows,
                       resolve_block_rows, segment_blocks)
from .indices import NodeKernelIndex, build_node_index
from .registry import (DEFAULT_KERNEL, available_kernels, get_kernel,
                       register_kernel, register_unavailable,
                       unavailable_kernels)
from .shard import SCATTER_UNAVAILABLE, coo_mttkrp_shard
from .workspace import WorkspaceArena

register_kernel(NumpyKernel.name, NumpyKernel)
register_kernel(ReferenceKernel.name, ReferenceKernel)
register_kernel(AltoKernel.name, AltoKernel)
if CSR_UNAVAILABLE is None:
    register_kernel(CsrKernel.name, CsrKernel)
else:  # pragma: no cover - depends on scipy
    register_unavailable(CsrKernel.name, CSR_UNAVAILABLE)

try:  # optional fused backend — self-registers on import
    from . import numba_backend  # noqa: F401
except Exception as _numba_err:  # pragma: no cover - depends on environment
    register_unavailable("numba", f"numba import failed: {_numba_err}")

__all__ = [
    "AltoEncoding",
    "AltoKernel",
    "CANDIDATE_BLOCK_ROWS",
    "CsrKernel",
    "DEFAULT_KERNEL",
    "KernelBackend",
    "NodeKernelIndex",
    "NumpyKernel",
    "RebuildContext",
    "ReferenceKernel",
    "SCATTER_UNAVAILABLE",
    "WorkspaceArena",
    "aligned_chunks",
    "autotune_block_rows",
    "fits_alto",
    "available_kernels",
    "build_node_index",
    "clear_tuning_cache",
    "coo_mttkrp_shard",
    "default_block_rows",
    "get_kernel",
    "register_kernel",
    "register_unavailable",
    "resolve_block_rows",
    "segment_blocks",
    "unavailable_kernels",
]
