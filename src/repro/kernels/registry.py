"""The kernel backend registry.

Backends register a factory under a name; engines resolve a backend from an
explicit argument, the ``REPRO_KERNEL`` environment variable, or the default
(``csr``, or ``numpy`` when scipy's CSR product cannot be imported).
Optional backends (numba, csr) register as *unavailable* with a reason when
their dependency is missing, and requesting one falls back to the default
with a warning rather than failing — the numeric result is the same either
way.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable

from ..obs.metrics import registry as _metrics
from .backends import CSR_UNAVAILABLE, KernelBackend

DEFAULT_KERNEL = "numpy" if CSR_UNAVAILABLE else "csr"

_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_UNAVAILABLE: dict[str, str] = {}


def register_kernel(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    key = name.lower()
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)
    _UNAVAILABLE.pop(key, None)


def register_unavailable(name: str, reason: str) -> None:
    """Record that ``name`` exists but cannot be used (missing dependency)."""
    key = name.lower()
    if key not in _FACTORIES:
        _UNAVAILABLE[key] = reason


def available_kernels() -> list[str]:
    """Names of backends that can actually run, default first."""
    names = sorted(_FACTORIES)
    names.sort(key=lambda n: n != DEFAULT_KERNEL)
    return names


def unavailable_kernels() -> dict[str, str]:
    """Known-but-unusable backend names mapped to the reason."""
    return dict(_UNAVAILABLE)


def get_kernel(spec: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend: instance pass-through, name, ``REPRO_KERNEL``,
    or the default.  Shared singleton per name (backends are stateless)."""
    if isinstance(spec, KernelBackend):
        return spec
    name = (spec or os.environ.get("REPRO_KERNEL") or DEFAULT_KERNEL)
    name = name.strip().lower() or DEFAULT_KERNEL
    if name not in _FACTORIES:
        if name in _UNAVAILABLE:
            warnings.warn(
                f"kernel backend {name!r} is unavailable "
                f"({_UNAVAILABLE[name]}); falling back to {DEFAULT_KERNEL!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            _metrics.incr("kernel.fallbacks")
            name = DEFAULT_KERNEL
        else:
            raise ValueError(
                f"unknown kernel backend {name!r}; available: "
                f"{available_kernels()}"
            )
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _FACTORIES[name]()
        _INSTANCES[name] = inst
    _metrics.incr(f"kernel.resolved.{name}")
    return inst
