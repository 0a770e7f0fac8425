"""Build identification: version, git revision, toolchain versions.

Used by ``repro --version``, the benchmark JSON envelope (so BENCH_*.json
artifacts are comparable across commits), and trace metadata.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from functools import lru_cache


@lru_cache(maxsize=1)
def git_revision() -> str:
    """Short git revision of the source tree, or ``"unknown"``.

    Resolved from the package's own directory so it works from any CWD;
    installed (non-checkout) copies report ``"unknown"``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def build_info() -> dict:
    """Version + environment facts as a flat dict."""
    from .. import __version__
    import numpy

    return {
        "version": __version__,
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "executable": sys.executable,
    }


#: schema tag for benchmark/experiment JSON artifacts (bump on change).
ARTIFACT_SCHEMA = "repro-bench/v1"


def artifact_envelope(artifact_id: str, payload, **meta) -> dict:
    """Wrap a result payload in the shared benchmark-artifact schema.

    Every ``benchmarks/results/*.json`` file carries the same envelope —
    timestamp, git revision, toolchain, and the kernel knobs in effect —
    so artifacts from different commits and machines are directly
    comparable.  Extra keyword arguments land in ``meta``.
    """
    from datetime import datetime, timezone

    from ..kernels.registry import DEFAULT_KERNEL

    return {
        "schema": ARTIFACT_SCHEMA,
        "artifact_id": artifact_id,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "kernel_backend": os.environ.get("REPRO_KERNEL", DEFAULT_KERNEL),
            "block_rows": os.environ.get("REPRO_KERNEL_BLOCK"),
            "bench_scale": os.environ.get("REPRO_BENCH_SCALE"),
            **build_info(),
            **meta,
        },
        "result": payload,
    }


def version_string() -> str:
    """One-line build description for ``repro --version``."""
    info = build_info()
    return (
        f"repro {info['version']} (git {info['git_rev']}, "
        f"python {info['python']}, numpy {info['numpy']})"
    )
