"""The telemetry seam: instrument switches, run observer, artifact registry.

* every registered instrument, alone and all together, leaves ``cp_als``
  bitwise identical to the all-off run — and with everything off the
  seam hands out no observer;
* attribution respects the run context like every other instrument;
* the tracemalloc peak behind the watchdog's ``mem_traced`` band does not
  grow across traced runs in one process;
* the lazily imported ``repro.obs`` names import in a fresh interpreter.
"""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.obs
from repro.cli import main
from repro.core.cpals import cp_als
from repro.core.engine import MemoizedMttkrp
from repro.obs import attribution, runctx, seam
from repro.obs.metrics import registry
from repro.obs.switch import SWITCHES, quiet

from .helpers import random_coo

SRC = str(Path(__file__).resolve().parents[1] / "src")

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.watchdog.ModelDriftWarning"
)


@pytest.fixture(autouse=True)
def clean_state():
    """Each test starts and ends with every instrument off and empty."""
    def reset():
        for switch in SWITCHES.values():
            switch.disable()
        registry.reset()
        runctx.run_registry.clear()
    reset()
    yield
    reset()


def order4_tensor():
    return random_coo(np.random.default_rng(11), (9, 8, 7, 6), 300)


def run_als(tensor, **kwargs):
    result = cp_als(tensor, 3, strategy="bdt", n_iter_max=4, tol=0.0,
                    random_state=5, **kwargs)
    kt = result.ktensor
    return [kt.weights, *kt.factors], result.fits


def assert_bitwise(got, want):
    factors, fits = got
    ref_factors, ref_fits = want
    assert fits == ref_fits
    for a, b in zip(factors, ref_factors):
        assert a.tobytes() == b.tobytes()


class TestRegistryBitwise:
    def test_no_observer_when_everything_off(self):
        tensor = order4_tensor()
        engine = MemoizedMttkrp(tensor, "bdt")
        engine.set_factors([np.ones((s, 3)) for s in tensor.shape])
        assert seam.run_observer(tensor, 3, engine, memoized=True) is None
        assert seam.engine_probe() is None
        assert seam.node_tracker() is None

    def test_quiet_follows_switches_and_pins(self):
        assert quiet()
        with SWITCHES["trace"].block():
            assert not quiet()
        assert quiet()
        dark = runctx.RunContext.scoped(events=False)
        with runctx.using(dark, register=False):
            assert quiet()
        traced = runctx.RunContext.scoped(trace=True, events=False)
        with runctx.using(traced, register=False):
            assert not quiet()
            assert seam.engine_probe() is not None

    @pytest.mark.parametrize("name", sorted(SWITCHES))
    def test_each_instrument_alone(self, name):
        tensor = order4_tensor()
        want = run_als(tensor)
        with SWITCHES[name].block():
            got = run_als(tensor)
        assert_bitwise(got, want)

    def test_all_instruments_together(self):
        tensor = order4_tensor()
        want = run_als(tensor)
        with contextlib.ExitStack() as stack:
            for switch in SWITCHES.values():
                stack.enter_context(switch.block())
            got = run_als(tensor)
        assert_bitwise(got, want)


class TestAttributionRunContext:
    def test_scoped_run_leaves_global_recorder_empty(self):
        tensor = order4_tensor()
        with attribution.recording() as recorder:
            ctx = runctx.RunContext.scoped()
            result = cp_als(tensor, 3, strategy="bdt", n_iter_max=2,
                            run_ctx=ctx)
        assert not recorder.has_data
        assert recorder.readings == []
        assert result.attribution_readings is None
        assert not ctx.attribution.has_data

    def test_ambient_run_still_records(self):
        with attribution.recording() as recorder:
            cp_als(order4_tensor(), 3, strategy="bdt", n_iter_max=2)
        assert recorder.has_data
        assert len(recorder.readings) == 2


class TestTracedMemoryWindow:
    def test_traced_ratio_stable_across_runs(self, tmp_path, capsys):
        """The tracemalloc peak restarts every window and ``repro trace``
        stops the tracemalloc it started, so the watchdog's traced-memory
        ratio does not creep up run after run in one long-lived process,
        even as that process keeps state between the runs."""
        ratios = []
        kept = []
        for i in range(3):
            trace_dir = tmp_path / f"tr{i}"
            assert main([
                "trace", "--trace-dir", str(trace_dir),
                "decompose", "nips", "--scale", "0.01", "--rank", "2",
                "--iters", "2", "--strategy", "bdt",
            ]) == 0
            with open(trace_dir / "metrics.json") as fh:
                gauges = json.load(fh)["metrics"]["gauges"]
            ratios.append(gauges["drift.mem_traced_ratio"])
            kept.append(np.ones(1 << 17))  # 1 MiB the process holds on to
        capsys.readouterr()
        assert ratios[2] <= 1.1 * ratios[0], ratios


LAZY_NAMES = sorted(
    name for module, names in repro.obs._LAZY.items()
    for name in (module, *names) if name in repro.obs.__all__
)


@pytest.mark.parametrize("name", LAZY_NAMES)
def test_lazy_obs_name_imports_fresh(name):
    code = (f"from repro.obs import {name}\n"
            f"import repro.obs\n"
            f"assert getattr(repro.obs, {name!r}) is {name}\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
