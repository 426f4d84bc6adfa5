"""Shared fixtures: the demo circuit, its oracle values, derived parameters,
the default band, and synthetic trace builders."""

import csv

import numpy as np
import pytest

from rlcband import (
    CircuitSpec,
    Trace,
    default_time_grid,
    derive_params,
    step_response_band,
    step_response_curve,
)

# mpmath oracle: nominal parameters and specs of the demo circuit,
# R = 100 + 7.8 ohm, L = 0.1 H, C = 100 nF
XI_NOMINAL = 0.05389999999999999720
W0_NOMINAL = 9999.99999999999995
WD_NOMINAL = 9985.46338434025800
MP_NOMINAL = 0.8440206198662326
TP_NOMINAL = 3.146166114350395e-4
TA_NOMINAL = 7.421150278293136e-3

# the demo circuit as a config file's JSON object
DEMO_CONFIG = {
    "r_ohms": 100.0, "r_tol_pct": 5.0,
    "rl_ohms": 7.8, "rl_tol_pct": 5.0,
    "l_henries": 0.1, "l_tol_pct": 10.0,
    "c_farads": 100e-9, "c_tol_pct": 20.0,
}

# component values well inside the demo box: R, RL, L and C
IN_BOX_COMPONENTS = (98.0, 8.0, 0.104, 1.1e-7)


@pytest.fixture(scope="session")
def demo_spec():
    return CircuitSpec(
        r_ohms=100.0, r_tol=0.05,
        rl_ohms=7.8, rl_tol=0.05,
        l_henries=0.1, l_tol=0.10,
        c_farads=100e-9, c_tol=0.20,
    )


@pytest.fixture(scope="session")
def zero_tol_spec():
    return CircuitSpec(
        r_ohms=100.0, r_tol=0.0,
        rl_ohms=7.8, rl_tol=0.0,
        l_henries=0.1, l_tol=0.0,
        c_farads=100e-9, c_tol=0.0,
    )


@pytest.fixture(scope="session")
def demo_params(demo_spec):
    return derive_params(demo_spec)


@pytest.fixture(scope="session")
def demo_band(demo_params):
    return step_response_band(demo_params, default_time_grid(demo_params))


def make_step_trace(
    xi, omega0, omegad,
    dt=1e-6, t_end=0.03, t_pre=0.0,
    scale=1.0, offset=0.0, noise=0.0, seed=0,
):
    """Closed-form unit-step capture, optionally scaled/offset/noisy with a
    pre-trigger plateau (t < 0 at the baseline)."""
    k0 = round(t_pre / dt)
    k1 = round(t_end / dt)
    t = np.arange(-k0, k1 + 1, dtype=np.float64) * dt
    v = np.full(t.size, float(offset))
    after = t >= 0.0
    v[after] = offset + scale * step_response_curve(xi, omega0, omegad, t[after])
    if noise:
        rng = np.random.default_rng(seed)
        v = v + rng.normal(0.0, noise, t.size)
    return Trace(t, v)


def write_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "v"])
        for ti, vi in zip(trace.t, trace.v):
            writer.writerow([f"{ti:.12g}", f"{vi:.12g}"])
    return path
