"""Independent oracle for the benchmark; it never imports rlcband.

It recomputes the series-RLC closed form in plain numpy, draws circuits
strictly inside a component box (Monte Carlo), evaluates the box corners with
50-digit mpmath, and judges the files and values rlcband produced. Every
check returns a list of failure reasons; an empty list means the output is
right.

A circuit is a dict with rlcband's config keys: ``r_ohms``, ``r_tol_pct``,
``rl_ohms``, ``rl_tol_pct``, ``l_henries``, ``l_tol_pct``, ``c_farads`` and
``c_tol_pct``.
"""

import itertools

import mpmath
import numpy as np

# rlcband's check calls a sample inside iff lower - slack <= v <= upper + slack.
VERDICT_SLACK = 1e-9
# Absolute error allowed between a double evaluation of the closed form and
# the exact value; the band's outward rounding covers only the latter.
FLOAT_SLACK = 1e-13
NOMINAL_TOL = 1e-12
MC_DRAWS = 64
_VALUE_KEYS = {"r": "r_ohms", "rl": "rl_ohms", "l": "l_henries", "c": "c_farads"}


def second_order(r_total, l, c):
    """(xi, omega0, omegad) of a series RLC circuit; numpy broadcasting."""
    xi = 0.5 * r_total * np.sqrt(c / l)
    omega0 = 1.0 / np.sqrt(l * c)
    return xi, omega0, omega0 * np.sqrt(1.0 - xi * xi)


def response(xi, omega0, t):
    """Unit-step response of the underdamped closed form; numpy broadcasting."""
    root = np.sqrt(1.0 - xi * xi)
    wd = omega0 * root
    return 1.0 - np.exp(-xi * omega0 * t) * (np.cos(wd * t) + xi / root * np.sin(wd * t))


def overshoot(xi):
    return np.exp(-np.pi * xi / np.sqrt(1.0 - xi * xi))


def xi_from_overshoot(mp):
    lg = np.log(mp)
    return -lg / np.hypot(np.pi, lg)


def nominal(circuit):
    """(xi, omega0, omegad) at the nominal component values."""
    return second_order(circuit["r_ohms"] + circuit["rl_ohms"],
                        circuit["l_henries"], circuit["c_farads"])


def grid_end(circuit, t_end_mult=5.0):
    """End of rlcband's default band grid: t_end_mult nominal settling times."""
    xi, omega0, _ = nominal(circuit)
    return t_end_mult * 4.0 / (xi * omega0)


def box(circuit):
    """{component: (lo, hi)} with the box rlcband builds, nom * (1 -/+ tol)."""
    out = {}
    for name, key in _VALUE_KEYS.items():
        tol = circuit[f"{name}_tol_pct"] / 100.0
        out[name] = (circuit[key] * (1.0 - tol), circuit[key] * (1.0 + tol))
    return out


def draw_inside(circuit, rng, n, margin=1e-3):
    """n circuits drawn uniformly strictly inside the box, as (r_total, l, c)."""
    v = {}
    for name, (lo, hi) in box(circuit).items():
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * (1.0 - margin)
        v[name] = rng.uniform(mid - half, mid + half, n)
    return v["r"] + v["rl"], v["l"], v["c"]


def _mp_box(circuit):
    """Exact box ends at 50 digits, from the same double tolerance fractions."""
    out = {}
    for name, key in _VALUE_KEYS.items():
        nom = mpmath.mpf(circuit[key])
        tol = mpmath.mpf(circuit[f"{name}_tol_pct"] / 100.0)
        out[name] = (nom * (1 - tol), nom * (1 + tol))
    return out


def _mp_response(r_total, l, c, t):
    xi = r_total / 2 * mpmath.sqrt(c / l)
    omega0 = 1 / mpmath.sqrt(l * c)
    root = mpmath.sqrt(1 - xi * xi)
    wd = omega0 * root
    return 1 - mpmath.exp(-xi * omega0 * t) * (mpmath.cos(wd * t) + xi / root * mpmath.sin(wd * t))


def _monte_carlo(circuit, rng, draws=MC_DRAWS):
    r_total, l, c = draw_inside(circuit, rng, draws)
    return second_order(r_total, l, c)


def check_band(circuit, t, lower, nom, upper, rng, points=None):
    """Judge a response band: grid, ordering, nominal curve, enclosure."""
    bad = []
    if points is not None and t.size != points:
        bad.append(f"band has {t.size} rows, expected {points}")
    if t.size < 2 or t[0] != 0.0 or not np.all(np.diff(t) > 0.0):
        return bad + ["band grid does not start at 0 or is not increasing"]
    if abs(t[-1] - grid_end(circuit)) > 1e-9 * t[-1]:
        bad.append(f"band grid ends at {float(t[-1])!r}, expected {float(grid_end(circuit))!r}")
    if not (np.all(lower <= nom) and np.all(nom <= upper)):
        i = int(np.argmax((lower > nom) | (nom > upper)))
        bad.append(f"band columns not ordered at t={float(t[i])!r}")
    xi, omega0, _ = nominal(circuit)
    err = np.max(np.abs(nom - response(xi, omega0, t)))
    if not err <= NOMINAL_TOL:
        bad.append(f"nominal column off the closed form by {err:.3g}")
    mxi, mw0, _ = _monte_carlo(circuit, rng)
    traj = response(mxi[:, None], mw0[:, None], t[None, :])
    below = np.any(traj < lower - FLOAT_SLACK, axis=0) | np.any(traj > upper + FLOAT_SLACK, axis=0)
    if below.any():
        i = int(np.argmax(below))
        bad.append(f"Monte-Carlo trajectory outside the band at t={float(t[i])!r} "
                   f"({int(below.sum())} grid points)")
    bad += _mp_spot_band(circuit, t, lower, nom, upper)
    return bad


def _mp_spot_band(circuit, t, lower, nom, upper):
    """Band endpoints against the 50-digit responses of the 8 box corners."""
    bad = []
    with mpmath.workdps(50):
        b = _mp_box(circuit)
        corners = list(itertools.product(
            (b["r"][0] + b["rl"][0], b["r"][1] + b["rl"][1]), b["l"], b["c"]))
        n_nom = (mpmath.mpf(circuit["r_ohms"]) + mpmath.mpf(circuit["rl_ohms"]),
                 mpmath.mpf(circuit["l_henries"]), mpmath.mpf(circuit["c_farads"]))
        n = t.size
        for i in sorted({1, n // 100, n // 20, n // 5, n // 2, n - 1}):
            ti = mpmath.mpf(float(t[i]))
            values = [_mp_response(*corner, ti) for corner in corners]
            if not (mpmath.mpf(float(lower[i])) <= min(values)
                    and max(values) <= mpmath.mpf(float(upper[i]))):
                bad.append(f"band [{float(lower[i])!r}, {float(upper[i])!r}] misses a box corner "
                           f"at t={float(t[i])!r}")
            if abs(_mp_response(*n_nom, ti) - mpmath.mpf(float(nom[i]))) > NOMINAL_TOL:
                bad.append(f"nominal column off the 50-digit value at t={float(t[i])!r}")
    return bad


def check_params(circuit, xi, omega0, omegad, rng):
    """Judge interval parameters, each a (lo, hi) pair, against MC and mpmath."""
    bad = []
    mxi, mw0, mwd = _monte_carlo(circuit, rng)
    for name, (lo, hi), values in (("xi", xi, mxi), ("omega0", omega0, mw0),
                                   ("omegad", omegad, mwd)):
        if not (lo <= values.min() and values.max() <= hi):
            bad.append(f"interval {name} [{lo!r}, {hi!r}] misses a Monte-Carlo value")
    with mpmath.workdps(50):
        b = _mp_box(circuit)
        r = (b["r"][0] + b["rl"][0], b["r"][1] + b["rl"][1])
        # xi grows with R and C and falls with L; omega0 falls with L and C.
        xi_range = (r[0] / 2 * mpmath.sqrt(b["c"][0] / b["l"][1]),
                    r[1] / 2 * mpmath.sqrt(b["c"][1] / b["l"][0]))
        w0_range = (1 / mpmath.sqrt(b["l"][1] * b["c"][1]), 1 / mpmath.sqrt(b["l"][0] * b["c"][0]))
        for name, (lo, hi), (elo, ehi) in (("xi", xi, xi_range), ("omega0", omega0, w0_range)):
            if not (mpmath.mpf(lo) <= elo and ehi <= mpmath.mpf(hi)):
                bad.append(f"interval {name} [{lo!r}, {hi!r}] misses the exact range")
    return bad


def check_specs(circuit, values, t, rng):
    """Judge formula overshoot, band overshoot and identification (sweep values)."""
    bad = []
    mxi, mw0, _ = _monte_carlo(circuit, rng)
    mp_lo, mp_hi = values["mp"]
    mp = overshoot(mxi)
    if not (mp_lo - FLOAT_SLACK <= mp.min() and mp.max() <= mp_hi + FLOAT_SLACK):
        bad.append(f"overshoot [{mp_lo!r}, {mp_hi!r}] misses a Monte-Carlo value")
    peak = response(mxi[:, None], mw0[:, None], t[None, :]).max(axis=1) - 1.0
    band_lo, band_hi = values["mp_band"]
    if not (band_lo - FLOAT_SLACK <= peak.min() and peak.max() <= band_hi + FLOAT_SLACK):
        bad.append(f"band overshoot [{band_lo!r}, {band_hi!r}] misses a Monte-Carlo grid peak")
    for name in ("xi", "omegad"):
        (lo, hi), (ilo, ihi) = values[name], values[f"ident_{name}"]
        if not (ilo <= lo and hi <= ihi):
            bad.append(f"identify {name} [{ilo!r}, {ihi!r}] does not enclose [{lo!r}, {hi!r}]")
    return bad


def read_csv(path, header):
    """Numeric CSV with the given header line, as a 2-D array."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def check_verdicts(rows, expect_rows, all_inside=True):
    """Judge a verdict table (t, v, lower, upper, inside) of a capture."""
    bad = []
    if rows.shape[0] != expect_rows:
        bad.append(f"{rows.shape[0]} verdict rows, expected one per sample in the grid "
                   f"({expect_rows})")
    _, v, lower, upper, inside = rows.T
    rule = (v >= lower - VERDICT_SLACK) & (v <= upper + VERDICT_SLACK)
    wrong = ((inside != 1.0) & (inside != 0.0)) | (rule != (inside == 1.0))
    if wrong.any():
        bad.append(f"{int(wrong.sum())} verdict rows disagree with their own bounds")
    if all_inside and not np.all(inside == 1.0):
        bad.append(f"capture judged outside at {int((inside != 1.0).sum())} samples")
    return bad


def samples_in_grid(t_rel, circuit):
    """Count of capture samples (times from the onset) inside the default grid."""
    return int(np.count_nonzero((t_rel >= 0.0) & (t_rel <= grid_end(circuit))))


def _trace_column(stdout, quantity):
    for line in stdout.splitlines():
        cells = line.split()
        if cells and cells[0] == quantity and line.rstrip().endswith("components"):
            return float(cells[2])
    raise ValueError(f"no '{quantity}' components row with a trace value")


def check_trace_metrics(stdout, xi, omega0, dt):
    """Judge the trace column of `metrics` against the generating circuit.

    The peak is read off samples dt apart, so the peak time is exact to dt
    and the overshoot to the curvature over dt; the bounds allow that, the
    10-digit capture values and the 10-digit print.
    """
    try:
        xi_meas = _trace_column(stdout, "xi")
        wd_meas = _trace_column(stdout, "wd")
    except ValueError as exc:
        return [str(exc)]
    bad = []
    mp = overshoot(xi)
    d_mp = 0.5 * omega0 ** 2 * dt ** 2 * (1.0 + mp) + 1e-8
    xi_tol = abs(xi_from_overshoot(mp - d_mp) - xi) + 1e-9 * xi
    if not abs(xi_meas - xi) <= xi_tol:
        bad.append(f"trace xi {xi_meas!r} vs generating {xi!r} (allowed {xi_tol:.3g})")
    tp = np.pi / (omega0 * np.sqrt(1.0 - xi * xi))
    if not abs(np.pi / wd_meas - tp) <= dt * (1.0 + 1e-6):
        bad.append(f"trace wd {wd_meas!r} gives a peak time {np.pi / wd_meas!r}, "
                   f"generating {tp!r} (allowed {dt:.3g})")
    return bad

