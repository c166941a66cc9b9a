"""Dense reference model of the dealer plus ideal single feed-forward.

Written from the physics, not from ``qss``, and never imports it: the
benchmark checks the program's sweep rows against these numbers.  Every
optical quadrature is a row of coefficients over eight independent axes

    secret+, secret-, sqz1+, sqz1-, sqz2+, sqz2-, N+, N-

so a mode is a ``(2, 8)`` array (X+ row, X- row), and a whole sweep grid
is a ``(points, 2, 8)`` array evaluated at once.  sqz1 is squeezed on
X-, sqz2 on X+; both are pure (anti-squeezed variance 1/v_sq).
"""

from __future__ import annotations

import math

import numpy as np

SECRET_MEANS = (5.0, 5.0)
PARAMETRIC_GAIN = 1.0 / 3.0
TOL = 1e-9

ROW_FIELDS = (
    "g_plus", "g_minus", "v_out_plus", "v_out_minus", "fidelity", "fidelity_unity",
    "t_plus", "t_minus", "signal_transfer", "v_cond_plus", "v_cond_minus", "added_noise",
    "f_classical_max", "t_classical_max", "v_classical_min",
)


def axis_variances(v_sq: float, v_n: float) -> np.ndarray:
    return np.array([1.0, 1.0, 1.0 / v_sq, v_sq, v_sq, 1.0 / v_sq, v_n, v_n])


def shares(player: int = 2):
    """Coefficient arrays of (share_a, share3) before orientation."""
    e = np.eye(8)
    secret, sqz1, sqz2, noise = e[0:2], e[2:4], e[4:6], e[6:8]
    h = math.sqrt(0.5)
    epr1 = h * sqz1 + h * sqz2
    epr2 = h * sqz1 - h * sqz2
    share1 = h * (secret + epr1) + h * noise
    share2 = h * (secret - epr1) - h * noise
    share3 = epr2 + np.array([[1.0], [-1.0]]) * noise
    return (share1 if player == 1 else share2), share3


def orient(share_a: np.ndarray, share3: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Flip share 3 by pi when its X+ correlation with share_a, minus its
    X- correlation, is negative (the experiment's phase lock)."""
    cov = (share_a * share3 * var).sum(axis=1)
    return -share3 if cov[0] - cov[1] < 0.0 else share3


def classical_bounds(g_plus, g_minus):
    """(F_max, T_max, V_min) without entanglement at optical gains g+-."""
    g_plus, g_minus = np.asarray(g_plus, float), np.asarray(g_minus, float)
    gg = g_plus * g_minus
    with np.errstate(divide="ignore", invalid="ignore"):
        f_max = np.where(gg > 0.0, 1.0 / (1.0 + np.abs((1.0 - gg) / gg)), 0.0)
        t_max = sum(np.where(g != 0.0, 1.0 / (1.0 + np.abs(1.0 / g**2 - 1.0)), 0.0)
                    for g in (g_plus, g_minus))
    return f_max, t_max, (1.0 - gg) ** 2


def coherent_fidelity(g_plus, g_minus, v_plus, v_minus, means=SECRET_MEANS):
    """Overlap of a coherent secret with a Gaussian output of gains g+-
    and variances V+-; zero when no secret component reaches the output."""
    k = (means[0] ** 2 * (1.0 - g_plus) ** 2 / (1.0 + v_plus)
         + means[1] ** 2 * (1.0 - g_minus) ** 2 / (1.0 + v_minus))
    f = 2.0 * np.exp(-k / 4.0) / np.sqrt((1.0 + v_plus) * (1.0 + v_minus))
    return np.where((g_plus == 0.0) & (g_minus == 0.0), 0.0, f)


def unity_fidelity(g_plus, g_minus, v_plus, v_minus):
    """Fidelity after a noiseless squeezer symmetrises the gains and a
    minimal-noise amplifier (g < 1) or attenuator (g > 1) brings them to 1."""
    gg = g_plus * g_minus
    pos = gg > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pos, np.abs(g_minus / g_plus), 1.0)
        vp, vm = v_plus * ratio, v_minus / ratio
        k = np.where(pos, 1.0 / gg, 1.0)
    # amplifier of power gain k (k > 1) or loss of efficiency k (k < 1):
    # both map V -> k V + (1 - k) for k < 1 and k V + (k - 1) for k > 1.
    vp = k * vp + np.abs(k - 1.0)
    vm = k * vm + np.abs(k - 1.0)
    return np.where(pos, 2.0 / np.sqrt((1.0 + vp) * (1.0 + vm)), 0.0)


def single_ff(v_sq: float, v_n: float, reflectivity, g_elec, player: int = 2) -> dict:
    """Ideal single feed-forward with the 1/3 parametric correction.

    ``reflectivity`` and ``g_elec`` broadcast to a grid; returns arrays
    of every checked row field plus the corrected output variances.
    """
    var = axis_variances(v_sq, v_n)
    share_a, share3 = shares(player)
    share3 = orient(share_a, share3, var)
    r = np.atleast_1d(np.asarray(reflectivity, float))[:, None, None]
    g = np.atleast_1d(np.asarray(g_elec, float))[:, None]
    b = np.sqrt(r) * share_a + np.sqrt(1.0 - r) * share3
    c = np.sqrt(1.0 - r) * share_a - np.sqrt(r) * share3
    raw = b.copy()
    raw[:, 0, :] += g * c[:, 0, :]
    corrected = raw * np.array([[math.sqrt(PARAMETRIC_GAIN)], [1.0 / math.sqrt(PARAMETRIC_GAIN)]])
    return _report(raw, corrected, var)


def _report(raw: np.ndarray, corrected: np.ndarray, var: np.ndarray) -> dict:
    g_plus, g_minus = raw[:, 0, 0], raw[:, 1, 1]
    v_raw = (raw**2 * var).sum(axis=2)
    v_out = (corrected**2 * var).sum(axis=2)
    gc_plus, gc_minus = corrected[:, 0, 0], corrected[:, 1, 1]
    none = (gc_plus == 0.0) & (gc_minus == 0.0)
    t_plus = np.where(none, 0.0, gc_plus**2 / v_out[:, 0])
    t_minus = np.where(none, 0.0, gc_minus**2 / v_out[:, 1])
    v_cond_plus = v_out[:, 0] - gc_plus**2
    v_cond_minus = v_out[:, 1] - gc_minus**2
    f_max, t_max, v_min = classical_bounds(g_plus, g_minus)
    return {
        "g_plus": g_plus,
        "g_minus": g_minus,
        "v_out_plus": v_out[:, 0],
        "v_out_minus": v_out[:, 1],
        "fidelity": coherent_fidelity(gc_plus, gc_minus, v_out[:, 0], v_out[:, 1]),
        "fidelity_unity": unity_fidelity(g_plus, g_minus, v_raw[:, 0], v_raw[:, 1]),
        "t_plus": t_plus,
        "t_minus": t_minus,
        "signal_transfer": t_plus + t_minus,
        "v_cond_plus": v_cond_plus,
        "v_cond_minus": v_cond_minus,
        "added_noise": v_cond_plus * v_cond_minus,
        "f_classical_max": f_max,
        "t_classical_max": t_max,
        "v_classical_min": v_min,
    }


def rows_as_arrays(rows, fields=ROW_FIELDS) -> dict:
    """Program output rows (dicts) as float arrays, with the corrected
    output variances V_out+- = v_cond+- + g+-^2 recovered from the
    reported gains (the correction scales g+ by 1/sqrt(3), g- by sqrt(3))."""
    out = {f: np.array([float(row[f]) for row in rows]) for f in fields if f not in ("v_out_plus", "v_out_minus")}
    k = math.sqrt(PARAMETRIC_GAIN)
    out["v_out_plus"] = out["v_cond_plus"] + (k * out["g_plus"]) ** 2
    out["v_out_minus"] = out["v_cond_minus"] + (out["g_minus"] / k) ** 2
    return out


def compare(got: dict, want: dict, tol: float = TOL, where: str = "") -> list[str]:
    """Field-by-field comparison, tolerance scaled by max(1, |want|)."""
    errors = []
    for field, ref in want.items():
        if field not in got:
            continue
        diff = np.abs(got[field] - ref)
        bad = ~(diff <= tol * np.maximum(1.0, np.abs(ref)))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            errors.append(f"{where}{field}[{i}] = {got[field][i]!r}, reference {ref[i]!r} "
                          f"({int(bad.sum())} rows off)")
    return errors


def dominated(t: float, v: float, t_all: np.ndarray, v_all: np.ndarray, tol: float = TOL) -> bool:
    """Whether (t, v) is beaten by a grid point in higher T or lower V
    without being worse in the other."""
    better_t = (t_all > t + tol) & (v_all <= v + tol)
    better_v = (v_all < v - tol) & (t_all >= t - tol)
    return bool((better_t | better_v).any())


def frontier_errors(frontier, t_all: np.ndarray, v_all: np.ndarray, tol: float = TOL) -> list[str]:
    """A frontier must be made of grid points, be non-dominated among
    them, and rise monotonically in both T and V."""
    errors = []
    if not frontier:
        return ["empty frontier"]
    for t, v in frontier:
        if not (np.abs(t_all - t) + np.abs(v_all - v) <= tol * max(1.0, abs(t) + abs(v))).any():
            errors.append(f"frontier point ({t!r}, {v!r}) is not a grid point")
        elif dominated(t, v, t_all, v_all, tol):
            errors.append(f"frontier point ({t!r}, {v!r}) is dominated")
    for (t0, v0), (t1, v1) in zip(frontier, frontier[1:]):
        if not (t1 > t0 and v1 > v0):
            errors.append(f"frontier not monotone at ({t0!r}, {v0!r}) -> ({t1!r}, {v1!r})")
    return errors[:5]
