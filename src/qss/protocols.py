"""Dealer encoding, the five reconstruction protocols and the classical
performance bounds for the (2,3) sharing scheme.

The dealer hides a secret coherent state by interfering it with one arm
of an entangled pair on a 1:1 beam splitter and adding correlated
classical noise:

    share1 = (X_in + X_epr1 + dN) / sqrt(2)
    share2 = (X_in - X_epr1 - dN) / sqrt(2)
    share3+ = X_epr2+ + dN+,   share3- = X_epr2- - dN-

Reconstruction protocols are built compositionally from optical
components; their closed forms live in the tests, as oracles.  The
{1,3} and {2,3} groups share one code path, given the dealer's shares
and the player (1 or 2) who joins share 3.  Share 2 carries the
entangled arm and the noise with the opposite sign to share 1, so its
group takes share 3 with a pi phase flip (:meth:`ShareSet.group`): the
classical noise and the anti-squeezed terms then cancel for either
player.

Every knob may be an array with one entry per row of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .components import (
    DetectorSpec,
    IDEAL_DETECTOR,
    beam_splitter,
    displace,
    feed_forward,
    feed_forward_scale,
    homodyne,
    loss,
    phase_insensitive_amp,
    phase_sensitive_amp,
    phase_shift,
    reject,
)
from .modes import (
    MINUS,
    PLUS,
    LinearForm,
    QuadratureMode,
    any_true,
    axis_names,
    classical_axis,
    mode_axes,
    new_coherent,
    new_squeezed,
    new_vacuum,
    variance,
)

DEFAULT_SECRET_MEANS = (5.0, 5.0)
UNITY_PIA_GAIN = 2.0
UNITY_TWO_OPA_GAIN = 3.0 + 2.0 * math.sqrt(2.0)
UNITY_SINGLE_FF_GAIN = 2.0 * math.sqrt(2.0)
UNITY_DOUBLE_FF_GAIN = 1.0  # the optical gain the double feed-forward solves for
SINGLE_FF_REFLECTIVITY = 2.0 / 3.0  # the optimal 2:1 splitter
DOUBLE_FF_REFLECTIVITY = 0.5
COHERENT_TOL = 1e-9


@dataclass
class DealerConfig:
    """Squeezing / classical-noise parameters of the dealer protocol.

    ``eta_epr1_in`` is the mode-matching efficiency of the splitter that
    interferes the secret with the entangled beam.
    """

    v_sq: float = 1.0
    v_anti: float | None = None
    v_n: float = 0.0
    eta_epr1_in: float = 1.0
    secret: QuadratureMode | None = None

    def __post_init__(self):
        if any_true(self.v_n < 0.0):
            raise ValueError("classical noise variance must be >= 0")
        if not 0.0 < self.eta_epr1_in <= 1.0:
            raise ValueError(f"eta_epr1_in must be in (0, 1], got {self.eta_epr1_in}")

    def make_secret(self) -> QuadratureMode:
        if self.secret is not None:
            return self.secret
        return new_coherent(*DEFAULT_SECRET_MEANS, label="secret")


@dataclass
class ShareSet:
    """The three dealer outputs and the secret they hide."""

    share1: QuadratureMode
    share2: QuadratureMode
    share3: QuadratureMode
    secret: QuadratureMode

    def share(self, k: int) -> QuadratureMode:
        return {1: self.share1, 2: self.share2, 3: self.share3}[k]

    def group(self, player: int) -> tuple[QuadratureMode, QuadratureMode]:
        """Share ``player`` and share 3 as that player's group takes it:
        as it is for share 1, phase-flipped by pi for share 2, so that its
        correlations with the share add constructively (the experiment's
        phase lock)."""
        if player == 1:
            return self.share1, self.share3
        if player == 2:
            return self.share2, phase_shift(self.share3, math.pi)
        raise ValueError(f"player must be 1 or 2, got {player}")


@dataclass
class ReconstructionReport:
    """The moments of one output relative to its coherent secret: the
    optical gains g+-, the output variances V+- and, on first read, the
    per-axis coefficient table.  With the secret's means they fix every
    metric of a Gaussian output."""

    g_plus: float
    g_minus: float
    v_out_plus: float
    v_out_minus: float
    output: QuadratureMode
    secret: QuadratureMode

    @property
    def gain_product(self) -> float:
        return self.g_plus * self.g_minus

    @cached_property
    def coefficients(self) -> dict[str, tuple[float, float]]:
        """(X+, X-) coefficients of the output, by unique axis name."""
        cp, cm = self.output.plus.coeffs, self.output.minus.coeffs
        return {name: (cp.get(ax, 0.0), cm.get(ax, 0.0)) for ax, name in axis_names(mode_axes(self.output)).items()}


def secret_gains(secret: QuadratureMode, output: QuadratureMode) -> tuple[float, float]:
    """Optical gains read off the coefficients on the secret's own axes."""
    sec_p = next(iter(secret.plus.coeffs))
    sec_m = next(iter(secret.minus.coeffs))
    return output.plus.coeffs.get(sec_p, 0.0), output.minus.coeffs.get(sec_m, 0.0)


def make_report(secret: QuadratureMode, output: QuadratureMode) -> ReconstructionReport:
    """The moments of ``output`` relative to ``secret``, which must be
    coherent: the metrics assume a secret of vacuum statistics."""
    for form in (secret.plus, secret.minus):
        if abs(variance(form) - 1.0) > COHERENT_TOL:
            raise ValueError("fidelity is defined here for coherent (vacuum-statistics) secrets only")
    g_p, g_m = secret_gains(secret, output)
    return ReconstructionReport(g_p, g_m, variance(output.plus), variance(output.minus), output, secret)


def dealer_encode(cfg: DealerConfig) -> ShareSet:
    secret = cfg.make_secret()
    sqz1 = new_squeezed(cfg.v_sq, cfg.v_anti, MINUS, "sqz1")
    sqz2 = new_squeezed(cfg.v_sq, cfg.v_anti, PLUS, "sqz2")
    epr1, epr2 = beam_splitter(sqz1, sqz2, 0.5)

    n_plus = LinearForm(0.0, {classical_axis(cfg.v_n, "N.plus"): 1.0})
    n_minus = LinearForm(0.0, {classical_axis(cfg.v_n, "N.minus"): 1.0})

    s = 1.0 / math.sqrt(2.0)
    out1, out2 = beam_splitter(secret, epr1, 0.5)
    if cfg.eta_epr1_in < 1.0:
        # Mode mismatch at the encoding beam splitter degrades both outputs.
        out1 = loss(out1, cfg.eta_epr1_in, "mm_epr1_in")
        out2 = loss(out2, cfg.eta_epr1_in, "mm_epr1_in")
    share1 = _add_noise(out1, n_plus, n_minus, s, s)
    share2 = _add_noise(out2, n_plus, n_minus, -s, -s)
    share3 = _add_noise(epr2, n_plus, n_minus, 1.0, -1.0)
    return ShareSet(share1, share2, share3, secret)


def _add_noise(mode: QuadratureMode, n_plus: LinearForm, n_minus: LinearForm, k_plus: float, k_minus: float) -> QuadratureMode:
    out = displace(mode, PLUS, n_plus, k_plus)
    return displace(out, MINUS, n_minus, k_minus)


def reconstruct_mz(share1: QuadratureMode, share2: QuadratureMode, eta_bs: float = 1.0) -> QuadratureMode:
    """{1,2} group: recombine the shares on a 1:1 beam splitter."""
    out, _ = beam_splitter(share1, share2, 0.5)
    if eta_bs < 1.0:
        out = loss(out, eta_bs, "mm_mz")
    return out


def reconstruct_pia(shares: ShareSet, player: int, gain: float = UNITY_PIA_GAIN) -> QuadratureMode:
    """{1,3}/{2,3} group: amplify share ``player`` with share 3 as the idler."""
    reject(gain < 1.0, "amplifier gain must be >= 1, got {}", gain)
    return phase_insensitive_amp(*shares.group(player), gain)


def reconstruct_two_opa(shares: ShareSet, player: int, gain: float = UNITY_TWO_OPA_GAIN) -> QuadratureMode:
    """{1,3}/{2,3} group: interfere, amplify noiselessly with amplitude
    gains 1/sqrt(G) and sqrt(G), and recombine."""
    reject(gain <= 0.0, "amplifying gain must be > 0, got {}", gain)
    c, d = beam_splitter(*shares.group(player), 0.5)
    c_amp = phase_sensitive_amp(c, 1.0 / gain)
    d_amp = phase_sensitive_amp(d, gain)
    out, _ = beam_splitter(c_amp, d_amp, 0.5)
    return out


def reconstruct_single_ff(
    shares: ShareSet,
    player: int,
    reflectivity: float = SINGLE_FF_REFLECTIVITY,
    g_elec: float | None = UNITY_SINGLE_FF_GAIN,
    det: DetectorSpec = IDEAL_DETECTOR,
    mirror_reflectivity: float | None = None,
    eta_bs: float = 1.0,
    eta_lo: float = 1.0,
) -> QuadratureMode:
    """{1,3}/{2,3} group: interfere the shares (2:1 is optimal), measure
    X+ of one output and feed it forward onto X+ of the other.

    With ``mirror_reflectivity`` set, the displacement is applied via a
    modulated local oscillator on a highly reflective mirror instead of
    an ideal displacement.  With ``g_elec`` None, the electronic gain is
    solved for g+ g- = 1 (against the axis coefficients of the secret).
    """
    b, c = beam_splitter(*shares.group(player), reflectivity)
    if eta_bs < 1.0:
        b = loss(b, eta_bs, "mm_ff_bs")
        c = loss(c, eta_bs, "mm_ff_bs")
    sig = homodyne(c, PLUS, det)
    if g_elec is None:
        k_t, k_s = feed_forward_scale(mirror_reflectivity, eta_lo)
        b_plus, b_minus = secret_gains(shares.secret, b)
        s_plus, _ = secret_gains(shares.secret, QuadratureMode(sig, sig))  # the photocurrent's coefficient
        error = "unity gain unreachable for this configuration"
        reject(abs(k_t * b_minus) < 1e-12, error)
        g_elec = _electronic_gain(k_t * b_plus, k_s * s_plus, 1.0 / (k_t * b_minus), error)
    return feed_forward(b, PLUS, sig, g_elec, mirror_reflectivity, eta_lo)


def parametric_correction(mode: QuadratureMode) -> QuadratureMode:
    """A-posteriori local squeezer: X+ -> X+/sqrt(3), X- -> sqrt(3) X-."""
    return phase_sensitive_amp(mode, 1.0 / 3.0)


def reconstruct_double_ff(
    shares: ShareSet,
    player: int,
    reflectivity: float = DOUBLE_FF_REFLECTIVITY,
    g_target: float = UNITY_DOUBLE_FF_GAIN,
    det: DetectorSpec = IDEAL_DETECTOR,
    mirror_reflectivity: float | None = None,
) -> QuadratureMode:
    """{1,3}/{2,3} group, both quadratures by feed-forward.

    Share ``player`` is split against vacuum (1:1 is optimal), the
    transmitted beam interferes with share 3, X+ and X- of the two outputs
    are measured, and the retained beam is displaced on both quadratures.
    Electronic gains are solved (against the secret's axis coefficients)
    so the achieved optical gain equals ``g_target`` on both quadratures.
    """
    share_a, share3 = shares.group(player)
    b, kept = beam_splitter(share_a, new_vacuum("dff_vac"), reflectivity)
    e, d = beam_splitter(b, share3, 0.5)
    sig_p = homodyne(d, PLUS, det)
    sig_m = homodyne(e, MINUS, det)
    k_t, k_s = feed_forward_scale(mirror_reflectivity)
    kept_plus, kept_minus = secret_gains(shares.secret, kept)
    s_plus, s_minus = secret_gains(shares.secret, QuadratureMode(sig_p, sig_m))  # the photocurrents' coefficients
    error = ("optical gain {} is unreachable at reflectivity {}", g_target, reflectivity)
    # Both displacements scale the kept beam by k_t; the X- one also scales the X+ feed-forward.
    g_plus = _electronic_gain(k_t * k_t * kept_plus, k_t * k_s * s_plus, g_target, *error)
    g_minus = _electronic_gain(k_t * k_t * kept_minus, k_s * s_minus, g_target, *error)
    return feed_forward(feed_forward(kept, PLUS, sig_p, g_plus, mirror_reflectivity),
                        MINUS, sig_m, g_minus, mirror_reflectivity)


def _electronic_gain(offset: float, slope: float, target: float, *error) -> float:
    """Electronic gain g at which an optical gain ``offset + g * slope``
    equals ``target``; ``error`` is the :func:`~qss.components.reject`
    message and values."""
    reject(abs(slope) < 1e-12, *error)
    return (target - offset) / slope


def classical_bounds(g_plus: float, g_minus: float) -> tuple[float, float, float]:
    """(F_max, T_max, V_min) achievable without entanglement at the
    given optical gains.

    The fidelity bound assumes symmetric gains; for asymmetric gains the
    symmetrised product g+ g- is used, consistent with correcting to
    unity gain by noiseless squeezing plus minimal amplification.
    """
    with np.errstate(all="ignore"):  # the zero cases divide by zero, then are discarded
        gg = np.multiply(g_plus, g_minus)
        f_max = np.where(gg <= 0.0, 0.0, 1.0 / (1.0 + np.abs((1.0 - gg) / gg)))[()]
        t_plus, t_minus = (np.where(g != 0.0, 1.0 / (1.0 + np.abs(1.0 / np.square(g) - 1.0)), 0.0)[()]
                           for g in (g_plus, g_minus))
        return f_max, t_plus + t_minus, (1.0 - gg) ** 2


def classical_avg_fidelity(k: int, n: int) -> float:
    """Best classical fidelity averaged over all authorised groups of a
    (k, n) threshold scheme with coherent secrets."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return k / n
