"""Dealer encoding, the five reconstruction protocols, adversary views
and the classical performance bounds for the (2,3) sharing scheme.

The dealer hides a secret coherent state by interfering it with one arm
of an entangled pair on a 1:1 beam splitter and adding correlated
classical noise:

    share1 = (X_in + X_epr1 + dN) / sqrt(2)
    share2 = (X_in - X_epr1 - dN) / sqrt(2)
    share3+ = X_epr2+ + dN+,   share3- = X_epr2- - dN-

Reconstruction protocols are built compositionally from optical
components; the closed-form outputs serve as test oracles only.  The
{1,3} and {2,3} groups share one code path: when share 2 is used, share
3 enters with a pi phase flip so the classical noise and anti-squeezed
terms cancel, and the orientation is auto-detected from the sign of the
cross-share covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .components import (
    DetectorSpec,
    IDEAL_DETECTOR,
    beam_splitter,
    displace,
    homodyne,
    lo_displace,
    loss,
    phase_insensitive_amp,
    phase_sensitive_amp,
    phase_shift,
)
from .modes import (
    MINUS,
    PLUS,
    ClassicalSignal,
    QuadratureMode,
    axis_names,
    classical_axis,
    covariance,
    new_coherent,
    new_squeezed,
    new_vacuum,
    variance,
)

DEFAULT_SECRET_MEANS = (5.0, 5.0)
UNITY_PIA_GAIN = 2.0
UNITY_TWO_OPA_GAIN = 3.0 + 2.0 * math.sqrt(2.0)
UNITY_SINGLE_FF_GAIN = 2.0 * math.sqrt(2.0)


@dataclass
class DealerConfig:
    """Squeezing / classical-noise parameters of the dealer protocol.

    Efficiencies map interference points to mode-matching efficiencies;
    recognised key: ``epr1_in`` (secret x entangled-beam splitter).
    Unlisted points are ideal.
    """

    v_sq: float = 1.0
    v_anti: float | None = None
    v_n: float = 0.0
    efficiencies: Mapping[str, float] = field(default_factory=dict)
    secret: QuadratureMode | None = None

    def __post_init__(self):
        if self.v_n < 0.0:
            raise ValueError("classical noise variance must be >= 0")
        for point, eta in self.efficiencies.items():
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"efficiency for {point!r} must be in (0, 1]")

    def make_secret(self) -> QuadratureMode:
        if self.secret is not None:
            return self.secret
        return new_coherent(*DEFAULT_SECRET_MEANS, label="secret")


@dataclass
class ShareSet:
    """The three dealer outputs plus provenance of the noise axes."""

    share1: QuadratureMode
    share2: QuadratureMode
    share3: QuadratureMode
    secret: QuadratureMode
    axis_tags: dict[str, list[int]]

    def share(self, k: int) -> QuadratureMode:
        return {1: self.share1, 2: self.share2, 3: self.share3}[k]


@dataclass
class ReconstructionReport:
    """Gains, output variances and the coefficient table for one run."""

    g_plus: float
    g_minus: float
    v_out_plus: float
    v_out_minus: float
    coefficients: dict[str, tuple[float, float]]
    params: dict
    output: QuadratureMode
    secret: QuadratureMode

    @property
    def gain_product(self) -> float:
        return self.g_plus * self.g_minus


def secret_gains(secret: QuadratureMode, output: QuadratureMode) -> tuple[float, float]:
    """Optical gains read off the coefficients on the secret's own axes."""
    sec_p = next(iter(secret.coeff_plus))
    sec_m = next(iter(secret.coeff_minus))
    return output.coeff_plus.get(sec_p, 0.0), output.coeff_minus.get(sec_m, 0.0)


def make_report(secret: QuadratureMode, output: QuadratureMode, params: dict | None = None) -> ReconstructionReport:
    g_p, g_m = secret_gains(secret, output)
    weighted = [output.axes[aid] for aid in sorted(output.axes)
                if output.coeff_plus.get(aid, 0.0) or output.coeff_minus.get(aid, 0.0)]
    table = {name: (output.coeff_plus.get(aid, 0.0), output.coeff_minus.get(aid, 0.0))
             for aid, name in axis_names(weighted).items()}
    return ReconstructionReport(
        g_p,
        g_m,
        variance(output, PLUS),
        variance(output, MINUS),
        table,
        params or {},
        output,
        secret,
    )


def dealer_encode(cfg: DealerConfig) -> ShareSet:
    secret = cfg.make_secret()
    sqz1 = new_squeezed(cfg.v_sq, cfg.v_anti, MINUS, "sqz1")
    sqz2 = new_squeezed(cfg.v_sq, cfg.v_anti, PLUS, "sqz2")
    epr1, epr2 = beam_splitter(sqz1, sqz2, 0.5)

    eta_in = cfg.efficiencies.get("epr1_in", 1.0)
    noise_p = classical_axis(cfg.v_n, "N.plus")
    noise_m = classical_axis(cfg.v_n, "N.minus")
    n_plus = ClassicalSignal(0.0, {noise_p.id: 1.0}, {noise_p.id: noise_p})
    n_minus = ClassicalSignal(0.0, {noise_m.id: 1.0}, {noise_m.id: noise_m})

    s = 1.0 / math.sqrt(2.0)
    out1, out2 = beam_splitter(secret, epr1, 0.5)
    if eta_in < 1.0:
        # Mode mismatch at the encoding beam splitter degrades both outputs.
        out1 = loss(out1, eta_in, "mm_epr1_in")
        out2 = loss(out2, eta_in, "mm_epr1_in")
    share1 = _add_noise(out1, n_plus, n_minus, s, s)
    share2 = _add_noise(out2, n_plus, n_minus, -s, -s)
    share3 = _add_noise(epr2, n_plus, n_minus, 1.0, -1.0)

    tagged = set(secret.axes) | set(sqz1.axes) | set(sqz2.axes) | {noise_p.id, noise_m.id}
    everything = set(share1.axes) | set(share2.axes) | set(share3.axes)
    tags = {
        "secret": sorted(secret.axes),
        "sqz1": sorted(sqz1.axes),
        "sqz2": sorted(sqz2.axes),
        "noise_plus": [noise_p.id],
        "noise_minus": [noise_m.id],
        "vacuum": sorted(everything - tagged),
    }
    return ShareSet(share1, share2, share3, secret, tags)


def _add_noise(mode: QuadratureMode, n_plus: ClassicalSignal, n_minus: ClassicalSignal, k_plus: float, k_minus: float) -> QuadratureMode:
    out = displace(mode, PLUS, n_plus, k_plus)
    return displace(out, MINUS, n_minus, k_minus)


def orient_share3(share_a: QuadratureMode, share3: QuadratureMode) -> QuadratureMode:
    """Phase-flip share 3 when needed so its correlations with ``share_a``
    add constructively (the experiment's phase lock).

    Shares 1 and 2 are correlated with share 3 in opposite senses on the
    two quadratures (positively on one, negatively on the other), so the
    discriminator is the difference of the quadrature covariances, which
    does not cancel for a pure entangled pair.
    """
    c = covariance(share_a, PLUS, share3, PLUS) - covariance(share_a, MINUS, share3, MINUS)
    if c < 0.0:
        return phase_shift(share3, math.pi)
    return share3


def reconstruct_mz(share1: QuadratureMode, share2: QuadratureMode, eta_bs: float = 1.0) -> QuadratureMode:
    """{1,2} group: recombine the shares on a 1:1 beam splitter."""
    out, _ = beam_splitter(share1, share2, 0.5)
    if eta_bs < 1.0:
        out = loss(out, eta_bs, "mm_mz")
    return out


def reconstruct_pia(share_a: QuadratureMode, share3: QuadratureMode, gain: float = UNITY_PIA_GAIN) -> QuadratureMode:
    """{1,3}/{2,3} group: amplify one share with share 3 as the idler."""
    if gain < 1.0:
        raise ValueError(f"amplifier gain must be >= 1, got {gain}")
    return phase_insensitive_amp(share_a, orient_share3(share_a, share3), gain)


def reconstruct_two_opa(share_a: QuadratureMode, share3: QuadratureMode, gain: float = UNITY_TWO_OPA_GAIN) -> QuadratureMode:
    """{1,3}/{2,3} group: interfere, amplify noiselessly with amplitude
    gains 1/sqrt(G) and sqrt(G), and recombine."""
    if gain <= 0.0:
        raise ValueError(f"amplifying gain must be > 0, got {gain}")
    c, d = beam_splitter(share_a, orient_share3(share_a, share3), 0.5)
    c_amp = phase_sensitive_amp(c, 1.0 / gain)
    d_amp = phase_sensitive_amp(d, gain)
    out, _ = beam_splitter(c_amp, d_amp, 0.5)
    return out


def reconstruct_single_ff(
    share_a: QuadratureMode,
    share3: QuadratureMode,
    reflectivity: float = 2.0 / 3.0,
    g_elec: float = UNITY_SINGLE_FF_GAIN,
    det: DetectorSpec = IDEAL_DETECTOR,
    mirror_reflectivity: float | None = None,
    eta_bs: float = 1.0,
    eta_lo: float = 1.0,
) -> QuadratureMode:
    """{1,3}/{2,3} group: interfere the shares (2:1 is optimal), measure
    X+ of one output and feed it forward onto X+ of the other.

    With ``mirror_reflectivity`` set, the displacement is applied via a
    modulated local oscillator on a highly reflective mirror instead of
    an ideal displacement.
    """
    b, c = beam_splitter(share_a, orient_share3(share_a, share3), reflectivity)
    if eta_bs < 1.0:
        b = loss(b, eta_bs, "mm_ff_bs")
        c = loss(c, eta_bs, "mm_ff_bs")
    sig = homodyne(c, PLUS, det)
    if mirror_reflectivity is None:
        return displace(b, PLUS, sig, g_elec)
    return lo_displace(b, PLUS, sig, g_elec, mirror_reflectivity, aux_eta=eta_lo)


def parametric_correction(mode: QuadratureMode) -> QuadratureMode:
    """A-posteriori local squeezer: X+ -> X+/sqrt(3), X- -> sqrt(3) X-."""
    return phase_sensitive_amp(mode, 1.0 / 3.0)


def reconstruct_double_ff(
    share_a: QuadratureMode,
    share3: QuadratureMode,
    secret: QuadratureMode,
    reflectivity: float = 0.5,
    g_target: float = 1.0,
    det: DetectorSpec = IDEAL_DETECTOR,
    mirror_reflectivity: float | None = None,
) -> QuadratureMode:
    """{1,3}/{2,3} group, both quadratures by feed-forward.

    One share is split against vacuum (1:1 is optimal), the transmitted
    beam interferes with share 3, X+ and X- of the two outputs are
    measured, and the retained beam is displaced on both quadratures.
    Electronic gains are solved internally (against the secret's axis
    coefficients) so the achieved optical gain equals ``g_target`` on
    both quadratures.
    """
    s3 = orient_share3(share_a, share3)

    def build(g_plus_elec: float, g_minus_elec: float) -> QuadratureMode:
        b, kept = beam_splitter(share_a, new_vacuum("dff_vac"), reflectivity)
        e, d = beam_splitter(b, s3, 0.5)
        sig_p = homodyne(d, PLUS, det)
        sig_m = homodyne(e, MINUS, det)
        if mirror_reflectivity is None:
            out = displace(kept, PLUS, sig_p, g_plus_elec)
            return displace(out, MINUS, sig_m, g_minus_elec)
        out = lo_displace(kept, PLUS, sig_p, g_plus_elec, mirror_reflectivity)
        return lo_displace(out, MINUS, sig_m, g_minus_elec, mirror_reflectivity)

    g0 = secret_gains(secret, build(0.0, 0.0))
    g1 = secret_gains(secret, build(1.0, 1.0))
    gains = []
    for q in (0, 1):
        slope = g1[q] - g0[q]
        if abs(slope) < 1e-12:
            raise ValueError(f"optical gain {g_target} is unreachable at reflectivity {reflectivity}")
        gains.append((g_target - g0[q]) / slope)
    return build(gains[0], gains[1])


def single_ff_gain_map(reflectivity: float, g_elec: float) -> tuple[float, float]:
    """Ideal-optics electronic-to-optical gain map of the single
    feed-forward protocol (read-only; the implementation is
    compositional)."""
    s = 1.0 / math.sqrt(2.0)
    g_minus = math.sqrt(reflectivity) * s
    g_plus = g_minus + g_elec * math.sqrt(1.0 - reflectivity) * s
    return g_plus, g_minus


def solve_single_ff_unity_gain(build, probe=(0.0, 1.0)) -> float:
    """Electronic gain achieving g+ g- = 1 for a linear pipeline builder.

    ``build(g_elec)`` must return a ReconstructionReport; the map from
    electronic gain to g+ is affine, g- is fixed by the splitter.
    """
    r0, r1 = build(probe[0]), build(probe[1])
    slope = (r1.g_plus - r0.g_plus) / (probe[1] - probe[0])
    if abs(slope) < 1e-12 or abs(r0.g_minus) < 1e-12:
        raise ValueError("unity gain unreachable for this configuration")
    target_g_plus = 1.0 / r0.g_minus
    return probe[0] + (target_g_plus - r0.g_plus) / slope


def adversary_view(shares: ShareSet, k: int) -> ReconstructionReport:
    """Report on a single raw share (the adversary's best passive view)."""
    if k not in (1, 2, 3):
        raise ValueError("player index must be 1, 2 or 3")
    return make_report(shares.secret, shares.share(k), {"protocol": f"adversary_{k}"})


def adversary_amplified(shares: ShareSet, k: int, amp_gain: float = math.sqrt(2.0), idler: QuadratureMode | None = None) -> QuadratureMode:
    """Raw share passed through a phase-insensitive amplifier of
    amplitude gain ``amp_gain`` (sqrt(2) restores unity gain for shares
    1 and 2) with a vacuum idler unless one is supplied."""
    if idler is None:
        idler = new_vacuum("adv_idler")
    return phase_insensitive_amp(shares.share(k), idler, amp_gain**2)


def classical_bounds(g_plus: float, g_minus: float) -> tuple[float, float, float]:
    """(F_max, T_max, V_min) achievable without entanglement at the
    given optical gains.

    The fidelity bound assumes symmetric gains; for asymmetric gains the
    symmetrised product g+ g- is used, consistent with correcting to
    unity gain by noiseless squeezing plus minimal amplification.
    """
    gg = g_plus * g_minus
    if gg <= 0.0:
        f_max = 0.0
    else:
        f_max = 1.0 / (1.0 + abs((1.0 - gg) / gg))
    t_max = 0.0
    for g in (g_plus, g_minus):
        if g != 0.0:
            t_max += 1.0 / (1.0 + abs(1.0 / g**2 - 1.0))
    v_min = (1.0 - gg) ** 2
    return f_max, t_max, v_min


def classical_avg_fidelity(k: int, n: int) -> float:
    """Best classical fidelity averaged over all authorised groups of a
    (k, n) threshold scheme with coherent secrets."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return k / n
