"""Congestion pressure laws and their energy potentials.

A law maps the congestion ratio r = density / local maximal density to a
scalar pressure.  Besides the pressure and its derivative each law exposes
two potentials that enter the energy balance of the flow:

* ``enthalpy``: the potential whose derivative is pressure'(r) / r,
  normalized to vanish at r = 0.  The congestion force equals density times
  the gradient of (fluid enthalpy + law enthalpy), which is what makes a
  discrete energy estimate possible even when the maximal density varies
  in space.
* ``energy_potential``: the antiderivative of pressure(r) / r**2, also
  vanishing at r = 0.  Density times this potential is the stored
  compression energy density of the congestion pressure.

The two are linked by

    enthalpy(r) = pressure(r) / r + energy_potential(r)

(integration by parts; the boundary term at 0 vanishes whenever the
pressure grows faster than linearly there), and equivalently by
``energy_potential + r * energy_potential' = enthalpy``, which the test
suite checks with finite differences.

Every potential is a closed form.  The steep laws reduce to the
incomplete beta integral (DLMF 8.17.7)

    int_0^r s**(alpha-2) * (1-s)**(-beta) ds
        = r**(alpha-1) / (alpha-1) * 2F1(alpha-1, beta; alpha; r),

and so does the sedimentation law once its argument is rescaled by the
packing fraction (beta = 1 there).  Any alpha > 1 is supported.

An integer alpha takes a finite binomial sum instead of ``hyp2f1``: on a
9604-cell array the sum costs 57 us for alpha = beta = 2 and the
hypergeometric function 484 us (one Xeon core), a gap that adds up over
the thousands of steps of a 2D run.  Both forms agree with 50-digit
references to about 1e-14 up to r = 1 - 1e-6.

The hypergeometric form loses accuracy in one corner.  When
c - a - b = 1 - beta is close to, but not exactly, an integer, scipy's
connection formulas cancel nearly equal terms.  For |beta - 1| <= 1e-5 and
r >= 0.9999 the relative error reaches 1e-6 to 5e-5, and 5e-4 at
|beta - 1| = 1e-12; near beta = 2 it stays below 1e-6, near beta = 3
below 1e-10.  Exact integers, and every beta with |beta - n| >= 1e-3, are
accurate to 1e-12.

``scipy.special`` costs more to import than numpy and the rest of the
package together, so it loads only when a law with a non-integer exponent
is built (``_hyp2f1``).  Building the law, not evaluating it, is what
loads it: a config naming such a law pays for the import while it is
parsed, never inside the run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import BarrierViolation, ParameterError

# exponents below this make the stored energy too weak for the sharpest
# a-priori bounds; the laws still evaluate fine, so only warn
RECOMMENDED_MIN_EXPONENT = 3.0


class SteepnessWarning(UserWarning):
    """Exponent below the recommended range for the steep laws."""


def _as_ratio_array(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ParameterError("law argument must be nonnegative")
    return arr


def _match_shape(values, template):
    if np.ndim(template) == 0:
        return float(values)
    return values


def _require_positive(kind, **fields):
    for name, value in fields.items():
        if not (value > 0.0):
            raise ParameterError(f"{kind} law: {name} must be positive, got {value}", name)


@lru_cache(maxsize=None)
def _hyp2f1():
    """scipy's Gauss hypergeometric function, imported on first use."""
    from scipy.special import hyp2f1

    return hyp2f1


def _preload_hyp2f1(alpha):
    # a non-integer alpha takes the hypergeometric form of the potential
    if not float(alpha).is_integer():
        _hyp2f1()


def _check_steep(kind, alpha, beta):
    """Require alpha > 1, warn on shallow exponents, load what alpha needs."""
    # the potentials integrate s**(alpha - 2) up from 0
    if not (alpha > 1.0):
        raise ParameterError(f"{kind} law: alpha must exceed 1, got {alpha}", "alpha")
    if alpha < RECOMMENDED_MIN_EXPONENT or beta < RECOMMENDED_MIN_EXPONENT:
        warnings.warn(
            f"{kind} law with alpha={alpha}, beta={beta}: exponents below "
            f"{RECOMMENDED_MIN_EXPONENT} weaken the stored-energy bounds",
            SteepnessWarning,
            # 4 = past _check_steep, __post_init__, and the generated
            # dataclass __init__, landing on the constructing caller
            stacklevel=4,
        )
    _preload_hyp2f1(alpha)


@dataclass(frozen=True)
class FluidParams:
    """Viscosities and the internal (gas) pressure exponent.

    The internal pressure is density**gamma; ``enthalpy`` is the potential
    with density * grad(enthalpy) = grad(internal pressure).
    """

    mu: float
    # a config spells it ``lambda`` and may leave it out
    lam: float = field(metadata={"key": "lambda", "default": 0.0})
    gamma: float

    def __post_init__(self):
        if not (self.mu > 0.0):
            raise ParameterError(f"mu must be positive, got {self.mu}", "mu")
        if not (2.0 * self.mu + self.lam > 0.0):
            raise ParameterError(
                f"2*mu + lambda must be positive, got {2.0 * self.mu + self.lam}", "lam"
            )
        if not (self.gamma > 1.0):
            raise ParameterError(f"gamma must exceed 1, got {self.gamma}", "gamma")

    def pressure(self, rho):
        arr = np.asarray(rho, dtype=float)
        return _match_shape(arr**self.gamma, rho)

    def enthalpy(self, rho):
        arr = np.asarray(rho, dtype=float)
        g = self.gamma
        return _match_shape(g / (g - 1.0) * arr ** (g - 1.0), rho)


class PressureLawBase:
    """Common argument checking and the shared enthalpy identity."""

    kind = "base"
    # argument value where the law blows up; None when the law is finite
    # on the whole half line
    singular_at: float | None = None

    def _singular_error(self):
        return BarrierViolation(f"{self.kind} law undefined at argument >= {self.singular_at}")

    def _checked(self, r):
        arr = _as_ratio_array(r)
        if self.singular_at is not None and np.any(arr >= self.singular_at):
            raise self._singular_error()
        return arr

    def _check_range(self, lo, hi):
        """Raise what ``_checked`` raises for arguments spanning [lo, hi]."""
        if lo < 0.0:
            raise ParameterError("law argument must be nonnegative")
        if self.singular_at is not None and hi >= self.singular_at:
            raise self._singular_error()

    # The unchecked terms below take the argument r together with om = 1 - r,
    # so that a caller evaluating several terms at one argument forms 1 - r
    # once; laws whose formulas do not use 1 - r ignore it.

    def _enthalpy(self, r, om):
        pos = r > 0.0
        safe = np.where(pos, r, 1.0)
        over_r = np.where(pos, self._pi(r, om) / safe, 0.0)
        return over_r + self._energy(r, om)

    def pressure(self, r):
        arr = self._checked(r)
        return _match_shape(self._pi(arr, 1.0 - arr), r)

    def pressure_deriv(self, r):
        arr = self._checked(r)
        return _match_shape(self._dpi(arr, 1.0 - arr), r)

    def energy_potential(self, r):
        arr = self._checked(r)
        return _match_shape(self._energy(arr, 1.0 - arr), r)

    def enthalpy(self, r):
        arr = self._checked(r)
        return _match_shape(self._enthalpy(arr, 1.0 - arr), r)


@dataclass(frozen=True)
class SingularLaw(PressureLawBase):
    """Steep law eps * r**alpha / (1 - r)**beta on r in [0, 1)."""

    eps: float
    alpha: float
    beta: float

    kind = "singular"
    singular_at = 1.0

    def __post_init__(self):
        _require_positive(self.kind, eps=self.eps, beta=self.beta)
        _check_steep(self.kind, self.alpha, self.beta)

    def _pi(self, r, om):
        return self.eps * r**self.alpha * om ** (-self.beta)

    def _dpi(self, r, om):
        a, b = self.alpha, self.beta
        return self.eps * r ** (a - 1.0) * om ** (-b - 1.0) * (a * om + b * r)

    def _energy(self, r, om):
        return _steep_energy(self.eps, self.alpha, self.beta, r, om)


@dataclass(frozen=True)
class BarotropicLaw(PressureLawBase):
    """Power law a * r**gamma_n, finite for every r >= 0."""

    a: float
    gamma_n: float

    kind = "barotropic"
    singular_at = None

    def __post_init__(self):
        _require_positive(self.kind, a=self.a)
        if not (self.gamma_n > 1.0):
            raise ParameterError(f"barotropic law: gamma_n must exceed 1, got {self.gamma_n}", "gamma_n")

    def _pi(self, r, om):
        return self.a * r**self.gamma_n

    def _dpi(self, r, om):
        return self.a * self.gamma_n * r ** (self.gamma_n - 1.0)

    def _energy(self, r, om):
        g = self.gamma_n
        return self.a / (g - 1.0) * r ** (g - 1.0)


@dataclass(frozen=True)
class TruncatedLaw(PressureLawBase):
    """Steep law capped above 1 - delta, plus a stiff power background.

    Below 1 - delta this is kappa * s**cap_k + eps * s**alpha / (1-s)**beta;
    at and above 1 - delta the singular factor is frozen at delta**-beta, so
    the law is finite (and still increasing) for all s >= 0.  The derivative
    at the junction uses the right (capped) branch.
    """

    eps: float
    alpha: float
    beta: float
    kappa: float
    cap_k: float
    delta: float

    kind = "truncated"
    singular_at = None

    def __post_init__(self):
        _require_positive(self.kind, eps=self.eps, beta=self.beta, kappa=self.kappa)
        if not (self.cap_k > 4.0):
            raise ParameterError(f"truncated law: cap_k must exceed 4, got {self.cap_k}", "cap_k")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError(f"truncated law: delta must lie in (0, 1), got {self.delta}", "delta")
        _check_steep(self.kind, self.alpha, self.beta)

    # derived constants are cached per law, so that stack_laws can carry
    # each member's own scalar value rather than one recomputed on an array
    @cached_property
    def _cap(self):
        return 1.0 - self.delta

    @cached_property
    def _frozen_factor(self):
        return self.delta**-self.beta

    @cached_property
    def _delta_pow_beta(self):
        return self.delta**self.beta

    @cached_property
    def _cap_pow(self):
        return self._cap ** (self.alpha - 1.0)

    # the steep branch sees min(s, 1 - delta), so 1 - s goes unused

    def _pi(self, s, om):
        below = np.minimum(s, self._cap)
        steep = self.eps * below**self.alpha * (1.0 - below) ** (-self.beta)
        capped = self.eps * s**self.alpha * self._frozen_factor
        sing = np.where(s < self._cap, steep, capped)
        return self.kappa * s**self.cap_k + sing

    def _dpi(self, s, om):
        a, b = self.alpha, self.beta
        below = np.minimum(s, self._cap)
        om_below = 1.0 - below
        steep = self.eps * below ** (a - 1.0) * om_below ** (-b - 1.0) * (a * om_below + b * below)
        capped = self.eps * a * s ** (a - 1.0) * self._frozen_factor
        sing = np.where(s < self._cap, steep, capped)
        return self.kappa * self.cap_k * s ** (self.cap_k - 1.0) + sing

    def _energy(self, s, om):
        k = self.cap_k
        background = self.kappa / (k - 1.0) * s ** (k - 1.0)
        below = np.minimum(s, self._cap)
        steep = _steep_energy(self.eps, self.alpha, self.beta, below, 1.0 - below)
        a = self.alpha
        tail = np.where(
            s > self._cap,
            self.eps
            * (s ** (a - 1.0) - self._cap_pow)
            / (self._delta_pow_beta * (a - 1.0)),
            0.0,
        )
        return background + steep + tail


@dataclass(frozen=True)
class SedimentationLaw(PressureLawBase):
    """Suspension law c0 * phi**s_exp / (phi_star - phi) on [0, phi_star).

    The argument is the particle volume fraction; the blow-up sits at the
    random close packing fraction phi_star rather than at 1.
    """

    c0: float
    s_exp: float
    phi_star: float = 0.64

    kind = "sedimentation"

    def __post_init__(self):
        _require_positive(self.kind, c0=self.c0, phi_star=self.phi_star)
        if not (2.0 <= self.s_exp <= 5.0):
            raise ParameterError(
                f"sedimentation law: s_exp must lie in [2, 5], got {self.s_exp}", "s_exp"
            )
        _preload_hyp2f1(self.s_exp)

    @property
    def singular_at(self):
        return self.phi_star

    # the blow-up sits at phi_star, so 1 - phi goes unused

    def _pi(self, phi, om):
        return self.c0 * phi**self.s_exp / (self.phi_star - phi)

    def _dpi(self, phi, om):
        s = self.s_exp
        num = s * self.phi_star - (s - 1.0) * phi
        return self.c0 * phi ** (s - 1.0) * num / (self.phi_star - phi) ** 2

    def _energy(self, phi, om):
        s, ps = self.s_exp, self.phi_star
        x = phi / ps
        return _steep_energy(self.c0 * ps ** (s - 2.0), s, 1.0, x, 1.0 - x)


def _steep_energy(eps, alpha, beta, r, om):
    """Antiderivative of eps * s**(alpha-2) * (1-s)**(-beta) from 0 to r.

    ``om`` is 1 - r; the integer-alpha sum is written in it.
    """
    if float(alpha).is_integer():
        return _steep_energy_closed(eps, int(round(alpha)), beta, om)
    return _steep_energy_hyp(eps, alpha, beta, r)


def _steep_energy_hyp(eps, alpha, beta, r):
    # the incomplete beta function in Gauss hypergeometric form, DLMF 8.17.7
    hyp2f1 = _hyp2f1()
    return eps * r ** (alpha - 1.0) / (alpha - 1.0) * hyp2f1(alpha - 1.0, beta, alpha, r)


def _steep_energy_closed(eps, alpha, beta, one_minus):
    # substitute s -> 1 - t and expand (1 - t)**(alpha - 2) binomially;
    # each term's primitive is a power of (1 - t), or a log when the
    # exponent cancels; the argument is 1 - r
    m = alpha - 2
    total = np.zeros_like(one_minus)
    for k in range(m + 1):
        coeff = math.comb(m, k) * (-1.0) ** k
        expo = k - beta + 1.0
        if abs(expo) < 1e-12:
            term = -np.log(one_minus)
        else:
            term = (1.0 - one_minus**expo) / expo
        total = total + coeff * term
    return eps * total


def _unchecked(cls, values):
    """A law of class ``cls`` with field ``values``, built without validation.

    Only for laws derived from validated ones: their fields may be member
    arrays, which ``__post_init__`` cannot check.
    """
    law = object.__new__(cls)
    law.__dict__.update(values)
    return law


def ratio_law(law):
    """Return ``law`` as a function of the congestion ratio.

    A sedimentation law c0 * phi**s / (phi_star - phi) read at
    phi = phi_star * r is the same law with phi_star = 1 and
    c0 * phi_star**(s - 1); every other law already takes the ratio.
    """
    if isinstance(law, SedimentationLaw):
        c0 = law.c0 * law.phi_star ** (law.s_exp - 1.0)
        return _unchecked(SedimentationLaw, {"c0": c0, "s_exp": law.s_exp, "phi_star": 1.0})
    return law


def stack_laws(laws, ndim):
    """One law standing for several validated laws of the same kind.

    Parameters (and cached derived constants) on which the members differ
    become arrays of shape ``(len(laws),) + (1,) * ndim``, which broadcast
    against arguments carrying a leading member axis; shared ones stay
    scalars.  Each array entry is the member's own value, so a member's
    slice of any law evaluation equals that member's solo evaluation.
    """
    first = laws[0]
    cls = type(first)
    if any(type(law) is not cls for law in laws):
        raise ParameterError("stacked laws must all be of one kind")
    if len(laws) == 1:
        return first
    names = [f.name for f in fields(cls)]
    derived = [n for n, v in vars(cls).items() if isinstance(v, cached_property)]
    stacked = {}
    for name in names + derived:
        values = [getattr(law, name) for law in laws]
        if any(v != values[0] for v in values):
            stacked[name] = np.array(values, dtype=float).reshape((len(laws),) + (1,) * ndim)
        else:
            stacked[name] = values[0]
    return _unchecked(cls, stacked)


@lru_cache(maxsize=256)
def _floor_offset(law):
    c1 = 1.0 / (2.0 * (law.beta - 1.0))
    grid = np.linspace(0.0, 0.999, 20001)
    gap = c1 * law.eps * (1.0 - grid) ** (1.0 - law.beta) - law.energy_potential(grid)
    c2 = max(float(np.max(gap)), 0.0)
    return c2 * (1.0 + 1e-9) + 1e-15


def energy_potential_floor(law, r):
    """Check the steep law's stored energy against its diverging floor.

    For a steep law with integer exponents the stored-energy potential
    dominates c1 * eps * (1 - r)**(1 - beta) - c2 with c1 = 1/(2*(beta-1))
    and a constant c2 calibrated once per law.  Returns ``(holds, slack)``
    where slack is the pointwise margin.
    """
    if not isinstance(law, SingularLaw):
        raise ParameterError("energy floor check applies to the singular law only")
    if not (float(law.alpha).is_integer() and float(law.beta).is_integer()):
        raise ParameterError("energy floor check needs integer exponents")
    if law.beta < 2.0:
        raise ParameterError("energy floor check needs beta >= 2")
    arr = _as_ratio_array(r)
    if np.any(arr >= 1.0):
        raise BarrierViolation("energy floor check needs ratios below 1")
    c1 = 1.0 / (2.0 * (law.beta - 1.0))
    bound = c1 * law.eps * (1.0 - arr) ** (1.0 - law.beta) - _floor_offset(law)
    slack = law.energy_potential(arr) - bound
    holds = bool(np.all(slack >= 0.0))
    return holds, _match_shape(slack, r)


LAW_KINDS = {
    "singular": SingularLaw,
    "barotropic": BarotropicLaw,
    "truncated": TruncatedLaw,
    "sedimentation": SedimentationLaw,
}
