"""Claims as mixtures of complex power payoffs.

A claim g(x, s) on a pair of positive prices is encoded by a finite
measure over exponent pairs (z1, z2): point atoms contribute
``w * x**z1 * s**z2`` and contour lines contribute an integral of a
complex density along a vertical line in one exponent, the other held
fixed.  Vanilla calls and puts admit exact representations of this form
with the rational kernel ``K**(1-z) / (2*pi*z*(z-1))``; evaluating a
claim then reduces to one-dimensional quadrature plus an analytic tail.

Conventions
-----------
* Contours are parameterised by the running imaginary part ``u``; a line
  with axis=2, fixed_exponent f, abscissa R contributes
  ``integral du density(u) * x**f * s**(R + i*u)``.
* The normalisation 1/(2*pi) and the Jacobian of dz = i du are folded
  into the density, so no extra factors appear at evaluation time.
* Conjugate-symmetric lines are integrated over u in [0, U] and doubled
  through the real part.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureSettings",
    "ExponentAtom",
    "RationalKernelTail",
    "ContourLine",
    "PayoffMeasure",
    "power_claim",
    "call_measure",
    "put_measure",
    "call_claim",
    "put_claim",
    "combine",
    "DEFAULT_SETTINGS",
]

_GL_POINTS = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_POINTS)
# entries of one block of a contour line's complex power matrix (32 MB)
_BLOCK = 1 << 21


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and budgets for contour quadrature.

    rel_tol:       stop refining once successive panel doublings agree to
                   this relative tolerance.
    panel_budget:  maximum number of panels per line and refinement pass.
    max_extension: number of times the truncation may be doubled when the
                   integrand has not decayed at the nominal cutoff.
    """

    rel_tol: float = 1e-8
    panel_budget: int = 512
    max_extension: int = 6

    def __post_init__(self):
        # the negated tests reject NaN
        if not 0 < self.rel_tol < np.inf:
            raise DomainError(f"rel_tol must be a finite number > 0, got {self.rel_tol!r}")
        if not self.panel_budget >= 1:
            raise DomainError(f"panel_budget must be at least 1, got {self.panel_budget!r}")
        if not self.max_extension >= 0:
            raise DomainError(f"max_extension must be at least 0, got {self.max_extension!r}")


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class ExponentAtom:
    """Point mass: contributes weight * x**z1 * s**z2."""

    weight: complex
    z1: complex
    z2: complex

    def __post_init__(self):
        for name in ("weight", "z1", "z2"):
            v = complex(getattr(self, name))
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise DomainError(f"atom {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class RationalKernelTail:
    """Marks a density as scale * K**(1-z)/(2*pi*z*(z-1)) beyond truncation.

    Lines carrying this marker get their truncation tail integrated in
    closed form through the exponential integral instead of being cut
    off, which is what makes strike-region accuracy of ~1e-6 reachable
    at moderate truncations.
    """

    strike: float
    scale: complex = 1.0


def _oscillatory_pole_tail(a: float, w, truncation: float):
    """integral_{U}^{inf} exp(i*u*w) / (a + i*u) du for real a, w != 0."""
    # scipy.special takes a third of a second to import; only values and
    # hedges at maturity reach this tail, so the import waits for the first
    from scipy.special import exp1

    zeta = -1j * w * (truncation - 1j * a)
    return -1j * np.exp(-a * w) * exp1(zeta)


def rational_tail_integral(
    p0: complex,
    p1: complex,
    abscissa: float,
    log_moneyness,
    truncation: float,
    symmetric_real: bool = False,
):
    """One-sided tail of the rational claim kernel with an affine weight.

    Computes ``integral_U^inf exp(i*u*w) * P(R+i*u) / ((R+i*u)(R+i*u-1)) du``
    where P(z) = p0 + p1*z, w is the log-moneyness (scalar or array) and
    U the truncation.  The partial fractions P(z)/(z(z-1)) = -P(0)/z +
    P(1)/(z-1) reduce it to exponential integrals.  Exact for the kernel;
    used both for claim values (P=1) and for hedge integrands with affine
    weights.

    At w = 0 with p1 != 0 only the real part converges (the imaginary
    divergence cancels on a conjugate-symmetric contour, where the value
    is the midpoint across the kink); pass symmetric_real=True to get it,
    otherwise this case raises ConvergenceError.
    """
    alpha = -(p0 + 0j)            # coefficient on 1/z
    beta = p0 + p1 + 0j           # coefficient on 1/(z-1), P(1)
    r = float(abscissa)
    w = np.asarray(log_moneyness, dtype=float)
    at_kink = w == 0.0
    ws = np.where(at_kink, 1.0, w)
    out = alpha * _oscillatory_pole_tail(r, ws, truncation) + beta * _oscillatory_pole_tail(
        r - 1.0, ws, truncation
    )
    if np.any(at_kink):
        if abs(p1) > 0:
            if not symmetric_real:
                raise ConvergenceError(
                    "contour tail diverges at zero log-moneyness with an "
                    "affine kernel weight (terminal hedge at the kink)"
                )
            # Re integral_U^inf du/(a+iu) = pi/2*sign(a) - atan(U/a)
            kink = 0.0 + 0.0j
            for coefficient, a in ((alpha, r), (beta, r - 1.0)):
                kink += coefficient * (0.5 * np.pi * np.sign(a) - np.arctan(truncation / a))
        else:
            # alpha + beta = 0 here, so the pair integrates in closed form.
            kink = alpha * 1j * np.log((r + 1j * truncation) / (r - 1.0 + 1j * truncation))
        out = np.where(at_kink, kink, out)
    return out[()]


def line_tail(ln: "ContourLine", v, p0: complex = 1.0, p1: complex = 0.0):
    """Closed-form truncation tail of a rational-kernel line at points v.

    The integrand beyond the line's truncation carries the affine weight
    p0 + p1*z: (1, 0) for claim values, the asymptote of gamma for hedges.
    """
    k = ln.tail.strike
    c0 = ln.tail.scale * np.exp((1.0 - ln.abscissa) * np.log(k)) / (2.0 * np.pi)
    tail = rational_tail_integral(
        p0, p1, ln.abscissa, np.log(v / k), ln.truncation, symmetric_real=ln.symmetric
    )
    return c0 * np.exp(ln.abscissa * np.log(v)) * tail


def _probe_symmetry(density: Callable[[np.ndarray], np.ndarray]) -> bool:
    u = np.array([0.37, 3.9, 17.3, 111.0])
    d_pos = np.asarray(density(u), dtype=complex)
    d_neg = np.asarray(density(-u), dtype=complex)
    scale = np.abs(d_pos) + 1e-300
    return bool(np.all(np.abs(d_neg - np.conj(d_pos)) <= 1e-10 * scale))


@dataclass(frozen=True)
class ContourLine:
    """A vertical contour in one exponent with the other exponent fixed.

    axis: 1 if the running exponent multiplies x, 2 if it multiplies s.
    density: complex density d(u) including all normalisation; the line
        contributes integral du d(u) * (varying coord)**(abscissa+i*u)
        times (fixed coord)**fixed_exponent.
    symmetric: d(-u) == conj(d(u)); evaluated on [0, U] and doubled.
        None means probe numerically at construction time.
    tail: optional analytic-tail marker for the call/put kernel.
    """

    axis: int
    fixed_exponent: complex
    abscissa: float
    density: Callable[[np.ndarray], np.ndarray]
    truncation: float = 200.0
    panels: int = 32
    symmetric: bool | None = None
    tail: RationalKernelTail | None = None

    def __post_init__(self):
        if self.axis not in (1, 2):
            raise DomainError(f"line axis must be 1 or 2, got {self.axis}")
        if not np.isfinite(self.abscissa):
            raise DomainError("line abscissa must be finite")
        f = complex(self.fixed_exponent)
        if not (np.isfinite(f.real) and np.isfinite(f.imag)):
            raise DomainError("fixed exponent must be finite")
        if self.truncation <= 0 or not np.isfinite(self.truncation):
            raise DomainError("truncation must be a positive float")
        if self.panels < 1:
            raise DomainError("panel count must be >= 1")
        if self.symmetric is None:
            sym = _probe_symmetry(self.density) and abs(f.imag) == 0.0
            object.__setattr__(self, "symmetric", sym)


def panel_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre rule on [lo, hi]."""
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    u = (mids[:, None] + half * _GL_X[None, :]).ravel()
    w = np.tile(half * _GL_W, n_panels)
    return u, w


def line_nodes(ln: ContourLine, level: int, umult: int = 1, uniform: int = 0):
    """Running nodes and weights of a line whose truncation is scaled by umult.

    Composite Gauss-Legendre on ln.panels * umult * 2**level panels, or
    the trapezoid rule on `uniform` equal intervals when that is nonzero.
    """
    hi = ln.truncation * umult
    lo = 0.0 if ln.symmetric else -hi
    if not uniform:
        return panel_nodes(lo, hi, ln.panels * umult * (1 << level))
    u = np.linspace(lo, hi, uniform + 1)
    w = np.full(u.shape, (hi - lo) / uniform)
    w[[0, -1]] *= 0.5
    return u, w


def refine_line(ln: ContourLine, logv, coefficients, tails, settings: QuadratureSettings,
                umult: int = 1):
    """The Gauss-Legendre refinement loop of every contour-line integral.

    coefficients(level) returns the level's running nodes u and the node
    weights (cy, cz) of the two integrals sum_k c_k exp((R + i u_k) logv)
    at the 1-d logv, None for one that is not wanted; tails holds what is
    added to each.  The power matrix is built in row blocks of at most
    _BLOCK entries, so memory does not grow with the number of points.
    Panels double per level until successive levels agree to
    settings.rel_tol relative.  Returns (y, z, level), without the
    fixed-coordinate factor.
    """
    budget = settings.panel_budget * umult
    prev = None
    diff = float("nan")
    level = 0
    while ln.panels * umult * (1 << level) <= budget:
        u, coefs = coefficients(level)
        cur = [None if c is None else np.empty(logv.shape, dtype=complex) for c in coefs]
        rows = max(1, _BLOCK // u.size)
        for i in range(0, logv.size, rows):
            powers = np.exp(np.multiply.outer(logv[i:i + rows], ln.abscissa + 1j * u))
            for out, c in zip(cur, coefs):
                if c is not None:
                    out[i:i + rows] = powers @ c
        cur = [None if c is None else c + tail for c, tail in zip(cur, tails)]
        if ln.symmetric:
            cur = [None if c is None else 2.0 * c.real for c in cur]
        if prev is not None:
            diff = 0.0
            for c, p in zip(cur, prev):
                if c is not None:
                    sc = max(float(np.max(np.abs(c))), 1.0)
                    diff = max(diff, float(np.max(np.abs(c - p))) / sc)
            if diff <= settings.rel_tol:
                return cur[0], cur[1], level
        prev = cur
        level += 1
    if prev is None:
        raise ConvergenceError("panel budget below the base panel count")
    raise ConvergenceError(
        f"contour quadrature did not stabilise within {budget} panels", residual=diff
    )


@dataclass(frozen=True)
class PayoffMeasure:
    """Finite mixture of power atoms and contour lines encoding a claim.

    components records how the measure was built (kind, strike, axis,
    weight) for downstream consumers such as hedging baselines; it does
    not affect evaluation.
    """

    atoms: tuple[ExponentAtom, ...] = ()
    lines: tuple[ContourLine, ...] = ()
    closed_form: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    components: tuple[tuple, ...] = ()

    def __add__(self, other: "PayoffMeasure") -> "PayoffMeasure":
        if not isinstance(other, PayoffMeasure):
            return NotImplemented
        cf = None
        if self.closed_form is not None and other.closed_form is not None:
            f, g = self.closed_form, other.closed_form
            cf = lambda x, s: f(x, s) + g(x, s)  # noqa: E731
        return PayoffMeasure(
            atoms=self.atoms + other.atoms,
            lines=self.lines + other.lines,
            closed_form=cf,
            components=self.components + other.components,
        )

    def __mul__(self, c) -> "PayoffMeasure":
        c = complex(c)
        atoms = tuple(replace(a, weight=a.weight * c) for a in self.atoms)
        lines = []
        for ln in self.lines:
            d = ln.density
            scaled = (lambda dd, cc: (lambda u: cc * np.asarray(dd(u))))(d, c)
            tail = None if ln.tail is None else replace(ln.tail, scale=ln.tail.scale * c)
            lines.append(replace(ln, density=scaled, tail=tail, symmetric=None
                                 if c.imag else ln.symmetric))
        cf = None
        if self.closed_form is not None:
            f = self.closed_form
            cf = lambda x, s: c * f(x, s) if c.imag else c.real * f(x, s)  # noqa: E731
        comps = tuple(t[:3] + (t[3] * c if c.imag else t[3] * c.real,) for t in self.components)
        return PayoffMeasure(atoms=atoms, lines=tuple(lines), closed_form=cf, components=comps)

    __rmul__ = __mul__

    def is_real_claim(self) -> bool:
        """True when the encoded payoff is real for positive prices."""
        for ln in self.lines:
            if not ln.symmetric or abs(complex(ln.fixed_exponent).imag) > 0:
                return False
        pool = [(complex(a.weight), complex(a.z1), complex(a.z2)) for a in self.atoms]
        while pool:
            w, z1, z2 = pool.pop()
            if abs(w.imag) < 1e-14 and abs(z1.imag) < 1e-14 and abs(z2.imag) < 1e-14:
                continue
            for k, (w2, y1, y2) in enumerate(pool):
                if (
                    abs(w2 - np.conj(w)) < 1e-12 * (abs(w) + 1e-300)
                    and abs(y1 - np.conj(z1)) < 1e-12
                    and abs(y2 - np.conj(z2)) < 1e-12
                ):
                    pool.pop(k)
                    break
            else:
                return False
        return True

    def real_support(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Bounding box of Re(z1), Re(z2) over atoms and lines."""
        re1, re2 = [], []
        for a in self.atoms:
            re1.append(complex(a.z1).real)
            re2.append(complex(a.z2).real)
        for ln in self.lines:
            fixed = complex(ln.fixed_exponent).real
            if ln.axis == 1:
                re1.append(ln.abscissa)
                re2.append(fixed)
            else:
                re1.append(fixed)
                re2.append(ln.abscissa)
        if not re1:
            return (0.0, 0.0), (0.0, 0.0)
        return (min(re1), max(re1)), (min(re2), max(re2))

    def payoff(self, x, s):
        """Terminal payoff; the closed form when known, else the contour value."""
        if self.closed_form is not None:
            return self.closed_form(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
        return self.evaluate(x, s)

    def evaluate(self, x, s, settings: QuadratureSettings = DEFAULT_SETTINGS):
        """Evaluate the encoded payoff g(x, s) by quadrature plus tails.

        x, s broadcast; entries must be strictly positive.  Returns real
        values for real claims, complex otherwise.  Raises
        ConvergenceError when panel refinement stalls above tolerance.
        """
        x = np.asarray(x, dtype=float)
        s = np.asarray(s, dtype=float)
        if np.any(x <= 0) or np.any(s <= 0):
            raise DomainError("prices must be strictly positive")
        x, s = np.broadcast_arrays(x, s)
        scalar = x.ndim == 0
        xf, sf = np.atleast_1d(x).ravel(), np.atleast_1d(s).ravel()

        total = np.zeros(xf.shape, dtype=complex)
        for a in self.atoms:
            total += a.weight * np.exp(a.z1 * np.log(xf) + a.z2 * np.log(sf))
        for ln in self.lines:
            # the kernel at maturity, where the propagation factor is 1
            v, other = (xf, sf) if ln.axis == 1 else (sf, xf)
            tail = 0.0 if ln.tail is None else line_tail(ln, v)

            def coefficients(level, ln=ln):
                u, w = line_nodes(ln, level)
                return u, (w * np.asarray(ln.density(u), dtype=complex), None)

            val, _, _ = refine_line(ln, np.log(v), coefficients, (tail, 0.0), settings)
            total += np.exp(complex(ln.fixed_exponent) * np.log(other)) * val

        if self.is_real_claim():
            total = total.real
        out = total.reshape(x.shape)
        if scalar:
            return out[()].item()
        return out

    def digest(self) -> str:
        """Stable content hash of the measure's value semantics."""
        parts = {
            "atoms": [
                [a.weight.real, a.weight.imag, complex(a.z1).real, complex(a.z1).imag,
                 complex(a.z2).real, complex(a.z2).imag]
                for a in sorted(
                    self.atoms,
                    key=lambda a: (complex(a.z1).real, complex(a.z1).imag,
                                   complex(a.z2).real, complex(a.z2).imag),
                )
            ],
            "lines": [],
        }
        probe = np.linspace(0.0, 1.0, 33)
        for ln in self.lines:
            u = probe * ln.truncation
            d = np.asarray(ln.density(u), dtype=complex)
            parts["lines"].append(
                {
                    "axis": ln.axis,
                    "fixed": [complex(ln.fixed_exponent).real, complex(ln.fixed_exponent).imag],
                    "abscissa": ln.abscissa,
                    "truncation": ln.truncation,
                    "panels": ln.panels,
                    "symmetric": bool(ln.symmetric),
                    "samples": np.round(d.view(float), 12).tolist(),
                }
            )
        blob = json.dumps(parts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def power_claim(z1: complex, z2: complex, weight: complex = 1.0) -> PayoffMeasure:
    """Claim weight * x**z1 * s**z2 as a single atom."""
    atom = ExponentAtom(weight=complex(weight), z1=complex(z1), z2=complex(z2))
    cf = None
    if all(abs(complex(c).imag) < 1e-300 for c in (weight, z1, z2)):
        wr, a1, a2 = float(np.real(weight)), float(np.real(z1)), float(np.real(z2))
        cf = lambda x, s: wr * x ** a1 * s ** a2  # noqa: E731
    return PayoffMeasure(
        atoms=(atom,),
        closed_form=cf,
        components=(("power", (complex(z1), complex(z2)), None, complex(weight)),),
    )


def _vanilla_density(strike: float, abscissa: float) -> Callable[[np.ndarray], np.ndarray]:
    logk = np.log(strike)

    def density(u: np.ndarray) -> np.ndarray:
        z = abscissa + 1j * np.asarray(u, dtype=float)
        return np.exp((1.0 - z) * logk) / (2.0 * np.pi * z * (z - 1.0))

    return density


def _vanilla_measure(strike: float, contour: float, axis: int, payoff, kind: str) -> PayoffMeasure:
    """One line of the rational vanilla kernel at Re z = contour, with the
    closed form payoff(v) of the claim coordinate v."""
    if not (np.isfinite(strike) and strike > 0):
        raise DomainError("strike must be a positive finite number")
    line = ContourLine(
        axis=axis,
        fixed_exponent=0.0,
        abscissa=contour,
        density=_vanilla_density(float(strike), contour),
        symmetric=True,
        tail=RationalKernelTail(strike=float(strike)),
    )
    return PayoffMeasure(
        lines=(line,),
        closed_form=lambda x, s: payoff(x if axis == 1 else s),
        components=((kind, float(strike), axis, 1.0),),
    )


def call_measure(strike: float, abscissa: float = 0.5, axis: int = 2) -> PayoffMeasure:
    """Measure encoding (v - K)^+ - v on the chosen coordinate.

    The identity holds for abscissas in (0, 1); the subtracted linear
    term is what keeps the transform integrable on that strip.  Add a
    unit atom in the same coordinate (see call_claim) to recover the
    plain call.
    """
    if not (0.0 < abscissa < 1.0):
        raise DomainError("call abscissa must lie in (0, 1)")
    return _vanilla_measure(
        strike, float(abscissa), axis,
        lambda v: np.maximum(v - strike, 0.0) - v, "call-minus-underlying",
    )


def put_measure(strike: float, abscissa: float = 1.5, axis: int = 2) -> PayoffMeasure:
    """Measure encoding (K - v)^+ on the chosen coordinate.

    The same rational kernel yields the plain put once the contour runs
    to the left of both poles; abscissa is the positive distance of the
    contour into the left half-plane.  Any positive value is valid, at
    the price of a v**(-abscissa) moment of the claim coordinate.
    """
    if abscissa <= 0.0:
        raise DomainError("put abscissa must be positive")
    return _vanilla_measure(
        strike, -float(abscissa), axis, lambda v: np.maximum(strike - v, 0.0), "put"
    )


def call_claim(strike: float, abscissa: float = 0.5, axis: int = 2) -> PayoffMeasure:
    """Plain call (v - K)^+: contour part plus the restoring unit atom."""
    restore = power_claim(1.0, 0.0) if axis == 1 else power_claim(0.0, 1.0)
    m = call_measure(strike, abscissa, axis) + restore
    return replace(
        m,
        closed_form=lambda x, s: np.maximum((x if axis == 1 else s) - strike, 0.0),
        components=(("call", float(strike), axis, 1.0),),
    )


def put_claim(strike: float, abscissa: float = 1.5, axis: int = 2) -> PayoffMeasure:
    """Plain put (K - v)^+: put_measure already encodes the whole claim."""
    return put_measure(strike, abscissa, axis)


def combine(terms: Sequence[tuple[float, PayoffMeasure]]) -> PayoffMeasure:
    """Weighted sum of measures; it keeps a closed form when every term has one."""
    scaled = [w * m for w, m in terms]
    return sum(scaled[1:], scaled[0]) if scaled else PayoffMeasure()
