"""Claims as mixtures of complex power payoffs.

A claim g(x, s) on a pair of positive prices is encoded by a finite
measure over exponent pairs (z1, z2): point atoms contribute
``w * x**z1 * s**z2`` and contour lines contribute an integral of a
complex density along a vertical line in one exponent, the other held
fixed.  Vanilla calls and puts admit exact representations of this form
with the rational kernel ``K**(1-z) / (2*pi*z*(z-1))``, whose residues
give a line's whole integral in closed form (ContourLine.integral): that
is how a claim is evaluated.  Under a propagation factor other than 1
the engine integrates a line by the trapezoid rule up to a cutoff, in one
pass at the level its aliasing bound asks for (line_nodes, line_level,
refine_line).

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

import functools
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "ExponentAtom",
    "ContourLine",
    "PayoffMeasure",
    "power_claim",
    "call_measure",
    "put_measure",
    "call_claim",
    "put_claim",
    "combine",
]

# Gregory's end correction to the trapezoid rule at a cut end, end node
# first, from the differences of orders 1 to 6: exact through degree 7
_END = np.array([-3383 / 17280, 6961 / 15120, -66109 / 120960, 33 / 70,
                 -31523 / 120960, 1247 / 15120, -275 / 24192])
# entries of one block of a contour line's complex power matrix (32 MB)
_BLOCK = 1 << 21
# a line's nominal cutoff in u and its level-0 panels of 16 trapezoid
# intervals each; the engine scales both by its truncation multiple
_TRUNCATION = 200.0
_PANELS = 32
# a line's integral is taken to _REL_TOL of 1 + strike, on a rule of at
# most _PANEL_BUDGET panels
_REL_TOL = 1e-8
_PANEL_BUDGET = 512
# the aliasing bound's strip reaches this fraction of the way to a pole
_STRIP = 0.9
_EPS = np.finfo(float).eps


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
class ContourLine:
    """A vertical contour of the rational claim kernel in one exponent,
    the other exponent fixed.

    axis: 1 if the running exponent multiplies x, 2 if it multiplies s.
    The line contributes integral du density(u) * (varying coord)**(abscissa
    + i*u) times (fixed coord)**fixed_exponent, where the density is
    scale * strike**(1-z) / (2*pi*z*(z-1)) at z = abscissa + i*u.  The
    abscissa may be anything but the kernel's poles 0 and 1; at maturity
    the whole line is taken from their residues (integral).
    """

    axis: int
    fixed_exponent: complex
    abscissa: float
    strike: float
    scale: complex = 1.0

    def __post_init__(self):
        if self.axis not in (1, 2):
            raise DomainError(f"line axis must be 1 or 2, got {self.axis}")
        if not np.isfinite(self.abscissa):
            raise DomainError("line abscissa must be finite")
        if self.abscissa in (0.0, 1.0):
            raise DomainError("line abscissa must not be a pole of the kernel (0 or 1)")
        f = complex(self.fixed_exponent)
        if not (np.isfinite(f.real) and np.isfinite(f.imag)):
            raise DomainError("fixed exponent must be finite")
        if not (np.isfinite(self.strike) and self.strike > 0):
            raise DomainError("strike must be a positive finite number")

    @property
    def symmetric(self) -> bool:
        """d(-u) == conj(d(u)), and the propagation factor conjugate-symmetric
        too: a real scale and a real fixed exponent.  Such a line is
        integrated over u in [0, U] and doubled."""
        return complex(self.scale).imag == 0.0 and complex(self.fixed_exponent).imag == 0.0

    def density(self, u: np.ndarray) -> np.ndarray:
        """The complex density d(u), normalisation included."""
        z = self.abscissa + 1j * np.asarray(u, dtype=float)
        d = np.exp((1.0 - z) * np.log(self.strike)) / (2.0 * np.pi * z * (z - 1.0))
        # an unweighted line keeps the kernel's bits
        return d if self.scale == 1 else complex(self.scale) * d

    def integral(self, v, affine=(1.0, 0.0, 0.0, 0.0)):
        """The whole line's integral at the points v where the propagation
        factor is 1, with the weight g0 + g1*z + amp*exp(rate*z) of
        affine = (g0, g1, amp, rate), gamma's asymptote (gamma_affine); the
        default weight 1 gives the claim.  The fixed coordinate's factor
        is left out.

        With w = log(v/K), K e**(zw) / (z(z-1)) has residue -K at z = 0
        and v at z = 1, so the line gives P(v) = (K - v)^+ left of both
        poles, (v - K)^+ - v between them and (v - K)^+ right of both.
        As z v**z = v dv**z/dv and exp(rate z) v**z = (v exp(rate))**z,
        the weight gives g0 P(v) + g1 v P'(v) + amp P(v exp(rate)), where
        P' is 1{v > K}, less 1 left of the pole at 1, with the midpoint at
        the strike.  All of it times scale.
        """
        g0, g1, amp, rate = affine
        k, r = self.strike, self.abscissa
        v = np.asarray(v, dtype=float)

        def p(v):
            return np.maximum(k - v, 0.0) if r < 0.0 else np.maximum(v - k, 0.0) - (r < 1.0) * v

        out = g0 * p(v) + g1 * v * (np.heaviside(v - k, 0.5) - (r < 1.0))
        if amp:
            out = out + amp * p(v * np.exp(rate))
        return self.scale * out


def line_nodes(ln: ContourLine, level: int, umult: float = 1):
    """Running nodes and weights of a line's rule at a level, its cutoff
    _TRUNCATION scaled by umult: the trapezoid rule on 16 * _PANELS * umult
    * 2**level intervals, with Gregory weights at each cut end (u = 0 of a
    symmetric line is no cut: Re of its integrand is even there).  It
    depends on the line only through its symmetry, so every line shares
    one read-only table of them.
    """
    return _rule(ln.symmetric, level, umult, _TRUNCATION, _PANELS)


@functools.lru_cache(maxsize=64)
def _rule(symmetric, level, umult, truncation, panels):
    n = 16 * int(panels * umult) << level
    hi = truncation * umult
    lo = 0.0 if symmetric else -hi
    w = np.r_[0.5, np.ones(n - 1), 0.5]
    w[n + 1 - _END.size:] += _END[::-1]
    if not symmetric:
        w[:_END.size] += _END
    u, w = lo + (hi - lo) * (np.arange(n + 1) / n), (hi - lo) / n * w
    u.flags.writeable = w.flags.writeable = False
    return u, w


def line_floor(ln: ContourLine) -> float:
    """The error a line may leave in its truncation, and apart in its aliasing."""
    return 0.1 * _REL_TOL * (1.0 + ln.strike)


def strip_width(ln: ContourLine) -> float:
    """d', _STRIP of the way from the abscissa to the kernel's nearest pole."""
    return _STRIP * min(abs(ln.abscissa), abs(ln.abscissa - 1.0))


def strip_nodes(ln: ContourLine, umult: float = 1):
    """(off, mass): the level-0 nodes on the strip's edges Re z = R -+ d', as
    offsets from the abscissa (z = R + i off, so u + i d' lies on R - d'), and
    each node's integral of |density| over its cell, taken by the rule 16
    times finer (near a pole the kernel's peak is narrower than the spacing),
    a symmetric line's half doubled.  Read-only, like the rule."""
    d, u = strip_width(ln), line_nodes(ln, 0, umult)[0]
    fine, fw = line_nodes(ln, 4, umult)
    cell = (np.arange(fine.size) + 8) // 16
    mass = [np.bincount(cell, fw * np.abs(replace(ln, abscissa=r).density(fine)))
            for r in (ln.abscissa - d, ln.abscissa + d)]
    off, mass = np.r_[u + 1j * d, u - 1j * d], (1.0 + ln.symmetric) * np.concatenate(mass)
    off.flags.writeable = mass.flags.writeable = False
    return off, mass


def line_level(ln: ContourLine, ends, mass, umult: float = 1, fmax: float = 1.0):
    """(level, bound): the first level whose aliasing bound passes line_floor
    over the points whose log v spans ends = (lo, hi).

    The integrand is analytic in the strip |Re z - R| < d' (strip_width), so
    the trapezoid rule at spacing h errs by at most 2 M / (exp(2 pi d' / h) - 1),
    M the integral of its magnitude along the strip's edges (Trefethen &
    Weideman 2014).  mass = (m-, m+) gives it on Re z = R -+ d' at v = 1 (see
    strip_nodes), the hedge's weight included; at v it grows by fmax v**(R -+ d'), which is
    fmax K v**R e**(+-d' w) / K**R with w = log(v/K).  A bound that is not
    finite, or a level past _PANEL_BUDGET, raises ConvergenceError.
    """
    d, (lo, hi) = strip_width(ln), ends
    amp = 2.0 * fmax * max(m * float(np.exp(max(r * lo, r * hi)))
                           for m, r in zip(mass, (ln.abscissa - d, ln.abscissa + d)))
    floor = line_floor(ln)
    panels, budget = int(_PANELS * umult), _PANEL_BUDGET * umult
    # the spacing of level 0
    h = _TRUNCATION * umult * (1.0 + (not ln.symmetric)) / (16 * panels)
    level, bound = 0, np.inf
    while panels << level <= budget:
        bound = amp / float(np.expm1(2.0 * np.pi * d * 2 ** level / h))
        if bound <= floor:
            return level, bound
        level += 1
    raise ConvergenceError(f"contour quadrature did not stabilise within {int(budget)} panels: "
                           f"its aliasing bound {bound:.2e} is above {floor:.2e}", residual=bound)


def rounding_check(ln: ContourLine, ends, u, c, fmax: float = 1.0):
    """Refuse a sum sum_k c_k exp(z_k x), z_k = R + i u_k, at x = log v in
    ends = (lo, hi) whose rounding may pass _REL_TOL (1 + K): each term
    carries the rounding of exp at an argument of size |z_k x|, so the sum's
    is about eps e**(R x) (s0 + |x| s1), s0 = sum |c_k|, s1 = sum |c_k z_k|,
    log-concave on either side of x = 0: it peaks at an end or where its
    derivative vanishes.  A NaN passes, for the caller's finiteness guard."""
    ac, r, (lo, hi) = np.abs(c), ln.abscissa, ends
    s0, s1 = float(ac.sum()), float(ac @ np.hypot(r, u))
    peaks = (-1.0 / r - s0 / s1, s0 / s1 - 1.0 / r) if s1 > 0.0 else ()
    rounding = (1.0 + ln.symmetric) * _EPS * fmax * max(
        float(np.exp(r * x)) * (s0 + abs(x) * s1) for x in (lo, hi, *peaks) if lo <= x <= hi)
    if rounding > _REL_TOL * (1.0 + ln.strike):
        raise ConvergenceError(f"contour quadrature did not stabilise: its rounding {rounding:.2e} "
                               f"passes {_REL_TOL:g} (1 + strike), as its terms cancel",
                               residual=rounding)


def refine_line(ln: ContourLine, logv, coefficients, mass, umult: float = 1, fmax: float = 1.0):
    """A contour-line integral in one pass, at the level line_level picks.

    coefficients(level) returns the nodes u of that level's rule and their
    weights (cy, cz) in the sums sum_k c_k exp((R + i u_k) logv) at the 1-d
    logv, None for one not wanted.  The first wanted sum passes
    rounding_check; the hedge takes the value's level, so a value has the
    same bits with or without it.  The power matrix is built in row blocks
    of at most _BLOCK entries.  Returns (y, z, level, bound), without the
    fixed-coordinate factor.
    """
    ends = float(logv.min()), float(logv.max())
    level, bound = line_level(ln, ends, mass, umult, fmax)
    u, coefs = coefficients(level)
    rounding_check(ln, ends, u, next(c for c in coefs if c is not None), fmax)
    out = [None if c is None else np.empty(logv.shape, dtype=complex) for c in coefs]
    rows = max(1, _BLOCK // u.size)
    for i in range(0, logv.size, rows):
        powers = np.exp(np.multiply.outer(logv[i:i + rows], ln.abscissa + 1j * u))
        for o, c in zip(out, coefs):
            if c is not None:
                o[i:i + rows] = powers @ c
    if ln.symmetric:
        out = [None if o is None else 2.0 * o.real for o in out]
    return out[0], out[1], level, bound


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
        lines = tuple(replace(ln, scale=ln.scale * c) for ln in self.lines)
        cf = None
        if self.closed_form is not None:
            f = self.closed_form
            cf = lambda x, s: c * f(x, s) if c.imag else c.real * f(x, s)  # noqa: E731
        comps = tuple(t[:3] + (t[3] * c if c.imag else t[3] * c.real,) for t in self.components)
        return PayoffMeasure(atoms=atoms, lines=lines, closed_form=cf, components=comps)

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

    def evaluate(self, x, s):
        """Evaluate the encoded payoff g(x, s): its atoms, and each line's
        integral at maturity, where the propagation factor is 1, from the
        residues of its kernel (ContourLine.integral).

        x, s broadcast; entries must be strictly positive.  Returns real
        values for real claims, complex otherwise.
        """
        x = np.asarray(x, dtype=float)
        s = np.asarray(s, dtype=float)
        # negated, so that a NaN fails it
        if not (np.all(x > 0) and np.all(s > 0)):
            raise DomainError("prices must be strictly positive")
        x, s = np.broadcast_arrays(x, s)
        scalar = x.ndim == 0
        xf, sf = np.atleast_1d(x).ravel(), np.atleast_1d(s).ravel()

        total = np.zeros(xf.shape, dtype=complex)
        for a in self.atoms:
            total += a.weight * np.exp(a.z1 * np.log(xf) + a.z2 * np.log(sf))
        for ln in self.lines:
            v, other = (xf, sf) if ln.axis == 1 else (sf, xf)
            total += np.exp(complex(ln.fixed_exponent) * np.log(other)) * ln.integral(v)

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
            u = probe * _TRUNCATION
            d = np.asarray(ln.density(u), dtype=complex)
            parts["lines"].append(
                {
                    "axis": ln.axis,
                    "fixed": [complex(ln.fixed_exponent).real, complex(ln.fixed_exponent).imag],
                    "abscissa": ln.abscissa,
                    "truncation": _TRUNCATION,
                    "panels": _PANELS,
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


def _vanilla_measure(strike: float, contour: float, axis: int, payoff, kind: str) -> PayoffMeasure:
    """One line of the rational vanilla kernel at Re z = contour, with the
    closed form payoff(v) of the claim coordinate v."""
    line = ContourLine(axis=axis, fixed_exponent=0.0, abscissa=contour, strike=float(strike))
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
