"""Quadratic-hedging decomposition of power-mixture claims.

For an exponential additive pair (X, S) and a claim encoded as a
PayoffMeasure, the locally risk-minimising (Foellmer-Schweizer) value
and hedge admit closed contour representations: each power payoff
x**z1 s**z2 propagates multiplicatively through the factor
lambda(t, z) = exp((T-t) * (psi(z) - gamma(z) psi(0,1))) and hedges with
gamma(z) units of the power divided by the traded price,

    y(t, x, s) = integral dPi(z) x**z1 s**z2 lambda(t, z)
    z(t, x, s) = integral dPi(z) x**z1 s**(z2-1) lambda(t, z) gamma(z).

The claim then splits as g = y(0,X0,S0) + integral z dS + orthogonal
residual.  This module evaluates both surfaces by shared quadrature over
the measure's contours, with the truncation tail either integrated in
closed form (at maturity, where lambda is 1) or bounded through the
decay of lambda at the cutoff.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import AssumptionError, ConvergenceError, DomainError
from .payoffs import (
    DEFAULT_SETTINGS,
    PayoffMeasure,
    QuadratureSettings,
    line_nodes,
    line_tail,
    refine_line,
)

__all__ = ["HedgeDecomposition", "decompose"]

_TERMINAL_FRACTION = 1e-9
_IM_ABORT = 1e-5
# aliasing of the uniform replay grid is held to rel_tol / _ALIAS_MARGIN
_ALIAS_MARGIN = 100.0
# analytic strip half-width assumed for a density without a known kernel
_UNTAGGED_STRIP = 0.25
# caps the node cache of one line at a few 16 MB arrays
_MAX_UNIFORM_NODES = 1 << 20
# segment -> {line shape: (gamma, eta_rate, psi) at the shape's nodes}; the
# claim enters a line only through its density, so every decomposition on
# a model shares these, and an entry dies with its segment
_RATES = weakref.WeakKeyDictionary()


def _chirp_z(x, theta, m):
    """sum_k x[..., k] exp(i theta j k) for j < m (Bluestein's chirp-z).

    With jk = (j^2 + k^2 - (j-k)^2) / 2 the sum is a convolution with the
    chirp exp(-i theta l^2 / 2), done by FFT at a power-of-two size.
    """
    n = x.shape[-1]
    size = 1 << (n + m - 2).bit_length()
    k = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * theta * k * k)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[1:n][::-1].conj()
    spec = np.fft.fft(x * chirp[:n], size) * np.fft.fft(kernel)
    return np.fft.ifft(spec)[..., :m] * chirp[:m]


class _LineNodes:
    """Nodes of one line with (gamma, eta_rate, psi) there for each model segment."""

    __slots__ = ("u", "w", "dens", "rates")

    def __init__(self, u, w, dens, rates):
        self.u, self.w, self.dens, self.rates = u, w, dens, rates


class HedgeDecomposition:
    """Value and hedge surfaces of a claim under quadratic hedging.

    Construction runs the standing-assumption checks and computes the
    initial capital h0.  value/hedge accept broadcastable (t, x, s).
    """

    def __init__(
        self,
        model,
        measure: PayoffMeasure,
        settings: QuadratureSettings = DEFAULT_SETTINGS,
    ):
        self.model = model
        self.measure = measure
        self.settings = settings
        self._cache: dict[tuple, _LineNodes] = {}
        self._line_stats = [
            {"levels": 0, "umult": 1, "tail_bound": 0.0, "tail_mode": "none"}
            for _ in measure.lines
        ]
        self._real = measure.is_real_claim()
        self._im_residual = 0.0
        self.assumptions = self._check_assumptions()
        # h0 is value(0, spot), called below the public methods so that a
        # tracer wrapping them counts only the caller's own evaluations
        self.h0 = self._broadcast(0.0, *model.spot, False)[0]

    # -- public surface -------------------------------------------------------

    def value(self, t, x, s):
        """Hedging value y(t, x, s); y(T, .) reproduces the payoff."""
        return self._broadcast(t, x, s, False)[0]

    def hedge(self, t, x, s):
        """Hedge ratio z(t, x, s) in units of the traded asset, from the joint pass."""
        return self._broadcast(t, x, s, True)[1]

    def value_and_hedge(self, t, x, s):
        """Both surfaces from one pass over shared quadrature nodes."""
        return self._broadcast(t, x, s, True)

    def hedge_surface(self, times, xs, ss):
        """Dense (t, x, s) grids -> value/hedge arrays (nt, nx, ns)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ss = np.atleast_1d(np.asarray(ss, dtype=float))
        return self._broadcast(*np.meshgrid(times, xs, ss, indexing="ij"), True)

    def quadrature_report(self) -> dict:
        return {
            "h0_im_residual": self._im_residual,
            "lines": [dict(d) for d in self._line_stats],
            "settings": {
                "rel_tol": self.settings.rel_tol,
                "panel_budget": self.settings.panel_budget,
            },
        }

    # -- assumption checks ----------------------------------------------------

    def _check_assumptions(self) -> dict:
        checks: dict[str, float] = {}
        failures = []
        segments = [seg for _, _, seg in self.model.segments]
        rb = min(seg.rho_bar for seg in segments)
        checks["strictly-increasing-bracket"] = rb
        if not rb > 0.0:
            failures.append("strictly-increasing-bracket")

        tv = sum(abs(complex(a.weight)) for a in self.measure.atoms)
        sup = 0.0
        for idx in range(len(self.measure.lines)):
            nd = self._nodes(idx, 0, 1)
            tv += float(np.sum(np.abs(nd.w * nd.dens)))
            for _, _, psis in nd.rates.values():
                sup = max(sup, float(np.max(np.abs(psis))) / rb)
        checks["integrable-claim-transform"] = tv
        if not np.isfinite(tv):
            failures.append("integrable-claim-transform")

        (lo1, hi1), (lo2, hi2) = self.measure.real_support()
        corners = [(lo1, lo2), (lo1, hi2), (hi1, lo2), (hi1, hi2), (0.0, 1.0), (0.0, 2.0)]
        vals = [seg.psi(c1, c2) for seg in segments for c1, c2 in corners]
        ok = all(np.isfinite(np.real(v)) and np.isfinite(np.imag(v)) for v in vals)
        checks["cumulant-domain-contains-support"] = float(ok)
        if not ok:
            failures.append("cumulant-domain-contains-support")

        for a in self.measure.atoms:
            for seg in segments:
                sup = max(sup, abs(complex(seg.psi(a.z1, a.z2))) / rb)
        checks["bounded-cumulant-derivative"] = sup
        if not np.isfinite(sup):
            failures.append("bounded-cumulant-derivative")

        if failures:
            raise AssumptionError(
                "standing assumptions violated: " + ", ".join(failures)
            )
        return checks

    # -- internals ------------------------------------------------------------

    def _broadcast(self, t, x, s, need_z):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        s = np.asarray(s, dtype=float)
        if (x <= 0).any() or (s <= 0).any():
            raise DomainError("prices must be strictly positive")
        self.model._check_time(t)
        tb, xb, sb = np.broadcast_arrays(t, x, s)
        scalar = tb.ndim == 0
        shape = tb.shape
        y, z = self._flat(
            np.atleast_1d(tb).ravel(), np.atleast_1d(xb).ravel(), np.atleast_1d(sb).ravel(), need_z
        )
        out = []
        for arr in (y, z):
            if arr is None:
                out.append(None)
                continue
            bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
            if bad:
                raise ConvergenceError(f"the contour quadrature is not finite at {bad} of {arr.size} points")
            if self._real:
                im = float(np.abs(arr.imag).max()) if arr.size else 0.0
                sc = max(1.0, float(np.abs(arr.real).max()) if arr.size else 0.0)
                if im > _IM_ABORT * sc:
                    raise ConvergenceError(
                        f"conjugate-symmetry residual {im / sc:.2e} exceeds {_IM_ABORT:g}",
                        residual=im / sc,
                    )
                self._im_residual = max(self._im_residual, im / sc)
                arr = arr.real
            arr = arr.reshape(shape)
            out.append(arr[()].item() if scalar else arr)
        return tuple(out)

    def _flat(self, t, x, s, need_z):
        y = np.zeros(t.size, dtype=complex)
        z = np.zeros(t.size, dtype=complex) if need_z else None
        logx, logs = np.log(x), np.log(s)
        # one grouping by time: atoms take gamma of the segment in force at
        # each time, and lines are evaluated one time at a time
        times, at = np.unique(t, return_inverse=True)
        if need_z:
            segs = [self.model.segment_at(ti) for ti in times]
        for a in self.measure.atoms:
            lam = self.model.lambda_coeff(t, a.z1, a.z2)
            base = a.weight * np.exp(a.z1 * logx + a.z2 * logs) * lam
            y += base
            if need_z:
                z += base * np.array([complex(seg.gamma(a.z1, a.z2)) for seg in segs])[at] / s

        if self.measure.lines:
            groups = np.split(np.argsort(at, kind="stable"), np.cumsum(np.bincount(at))[:-1])
            for ti, rows in zip(times, groups):
                for idx, ln in enumerate(self.measure.lines):
                    # a line depends on its varying coordinate only: evaluate
                    # each distinct value once, then scale per point
                    v, other = (x, s) if ln.axis == 1 else (s, x)
                    fixed = np.exp(complex(ln.fixed_exponent) * np.log(other[rows]))
                    uv, inv = np.unique(v[rows], return_inverse=True)
                    cy, cz = self._line_group(idx, float(ti), uv, fixed, need_z)
                    y[rows] += fixed * cy[inv]
                    if need_z:
                        z[rows] += fixed * cz[inv] / s[rows]
        return y, z

    def _nodes(self, idx: int, level: int, umult: int, uniform: int = 0) -> _LineNodes:
        """Line nodes at a refinement level (see payoffs.line_nodes) with the
        claim's density there, cached, and the model's shared rates."""
        key = (idx, level, umult, uniform)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ln = self.measure.lines[idx]
        u, w = line_nodes(ln, level, umult, uniform)
        dens = np.asarray(ln.density(u), dtype=complex)
        self._cache[key] = nd = _LineNodes(u, w, dens, self._rates(ln, u, level, umult, uniform))
        return nd

    def _rates(self, ln, u, level: int, umult: int, uniform: int) -> dict:
        """(gamma, eta_rate, psi) of every model segment at the line's nodes u
        (line_nodes of the same arguments), read from or put into _RATES."""
        f = complex(ln.fixed_exponent)
        shape = (ln.axis, f, ln.abscissa, ln.truncation, ln.panels, ln.symmetric, level, umult, uniform)
        rates = {}
        for _, _, seg in self.model.segments:
            per = _RATES.setdefault(seg, {})
            if shape not in per:
                zrun = ln.abscissa + 1j * u
                per[shape] = seg.rates(*((zrun, f) if ln.axis == 1 else (f, zrun)))
                for arr in per[shape]:
                    arr.flags.writeable = False
            rates[seg] = per[shape]
        return rates

    def _propagate(self, rates: dict, ti: float):
        """(lambda, gamma) at a line's nodes at time ti."""
        m = self.model
        log_lam = m._integral(ti, m.horizon, lambda w, seg: w * rates[seg][1])
        return np.exp(log_lam), rates[m.segment_at(ti)][0]

    def _line_group(self, idx, ti, v, fixed, need_z):
        """Raw line values (y, z) at the varying coordinates v at time ti;
        z is None unless need_z.

        Values exclude the fixed-coordinate factor and the 1/s hedging
        division; `fixed` holds the factors of the points sharing them,
        which the truncation plan has to cover.
        """
        ln = self.measure.lines[idx]
        umult, tail_mode = self._plan(idx, ti, v, fixed, need_z)

        tail_y = tail_z = 0.0
        if tail_mode == "terminal" and ln.tail is not None:
            tail_y = line_tail(ln, v)
            if need_z:
                last = self.model.segment_at(self.model.horizon)
                aff = last.gamma_affine(ln.axis, ln.fixed_exponent)
                if aff is not None:
                    tail_z = line_tail(ln, v, *aff)

        def coefficients(level):
            nd = self._nodes(idx, level, umult)
            lam, gam = self._propagate(nd.rates, ti)
            coef = nd.w * nd.dens * lam
            return nd.u, (coef, coef * gam if need_z else None)

        y, z, level = refine_line(
            ln, np.log(v), coefficients, (tail_y, tail_z), self.settings, umult
        )
        stats = self._line_stats[idx]
        stats["levels"] = max(stats["levels"], level)
        return y, z

    def _path_slice(self, t, x, s, grid_points):
        """Real value and hedge of a real claim at one time t < T on all
        paths (x, s), for the Monte Carlo replay.  Atoms are exact; each
        line is a Fourier sum in the index of a uniform grid of grid_points
        in its varying log coordinate (trapezoid rule on uniform nodes
        u_k = u_0 + k*h), done by one chirp-z transform and interpolated.
        """
        model = self.model
        y, z = np.zeros(x.size), np.zeros(x.size)
        logx, logs = np.log(x), np.log(s)
        for a in self.measure.atoms:
            lam = complex(np.asarray(model.lambda_coeff(t, a.z1, a.z2)).ravel()[0])
            gam = complex(np.asarray(model.segment_at(t).gamma(a.z1, a.z2)).ravel()[0])
            z1, z2 = complex(a.z1), complex(a.z2)
            # real exponents, as in the unit atoms of calls, skip the complex exp
            power = np.exp(z1.real * logx + z2.real * logs)
            if z1.imag or z2.imag:
                power = power * np.exp(1j * (z1.imag * logx + z2.imag * logs))
            y += (a.weight * lam * power).real
            z += (a.weight * lam * gam * power).real / s
        for idx, ln in enumerate(self.measure.lines):
            f = float(np.real(ln.fixed_exponent))
            logv = logx if ln.axis == 1 else logs
            lo, hi = float(logv.min()), float(logv.max())
            # all paths at one price (the first step) give a one-point grid
            glx = np.linspace(lo, hi, grid_points if hi - lo >= 1e-12 else 1)
            umult, tail_mode = self._plan(idx, t, np.exp(glx), np.ones(1), True)
            if tail_mode == "terminal":
                raise DomainError("the grid shortcut does not cover the terminal time")
            nd = self._nodes(idx, 0, umult, uniform=self._uniform_count(idx, umult, glx))
            lam, gam = self._propagate(nd.rates, t)
            coef = nd.w * nd.dens * lam
            # exp((R + i u_k) glx_j) = exp((R + i u_0) glx_j) exp(i k h glx_0) exp(i h dx jk)
            u0, h = nd.u[0], nd.u[1] - nd.u[0]
            dx = glx[1] - glx[0] if glx.size > 1 else 0.0
            shift = np.exp(1j * (nd.u - u0) * glx[0])
            vals = _chirp_z(np.stack([coef * shift, coef * gam * shift]), h * dx, glx.size)
            vals *= np.exp((ln.abscissa + 1j * u0) * glx)
            if ln.symmetric:
                vals = 2.0 * vals.real
            # linear interpolation by index on the uniform grid (one point: constant)
            pos = (logv - lo) * ((glx.size - 1) / max(hi - lo, 1e-300))
            j = np.minimum(pos.astype(np.intp), max(glx.size - 2, 0))
            frac = pos - j
            j1 = np.minimum(j + 1, glx.size - 1)
            yv, zv = (tab[j] + frac * (tab[j1] - tab[j]) for tab in np.real(vals))
            if ln.axis == 1:
                y += yv * s**f
                z += zv * s ** (f - 1.0)
            else:
                y += yv * x**f
                z += zv * x**f / s
        return y, z

    def _uniform_count(self, idx, umult, glx) -> int:
        """Trapezoid intervals (a power of two) for a line on a log grid.

        The trapezoid error is aliasing, about exp(-d (2 pi / h - |w|))
        relative, with d the distance from the contour to the density's
        nearest singularity and w the log-moneyness; h keeps it below
        rel_tol / _ALIAS_MARGIN over the grid.
        """
        ln = self.measure.lines[idx]
        if ln.tail is not None:
            # rational kernel: poles at z = 0 and z = 1, oscillation log(v / K)
            dist = min(abs(ln.abscissa), abs(ln.abscissa - 1.0))
            w = np.abs(glx - np.log(ln.tail.strike))
        else:
            dist, w = _UNTAGGED_STRIP, np.abs(glx)
        h = 2.0 * np.pi / (float(w.max()) + np.log(_ALIAS_MARGIN / self.settings.rel_tol) / dist)
        span = ln.truncation * umult * (1.0 if ln.symmetric else 2.0)
        n = 1 << max(int(np.ceil(np.log2(span / h))), 1)
        if n > _MAX_UNIFORM_NODES:
            raise ConvergenceError(
                f"uniform quadrature for line {idx} needs {n} nodes, "
                f"more than {_MAX_UNIFORM_NODES}"
            )
        return n

    def _plan(self, idx, ti, v, fixed, need_z) -> tuple[int, str]:
        """(umult, tail_mode) of a line at time ti, recorded in its stats."""
        umult, tail_mode, bound = self._tail_plan(idx, ti, v, fixed, need_z)
        stats = self._line_stats[idx]
        stats["umult"] = max(stats["umult"], umult)
        stats["tail_bound"] = max(stats["tail_bound"], bound)
        stats["tail_mode"] = tail_mode
        return umult, tail_mode

    def _tail_plan(self, idx, ti, v, fixed, need_z) -> tuple[int, str, float]:
        ln = self.measure.lines[idx]
        horizon = self.model.horizon
        if (horizon - ti) <= _TERMINAL_FRACTION * horizon:
            return 1, "terminal", 0.0
        # max of v**R sits at the small end of the grid for negative abscissas
        vpow = float(np.max(np.asarray(v) ** ln.abscissa))
        fmax = float(np.max(np.abs(fixed))) if np.size(fixed) else 1.0
        if ln.tail is not None:
            k = ln.tail.strike
            c0 = abs(ln.tail.scale) * k ** (1.0 - ln.abscissa) / (2.0 * np.pi)
            amp = c0 * vpow * fmax
            floor = 0.1 * self.settings.rel_tol * (1.0 + k)
        else:
            # generic line: use the sampled density magnitude at the cutoff
            dtail = abs(complex(np.asarray(ln.density(np.array([ln.truncation])))[0]))
            amp = dtail * ln.truncation ** 2 * vpow * fmax
            floor = 0.1 * self.settings.rel_tol * max(1.0, amp / max(ln.truncation, 1.0))
        for k_ext in range(self.settings.max_extension + 1):
            umult = 1 << k_ext
            # the one-interval trapezoid line ends at the cutoff truncation * umult
            edge = line_nodes(ln, 0, umult, 1)[0]
            lam, gam = self._propagate(self._rates(ln, edge, 0, umult, 1), ti)
            growth = max(1.0, abs(gam[-1])) if need_z else 1.0
            bound = float(2.0 * amp * abs(lam[-1]) * growth / edge[-1])
            if bound <= floor:
                mode = "skipped-negligible" if k_ext == 0 else "extended"
                return umult, mode, bound
        if ln.tail is None:
            return 1 << self.settings.max_extension, "bound-only", bound
        raise ConvergenceError(
            f"truncation tail of line {idx} is not controlled at t={ti:g}: "
            f"the propagation factor does not decay along this contour "
            f"(bound {bound:.2e}); the model has no diffusion or jump "
            "spread in the claim coordinate",
            residual=bound,
        )


def decompose(model, measure: PayoffMeasure, settings: QuadratureSettings = DEFAULT_SETTINGS) -> HedgeDecomposition:
    """Build the quadratic-hedging decomposition of a claim.

    Returns an object with initial capital h0, value/hedge surfaces and
    the standing-assumption report.
    """
    return HedgeDecomposition(model, measure, settings)
