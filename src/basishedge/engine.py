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
residual.  At maturity t >= T, the only times where lambda is exactly 1,
a contour is the residues of its kernel (ContourLine.integral), for the
value and for gamma's asymptote in the hedge; quadrature takes only the
rest of gamma, which is not 0 only where the jumps spread the claim
coordinate.  Before it, this module evaluates both surfaces by shared
quadrature over the measure's contours, cut where the decay of lambda
bounds the truncation tail.  A line's weights times its density depend
on the line alone, so every decomposition of an equal line shares them
(_WEIGHTS), as every claim on a model shares its rates (_RATES).  Every
evaluation, h0 and the Monte Carlo replay's path slices included, enters
through one domain check, runs one kernel per time and leaves through
one guard: results must be finite, and a real claim's must be
conjugate-symmetric to within _IM_ABORT.  The pair at inception, h0 and
the hedge at (0, X0, S0), comes from one pass, which a scalar call at
that point returns.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import payoffs
from .errors import AssumptionError, ConvergenceError, DomainError
from .payoffs import PayoffMeasure, line_nodes, refine_line

__all__ = ["HedgeDecomposition", "decompose"]

_IM_ABORT = 1e-5
# a line plan tries truncation multiples 2**k, _MIN_EXTENSION <= k <= _MAX_EXTENSION
_MIN_EXTENSION = -3
_MAX_EXTENSION = 6
# segment -> {key: (gamma, eta_rate, psi)} at the exponent pairs the key
# names: a line shape's nodes or plan cutoffs, an atom, or a support's
# corners.  The claim enters a line only through its density, so every
# decomposition on a model shares these, and an entry dies with its segment
_RATES = weakref.WeakKeyDictionary()
# line -> {key: w * density} at the nodes of the rule the key names, read-only:
# they depend on the line alone, and an entry dies with its line
_WEIGHTS = weakref.WeakKeyDictionary()


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


def _power(e1, e2, logx, logs):
    """x**e1 s**e2 from the logs of the prices: a zero exponent drops out,
    and real ones skip the complex exp."""
    terms = [(complex(e), lg) for e, lg in ((e1, logx), (e2, logs)) if e != 0]
    out = np.exp(sum(e.real * lg for e, lg in terms))
    if any(e.imag for e, _ in terms):
        out = out * np.exp(1j * sum(e.imag * lg for e, lg in terms))
    return out


class HedgeDecomposition:
    """Value and hedge surfaces of a claim under quadratic hedging.

    Construction runs the standing-assumption checks and computes the
    initial capital h0 with the hedge at the spot.  value/hedge accept
    broadcastable (t, x, s).
    """

    def __init__(self, model, measure: PayoffMeasure):
        self.model = model
        self.measure = measure
        self._spot = None
        self._line_stats = [
            {"levels": 0, "umult": 0, "tail_bound": 0.0, "tail_mode": "none"}
            for _ in measure.lines
        ]
        self._real = measure.is_real_claim()
        self._im_residual = 0.0
        # the checks test finiteness, so an overflow there fails them
        with np.errstate(over="ignore", invalid="ignore"):
            # an atom's rates as one-element arrays, bit for bit its scalar ones
            self._atom_rates = [self._rates(("atom", a.z1, a.z2), lambda a=a: ([a.z1], [a.z2]))
                                for a in measure.atoms]
            self.assumptions = self._check_assumptions()
        # h0 is value(0, spot), taken with the hedge there, which a scalar
        # call at that point then returns (_broadcast); called below the
        # public methods so that a tracer wrapping them counts only the
        # caller's own evaluations
        self._spot = self._broadcast(0.0, *model.spot, True)
        self.h0 = self._spot[0]

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
            # the rule the numbers came from
            "settings": {"rel_tol": payoffs._REL_TOL, "panel_budget": payoffs._PANEL_BUDGET},
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
            _, wd, rates = self._nodes(idx, 0, 1)
            tv += float(np.sum(np.abs(wd)))
            for _, _, psis in rates.values():
                sup = max(sup, float(np.max(np.abs(psis))) / rb)
        checks["integrable-claim-transform"] = tv
        if not np.isfinite(tv):
            failures.append("integrable-claim-transform")

        (lo1, hi1), (lo2, hi2) = support = self.measure.real_support()
        corners = np.array([(lo1, lo2), (lo1, hi2), (hi1, lo2), (hi1, hi2), (0.0, 1.0), (0.0, 2.0)])
        at_corners = self._rates(("corners", support), lambda: corners.T)
        ok = all(np.isfinite(psis).all() for _, _, psis in at_corners.values())
        checks["cumulant-domain-contains-support"] = float(ok)
        if not ok:
            failures.append("cumulant-domain-contains-support")

        for rates in self._atom_rates:
            for seg in segments:
                sup = max(sup, abs(complex(rates[seg][2][0])) / rb)
        checks["bounded-cumulant-derivative"] = sup
        if not np.isfinite(sup):
            failures.append("bounded-cumulant-derivative")

        if failures:
            raise AssumptionError(
                "standing assumptions violated: " + ", ".join(failures)
            )
        return checks

    # -- internals ------------------------------------------------------------

    def _check(self, t, x, s):
        """The domain checks of a call, made once: positive prices, t in [0, T]."""
        # negated, so that a NaN fails them
        if not ((x > 0).all() and (s > 0).all()):
            raise DomainError("prices must be strictly positive")
        self.model._check_time(t)

    def _broadcast(self, t, x, s, need_z, grid_points=0):
        t, x, s = (np.asarray(a, dtype=float) for a in (t, x, s))
        spot = self.model.spot
        if (self._spot is not None and not grid_points and t.ndim == x.ndim == s.ndim == 0
                and t == 0.0 and x == spot[0] and s == spot[1]):
            # the spot pass's pair, which this point's kernel would repeat bit for bit
            return self._spot if need_z else (self._spot[0], None)
        self._check(t, x, s)
        tb, xb, sb = np.broadcast_arrays(t, x, s)
        x, s = (np.atleast_1d(a).ravel() for a in (xb, sb))
        with np.errstate(over="ignore", invalid="ignore"):  # checked in _guard
            if t.size == 1 and x.size:
                # one time: the kernel's arrays as they are
                y, z = self._at_time(t.item(), x, s, need_z, grid_points)
            else:
                y, z = np.zeros((2, x.size), dtype=complex)
                times, at = np.unique(tb.ravel(), return_inverse=True)
                rows = np.split(np.argsort(at, kind="stable"), np.cumsum(np.bincount(at))[:-1])
                for ti, r in zip(times, rows):
                    y[r], z[r] = self._at_time(float(ti), x[r], s[r], need_z, grid_points)
        return tuple(self._guard(a, tb.shape) for a in (y, z if need_z else None))

    def _guard(self, arr, shape):
        """The exit of every evaluation, for one array or None: it must be
        finite, and a real claim's keeps only its real part, once the
        imaginary residual (conjugate symmetry) has passed _IM_ABORT.
        Reshaped to shape; a 0-d shape gives a Python scalar."""
        if arr is None:
            return None
        # a NaN or an infinity shows in the largest magnitudes
        re, im = (float(np.abs(part).max()) if arr.size else 0.0 for part in (arr.real, arr.imag))
        if not (np.isfinite(re) and np.isfinite(im)):
            bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
            raise ConvergenceError(f"the contour quadrature is not finite at {bad} of {arr.size} points")
        if self._real:
            sc = max(1.0, re)
            if im > _IM_ABORT * sc:
                raise ConvergenceError(
                    f"conjugate-symmetry residual {im / sc:.2e} exceeds {_IM_ABORT:g}",
                    residual=im / sc,
                )
            self._im_residual = max(self._im_residual, im / sc)
            arr = arr.real.copy()
        arr = arr.reshape(shape)
        return arr[()].item() if shape == () else arr

    def _at_time(self, t, x, s, need_z, grid_points=0):
        """Complex (y, z) at one time t on the 1-d points (x, s), z zero
        unless need_z: the kernel of every evaluation.  Atoms are exact,
        with lambda and gamma taken once for the time.  A line is evaluated
        at its distinct varying coordinates (_line_group; one point needs
        no grouping), or, given grid_points, on a uniform grid of that many
        points over the range of its varying log coordinate, by one chirp-z
        transform on the whole rule at the level its ends took, and
        interpolated (the replay's path slices, which refuse t >= T)."""
        logx, logs, inv_s = np.log(x), np.log(s), 1.0 / s
        y, z = np.zeros((2, x.size), dtype=complex)
        for a, rates in zip(self.measure.atoms, self._atom_rates):
            lam, gam = self._propagate(rates, t)
            base = a.weight * complex(lam[0]) * _power(a.z1, a.z2, logx, logs)
            y += base
            if need_z:
                z += base * complex(gam[0]) * inv_s
            del base  # a full-size temporary, not to be held through the lines
        for idx, ln in enumerate(self.measure.lines):
            f = ln.fixed_exponent
            v, logv, fixed = (x, logx, _power(0, f, logx, logs)) if ln.axis == 1 else (
                s, logs, _power(f, 0, logx, logs))
            if not grid_points:
                # a line depends on its varying coordinate only: evaluate each
                # distinct value once, then scale per point
                uv, inv = (v, slice(None)) if v.size == 1 else np.unique(v, return_inverse=True)
                cy, cz = self._line_group(idx, t, uv, fixed, need_z)[:2]
                cy, cz = cy[inv], cz if cz is None else cz[inv]
            else:
                if t >= self.model.horizon:
                    raise DomainError("the grid shortcut does not cover the terminal time")
                lo, hi = float(logv.min()), float(logv.max())
                # all paths at one price (the first step) give a one-point grid
                glx = np.linspace(lo, hi, grid_points if hi - lo >= 1e-12 else 1)
                # the aliasing error grows with |log-moneyness|, which peaks at
                # an end of the grid, so the level refined there serves the grid
                umult, level = self._line_group(idx, t, np.exp(glx[[0, -1]]), fixed, True)[2:]
                u, coef, coef_gam = self._coefficients(idx, level, umult, t, True)
                # exp((R + i u_k) glx_j) = exp((R + i u_0) glx_j) exp(i k h glx_0) exp(i h dx jk)
                u0, h = u[0], u[1] - u[0]
                dx = glx[1] - glx[0] if glx.size > 1 else 0.0
                shift = np.exp(1j * (u - u0) * glx[0])
                vals = _chirp_z(np.stack([coef * shift, coef_gam * shift]), h * dx, glx.size)
                vals *= np.exp((ln.abscissa + 1j * u0) * glx)
                if ln.symmetric:
                    vals = 2.0 * vals.real
                # linear interpolation by index on the uniform grid (one point: constant)
                pos = (logv - lo) * ((glx.size - 1) / max(hi - lo, 1e-300))
                j = np.minimum(pos.astype(np.intp), max(glx.size - 2, 0))
                frac = pos - j
                j1 = np.minimum(j + 1, glx.size - 1)
                cy, cz = (tab[j] + frac * (tab[j1] - tab[j]) for tab in vals)
            y += fixed * cy
            if need_z:
                z += fixed * cz * inv_s
        return y, z

    def _nodes(self, idx: int, level: int, umult: float, whole: bool = False) -> tuple:
        """(u, w * density, rates): the nodes a refinement level adds, or its
        whole rule (see payoffs.line_nodes), their weights times the claim's
        density, and the model's rates there.  The nodes come from the rule's
        shared table, the weighted density from the line's in _WEIGHTS, which
        every decomposition of an equal line reads, and the rates from _RATES."""
        ln = self.measure.lines[idx]
        u, w = line_nodes(ln, level, umult, whole)
        tag = (level, umult, whole, payoffs._TRUNCATION, payoffs._PANELS)
        per = _WEIGHTS.setdefault(ln, {})
        wd = per.get(tag)
        if wd is None:
            wd = per[tag] = w * np.asarray(ln.density(u), dtype=complex)
            wd.flags.writeable = False
        return u, wd, self._line_rates(ln, u, *tag)

    def _coefficients(self, idx: int, level: int, umult: float, t: float, whole: bool = False):
        """(u, coef, coef * gamma) at the nodes of _nodes at time t, where
        coef is weight * density * lambda: a line's one coefficient path."""
        u, wd, rates = self._nodes(idx, level, umult, whole)
        lam, gam = self._propagate(rates, t)
        coef = wd * lam
        return u, coef, coef * gam

    def _rates(self, key, pairs) -> dict:
        """(gamma, eta_rate, psi) of every model segment at the exponent pairs
        (z1, z2) that pairs() makes and key names, read from or put into
        _RATES; pairs runs only on a miss."""
        rates = {}
        for _, _, seg in self.model.segments:
            per = _RATES.setdefault(seg, {})
            if key not in per:
                per[key] = seg.rates(*pairs())
                for arr in per[key]:
                    arr.flags.writeable = False
            rates[seg] = per[key]
        return rates

    def _line_rates(self, ln, u, *tag) -> dict:
        """_rates at a line's running nodes u, which its shape and the tag's constants fix."""
        f = complex(ln.fixed_exponent)

        def pairs():
            zrun = ln.abscissa + 1j * u
            return (zrun, f) if ln.axis == 1 else (f, zrun)
        return self._rates((ln.axis, f, ln.abscissa, ln.symmetric, *tag), pairs)

    def _propagate(self, rates: dict, ti: float):
        """(lambda, gamma) at the exponent pairs of rates at a checked time ti."""
        m = self.model
        log_lam = m._integral(ti, m.horizon, lambda w, seg: w * rates[seg][1])
        return np.exp(log_lam), rates[m._segment_at(ti)][0]

    def _line_group(self, idx, ti, v, fixed, need_z):
        """Raw line values (y, z) at the varying coordinates v at time ti,
        with the truncation multiple and the level they took; z is None
        unless need_z.  The plan and the level go into the line's stats.

        Values exclude the fixed-coordinate factor and the 1/s hedging
        division; `fixed` holds the factors of the points sharing them,
        which the truncation plan has to cover.
        """
        ln = self.measure.lines[idx]
        umult, tail_mode, bound = self._tail_plan(idx, ti, v, fixed)
        if tail_mode != "terminal":
            def coefficients(level):
                u, coef, coef_gam = self._coefficients(idx, level, umult, ti)
                return u, (coef, coef_gam if need_z else None)

            y, z, level = refine_line(ln, np.log(v), coefficients, umult)
        else:
            # lambda is 1: the value is the line's closed form, and so is the
            # hedge but for gamma's part off its asymptote, left to quadrature;
            # that part is exactly 0 unless the jumps spread the claim coordinate
            y, z, level = ln.integral(v), None, 0
            if need_z:
                seg, a = self.model._segment_at(ti), ln.axis - 1
                affine = seg.gamma_affine(ln.axis, ln.fixed_exponent)
                z = ln.integral(v, affine)
                if seg.jump_intensity > 0 and seg.jump_cov[a, a] > 0:
                    g0, g1, amp, rate = affine

                    def residual(level):
                        u, coef, coef_gam = self._coefficients(idx, level, umult, ti)
                        zrun = ln.abscissa + 1j * u
                        asymptote = g0 + g1 * zrun + amp * np.exp(rate * zrun)
                        return u, (None, coef_gam - coef * asymptote)

                    _, rest, level = refine_line(ln, np.log(v), residual, umult)
                    z = rest + z
        stats = self._line_stats[idx]
        stats["levels"] = max(stats["levels"], level)
        stats["umult"] = max(stats["umult"], umult)
        stats["tail_bound"] = max(stats["tail_bound"], bound)
        stats["tail_mode"] = tail_mode
        return y, z, umult, level

    def _tail_plan(self, idx, ti, v, fixed) -> tuple[float, str, float]:
        """The first truncation multiple 2**k (k >= _MIN_EXTENSION) whose tail
        bound, which covers the hedge's growth too, passes the floor."""
        ln = self.measure.lines[idx]
        horizon = self.model.horizon
        if ti >= horizon:
            return 1, "terminal", 0.0
        ks = range(_MIN_EXTENSION, _MAX_EXTENSION + 1)
        cuts = payoffs._TRUNCATION * 2.0 ** np.array(ks)
        # max of v**R sits at the small end of the grid for negative abscissas
        vpow = float(np.max(np.asarray(v) ** ln.abscissa))
        fmax = float(np.max(np.abs(fixed))) if np.size(fixed) else 1.0
        k = ln.strike
        amp = abs(ln.scale) * k ** (1.0 - ln.abscissa) / (2.0 * np.pi) * vpow * fmax
        floor = 0.1 * payoffs._REL_TOL * (1.0 + k)
        # lambda and gamma at every cutoff at once; the bounds stay scalar, whose
        # vector form would move tail_bound in its last bit
        tag = ("plan", payoffs._TRUNCATION, _MIN_EXTENSION, _MAX_EXTENSION)
        lams, gams = self._propagate(self._line_rates(ln, cuts, *tag), ti)
        for k_ext, cut, lam, gam in zip(ks, cuts, lams, gams):
            bound = float(2.0 * amp * abs(lam) * max(1.0, abs(gam)) / cut)
            if bound <= floor:
                return 2 ** k_ext, "extended" if k_ext > 0 else "skipped-negligible", bound
        a = ln.axis - 1
        if any(seg.covariance[a, a] > 0 or seg.jump_intensity > 0 and seg.jump_cov[a, a] > 0
               for _, _, seg in self.model.segments):
            why = (f"at {1 << _MAX_EXTENSION} times the nominal truncation it is still above the "
                   f"floor {floor:.2e}: too little claim-coordinate spread is left before maturity")
        else:
            why = "the model has no diffusion or jump spread in the claim coordinate"
        raise ConvergenceError(
            f"truncation tail of line {idx} is not controlled at T - t = {horizon - ti:g} "
            f"(bound {bound:.2e}): {why}",
            residual=bound,
        )


def decompose(model, measure: PayoffMeasure) -> HedgeDecomposition:
    """Build the quadratic-hedging decomposition of a claim.

    Returns an object with initial capital h0, value/hedge surfaces and
    the standing-assumption report.
    """
    return HedgeDecomposition(model, measure)
