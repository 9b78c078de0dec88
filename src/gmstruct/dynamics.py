"""Skew-product solenoid models on the solid torus S^1 x D^2.

Two families are provided:

* ``UNIFORM`` -- angle doubling on the base, uniformly contracting fiber.
  Every orbit expands at the constant rate log 2 along the unstable
  direction, so this is the baseline where all the machinery is exact.
* ``INTERMITTENT`` -- a Manneville-Pomeau style base map with a neutral
  fixed point at t = 0, producing polynomial tails for the expansion time.

Both maps have the form f(t, u, v) = (g(t), L u + (A/4) cos(2 pi t),
L v + (A/4) sin(2 pi t)) with L the fiber contraction rate and A the
coupling amplitude.  The fiber derivative is L * Id, so the stable bundle
is exactly the vertical plane and stable leaves are vertical fibers.  The
unstable bundle is one-dimensional and is computed by pushing a tangent
vector forward along the orbit (power iteration in the cone).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSettled

TWO_PI = 2.0 * math.pi
#: sub-resolution dither added to base coordinates by the ensemble and
#: construction orbits (binary base maps otherwise exhaust the mantissa and
#: collapse every orbit onto a fixed point after ~52 steps)
DITHER = 2.0 ** -51
#: bisection steps that close the intermittent left-branch bracket [0, 1/2]
BISECTION_ITERS = 80
#: the bits of 2.0, the right-branch g' that the intermittent select blends in
_TWO_BITS = np.float64(2.0).view(np.uint64)


def frac(x, out=None):
    """x mod 1, bit-identical to ``np.mod(x, 1.0)`` and about 15x cheaper.

    Like ``np.mod``, negatives in [-2^-54, 0) round up to 1.0.  ``out``, an
    array other than x, holds floor(x) on the way and then the result.
    """
    return np.subtract(x, np.floor(x, out=out), out=out)


def dither_rng(seed):
    """The generator of a dithered orbit's draws: counter-based Philox, so a seed fixes them all."""
    return np.random.Generator(np.random.Philox(seed))


def dither(t, rng, out=None, work=None):
    """frac(t + u * DITHER), u uniform in [0, 1) drawn from rng for each entry of t.

    With ``work`` (a float array shaped like t) the draws go there, and with
    ``out`` (which may be t, not work) the result does; absent, they are new.
    """
    u = rng.random(np.shape(t)) if work is None else rng.random(out=work)
    u *= DITHER
    u += t
    return frac(u, out=out)


class Family(enum.Enum):
    UNIFORM = "uniform"
    INTERMITTENT = "intermittent"


@dataclass(frozen=True)
class ModelSystem:
    """A concrete skew-product diffeomorphism with its splitting data.

    ``base_param`` is the base expansion factor (2) for the uniform
    family and the intermittency exponent alpha in (0, 1) for the
    intermittent family.  ``lambda_s`` is the fiber contraction rate and
    ``coupling`` the amplitude A of the base-to-fiber coupling.  The fields
    are not checked here: the rule table in ``config.py`` checks them.
    """

    family: Family
    base_param: float
    lambda_s: float = 0.25
    coupling: float = 0.0

    @property
    def constant_log_expansion(self):
        """log ||Df|E^cu||, where it is one number at every point (uncoupled uniform), else None."""
        return math.log(2.0) if self.family is Family.UNIFORM and self.coupling == 0.0 else None

    # -- base circle map -------------------------------------------------

    def base_map(self, t):
        """Apply g to base coordinates (vectorized, result in [0, 1))."""
        t = np.asarray(t, dtype=float)
        if self.family is Family.UNIFORM:
            return frac(2.0 * t)
        return frac(self._lift(t, self._power(t)))

    def base_deriv(self, t):
        """g'(t), always >= 1 for the intermittent family, == 2 for uniform."""
        t = np.asarray(t, dtype=float)
        if self.family is Family.UNIFORM:
            return np.full_like(t, 2.0)
        return self._deriv(t, self._power(t), out=np.empty_like(t))

    def base_step(self, t, out=None):
        """(g(t), g'(t)), bitwise equal to (base_map(t), base_deriv(t)), with one power.

        ``out`` = (g, work, gp): float arrays shaped like t, none of them t;
        g(t) is written into g, g'(t) into gp and work is scratch.  Without
        ``out``, or where gp is None, the results are new arrays.
        """
        t = np.asarray(t, dtype=float)
        g, work, gp = (None,) * 3 if out is None else out
        gp = np.empty_like(t) if gp is None else gp
        if self.family is Family.UNIFORM:
            gp.fill(2.0)
            return frac(np.multiply(t, 2.0, out=work), out=g), gp
        p = self._power(t, out=g)
        lift = self._lift(t, p, out=work)
        self._deriv(t, p, out=gp)
        return frac(lift, out=g), gp

    # the intermittent branches share the one power p = (2t)^alpha; each
    # helper writes into ``out`` (or a new array) and works in place there

    def _power(self, t, out=None):
        p = np.multiply(t, 2.0, out=out)
        # the operator, not np.power: it keeps numpy's scalar-exponent fast
        # paths (sqrt for alpha = 1/2) that the pinned outputs were made with
        p **= self.base_param
        return p

    def _lift(self, t, p, out=None):
        # t (1 + min(p, 1)): p >= 1 exactly when t >= 1/2, and there t * 2 =
        # 2t has the same fraction as the right branch 2t - 1, bit for bit,
        # so frac of this is g(t) on both branches with no select
        q = np.minimum(p, 1.0, out=out)
        q += 1.0
        q *= t
        return q

    def _deriv(self, t, p, out):
        # p' = 1 + (1 + alpha) p on the left branch, 2 on the right, into out:
        # 2 ^ ((p' ^ 2) * (t < 1/2)) on uint64 views has np.where's bits, NaN
        # and -0 included, without its per-entry branch; overwrites p
        p *= 1.0 + self.base_param
        p += 1.0
        pb = np.asarray(p).view(np.uint64)
        pb ^= _TWO_BITS
        bits = out.view(np.uint64)
        np.less(t, 0.5, out=bits)
        bits *= pb
        bits ^= _TWO_BITS
        return out

    def base_inverse(self, t, branch):
        """Inverse branch of g: branch 0 lands in [0, 1/2), branch 1 in [1/2, 1).

        The intermittent left branch has no closed form and is solved by
        bisection to full double precision.
        """
        t = np.asarray(t, dtype=float)
        if self.family is Family.UNIFORM:
            return (t + branch) / 2.0
        if np.ndim(branch) == 0 and branch == 1:
            return (t + 1.0) / 2.0
        branch = np.broadcast_to(np.asarray(branch), t.shape)
        left = _invert_intermittent_left(t, self.base_param)
        return np.where(branch == 0, left, (t + 1.0) / 2.0)

    # -- full map --------------------------------------------------------

    def step_arrays(self, t, u, v):
        """One application of f to coordinate arrays; with u = v = None, to the base alone."""
        tn = self.base_map(t)
        if u is None:
            return tn, None, None
        if self.coupling == 0.0:
            return tn, self.lambda_s * u, self.lambda_s * v
        c = self.coupling / 4.0
        phase = TWO_PI * t
        un = self.lambda_s * u + c * np.cos(phase)
        vn = self.lambda_s * v + c * np.sin(phase)
        return tn, un, vn

    def push_tangent(self, t, s1, s2, gp, out=None):
        """Push the cu-cone vector (1, s1, s2) at base t forward by Df.

        ``gp`` is g'(t).  Returns (new_s1, new_s2, expansion) where
        expansion is ||Df w|| / ||w|| for w = (1, s1, s2).  ``out`` =
        (n1, n2, expansion, w1, w2) are float arrays shaped like t, none of
        them an input: the results are written into the first three and the
        last two are scratch.  Without ``out`` the results are new arrays.
        On an uncoupled system ``s1 = s2 = None`` is the horizontal vector,
        which the push returns as (None, None, gp); coupled, slopes are arrays.
        """
        if s1 is None and self.coupling == 0.0:    # zero slopes would push to (+0, +0, g'(t))
            return None, None, gp
        n1, n2, expansion, w1, w2 = (None,) * 5 if out is None else out
        c = self.coupling * math.pi / 2.0
        phase = np.multiply(TWO_PI, t, out=w1)
        n1 = np.sin(phase, out=n1)
        n1 *= -c
        n1 += np.multiply(self.lambda_s, s1, out=w2)
        n2 = np.cos(phase, out=n2)
        n2 *= c
        n2 += np.multiply(self.lambda_s, s2, out=w2)
        n1 /= gp
        n2 /= gp
        # gp * sqrt((1 + n1 n1 + n2 n2) / (1 + s1 s1 + s2 s2)), in that order
        num = np.multiply(n1, n1, out=w1)
        num += 1.0
        num += np.multiply(n2, n2, out=w2)
        den = np.multiply(s1, s1, out=w2)
        den += 1.0
        den += np.multiply(s2, s2, out=expansion)
        num /= den
        num = np.sqrt(num, out=w1)
        return n1, n2, np.multiply(gp, num, out=expansion)


def _invert_intermittent_left(t, alpha):
    """Solve s (1 + (2 s)^alpha) = t on [0, 1/2] by bisection."""
    lo = np.zeros_like(t)
    hi = np.full_like(t, 0.5)
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        val = mid * (1.0 + (2.0 * mid) ** alpha)
        smaller = val < t
        lo = np.where(smaller, mid, lo)
        hi = np.where(smaller, hi, mid)
    return 0.5 * (lo + hi)


def uniform_solenoid(lambda_s=0.25, coupling=0.0):
    return ModelSystem(Family.UNIFORM, 2.0, lambda_s, coupling)


def intermittent_solenoid(alpha=0.5, lambda_s=0.1, coupling=0.0):
    return ModelSystem(Family.INTERMITTENT, alpha, lambda_s, coupling)


def circle_offset(a, b):
    """Signed representative of a - b in (-1/2, 1/2]."""
    d = frac(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.where(d > 0.5, d - 1.0, d)


# ---------------------------------------------------------------------------
# orbit stepper


class CocycleScan:
    """Orbits of any shape (a grid, or the ``(2, n)`` rows of paired orbits) and their tangent.

    ``t`` holds the base points and ``s1``/``s2`` their cu slopes: ``slopes``
    if given, else None (horizontal) until a coupled step allocates zeros.
    With ``rng`` every step is dithered.  Only ``advance`` writes ``t`` and
    the slopes; callers read them.  The scan owns its work arrays, so only a
    step with slopes allocates (g'(t)): a full step writes g(t) into a
    private buffer that trades places with ``t``.
    """

    def __init__(self, points, rng=None, slopes=None):
        self.t = np.array(points, dtype=float)
        self.rng = rng
        self.s1 = self.s2 = self._n1 = self._n2 = None
        if slopes is not None:
            self.s1, self.s2, self._n1, self._n2 = np.empty((4,) + self.t.shape)
            self.s1[...], self.s2[...] = slopes
        # g(t), the expansion and two scratch arrays in one block: apart, once
        # freed, they left a later stage's peak RSS about 2 MB higher
        self._spare, self._e, self._w1, self._w2 = np.empty((4,) + self.t.shape)

    def advance(self, sys: ModelSystem, live=None):
        """Step ``t[..., :live]`` (all of ``t`` by default) once; returns (expansion, g'(t)).

        expansion is ||Df w|| / ||w|| for the cu vector w = (1, s1, s2) at the
        old t, so a_n = -log expansion.  Either may be the scan's buffer, which
        the next call overwrites: on a step without slopes both are g'(t) in
        that buffer.  Points and slopes from ``live`` on stay as they are.
        """
        if self.s1 is None and sys.coupling != 0.0:
            self.s1, self.s2, self._n1, self._n2 = np.zeros((4,) + self.t.shape)
        t, g, s1, s2, n1, n2, e, w1, w2 = (
            a if live is None or a is None else a[..., :live] for a in (
                self.t, self._spare, self.s1, self.s2, self._n1, self._n2,
                self._e, self._w1, self._w2))
        # uncoupled, the push returns g'(t) as the expansion: write it into e
        g, gp = sys.base_step(t, out=(g, w1, e if s1 is None else None))
        n1, n2, e = sys.push_tangent(t, s1, s2, gp, out=(n1, n2, e, w1, w2))
        if self.rng is not None:
            # the generator fills only contiguous arrays, which a row prefix is not
            dither(g, self.rng, out=g, work=w1 if live is None else None)
        if live is None:
            self.t, self._spare = g, t
            if n1 is not None:      # a coupled push wrote the new slopes into the spare pair
                self._n1, self._n2, self.s1, self.s2 = s1, s2, n1, n2
        else:
            t[...] = g
            if n1 is not None:
                s1[...], s2[...] = n1, n2
        return e, gp


# ---------------------------------------------------------------------------
# unstable direction


def cu_directions(sys: ModelSystem, rows, settle: int, tol=1e-10):
    """Unit vectors spanning E^cu at n points, as an (n, 3) array, by cone power iteration.

    ``rows`` holds the backward base histories as ``settle + 1`` rows of n,
    oldest first: ``rows[k][j]`` is point j's base ``settle - k`` steps back.
    The horizontal vector is pushed through rows ``0 .. settle-1`` and,
    dropping the earliest, rows ``1 .. settle-1``; ``NotSettled`` is raised
    if the two results differ by more than ``tol`` at any point.
    """
    if settle < 1:
        raise ValueError("settle must be >= 1")
    n = len(rows[0])
    if sys.coupling == 0.0:
        return np.tile([1.0, 0.0, 0.0], (n, 1))
    if len(rows) < settle + 1:
        raise NotSettled(f"history of length {len(rows) - 1} shorter than settle={settle}")

    def run(first):
        s1 = s2 = np.zeros(n)
        for k in range(first, settle):
            s1, s2, _ = sys.push_tangent(rows[k], s1, s2, sys.base_deriv(rows[k]))
        v = np.column_stack([np.ones(n), s1, s2])
        return v / _row_norms(v)[:, None]

    v_full = run(0)
    v_short = run(1)
    if np.any(_row_norms(v_full - v_short) > tol):
        raise NotSettled("cu direction not converged within the provided history")
    return v_full


def _row_norms(v):
    # a row matmul rounds like the 1-D np.linalg.norm; norm(v, axis=1) may not
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
