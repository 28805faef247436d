"""Closed-form propagators and leapfrog recurrence for the shifted wave
equation on the tree, plus the mean-value verification apparatus.

The Cauchy problem

    gamma * L_time u(x, n) = (L_tree - 1 + gamma) u(x, n),
    u(x, 0) = f(x),   {u(x, 1) - u(x, -1)} / 2 = g(x),

is equivalent to the three-term recurrence

    u(x, n+1) + u(x, n-1) = (1/sqrt(q)) * sum_{y in S(x,1)} u(y, n),

and is solved in closed form by u(., n) = C_n f + S_n g, where

    C_n = (M_|n| - M_{|n|-2}) / 2,       S_n = sign(n) * M_{|n|-1},
    M_n f(x) = q^(-n/2) * sum_{d(y,x) <= n, n - d(y,x) even} f(y),

with M_{-1} = 0 and, at n = 0, C_0 = id and S_0 = 0 (forced by the initial
condition).  Both solution routes are implemented independently so that
their exact agreement can serve as an oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError, TruncationError
from .functions import TreeFunction
from .scalars import (
    Scalar,
    ScalarMode,
    scalar_from_fraction,
    scalar_sum,
    scalar_zero,
    sqrt_q_power,
)
from .topology import Ball, VertexAddress, sphere


def adjacency_sum(f: TreeFunction) -> TreeFunction:
    """x -> sum_{y in S(x,1)} f(y), as level-array slices."""
    return TreeFunction._from_levels(f._as_levels().adjacency())


def m_operator(n: int, f: TreeFunction) -> TreeFunction:
    """M_n f(x) = q^(-n/2) * sum over d(y,x) <= n with n - d(y,x) even;
    M_{-1} = 0 and M_0 is the identity.  Built from the geodesic index ranges
    of each data vertex's spheres on level arrays, with no neighbour sum."""
    if n < -1:
        raise ParameterError(f"M_n is defined for n >= -1, got {n}")
    if n == -1:
        return TreeFunction.zero(f.q, f.mode)
    if n == 0:
        return f
    return TreeFunction._from_levels(f._as_levels().ball_mean(n))


def propagators(n: int, f: TreeFunction, g: TreeFunction) -> TreeFunction:
    """Snapshot C_n f + S_n g of the closed-form solution."""
    if f.q != g.q or f.mode != g.mode:
        raise ParameterError("initial data must share q and scalar mode")
    if n == 0:
        return f
    half = scalar_from_fraction(Fraction(1, 2), f.q, f.mode)
    cosine_part = (m_operator(abs(n), f) - m_operator(abs(n) - 2, f)).scale(half)
    sine_part = m_operator(abs(n) - 1, g)
    if n < 0:
        sine_part = -sine_part
    return cosine_part + sine_part


def step_recurrence(u_prev: TreeFunction, u_curr: TreeFunction) -> TreeFunction:
    """u_next = (1/sqrt(q)) * neighbour sum of u_curr - u_prev.

    The same map also steps backwards (it is an involution in the pair),
    which is what makes the trajectory reversible.
    """
    if u_prev.q != u_curr.q or u_prev.mode != u_curr.mode:
        raise ParameterError("snapshots must share q and scalar mode")
    return TreeFunction._from_levels(u_curr._as_levels().step(u_prev._as_levels()))


@dataclass(frozen=True)
class WaveTrajectory:
    """Solved snapshots u(., n) together with their defining data.

    Invariants (exact mode): snapshot(0) == f, and when both are present
    (snapshot(1) - snapshot(-1))/2 == g; the support of snapshot(n) stays
    inside the ball of radius |n| + N around the data (N = data radius).
    """

    q: int
    mode: ScalarMode
    f: TreeFunction
    g: TreeFunction
    snapshots: dict[int, TreeFunction] = field(repr=False)
    solver: str = "closed"
    ball: Ball | None = None

    def __post_init__(self):
        if self.mode is ScalarMode.EXACT:
            if 0 in self.snapshots and self.snapshots[0] != self.f:
                raise ParameterError("snapshot(0) must equal the initial position")
            if 1 in self.snapshots and -1 in self.snapshots:
                half = scalar_from_fraction(Fraction(1, 2), self.q, self.mode)
                centered = (self.snapshots[1] - self.snapshots[-1]).scale(half)
                if centered != self.g:
                    raise ParameterError(
                        "snapshots violate the centered initial velocity condition"
                    )

    def n_values(self) -> list[int]:
        return sorted(self.snapshots)

    def snapshot(self, n: int) -> TreeFunction:
        try:
            return self.snapshots[n]
        except KeyError:
            raise ParameterError(f"time {n} was not solved for") from None

    def data_radius(self) -> int:
        return max(self.f.support_radius(), self.g.support_radius(), 0)


def _normalize_range(n_range) -> tuple[int, int]:
    """(lo, hi) from a pair of integer times or a bare radius r >= 0 for
    [-r, r]."""
    if isinstance(n_range, int):
        if n_range < 0:
            raise ParameterError(f"a bare integer time range must be >= 0, got {n_range}")
        return (-n_range, n_range)
    try:
        lo, hi = (operator.index(bound) for bound in n_range)
    except (TypeError, ValueError):
        raise ParameterError(
            f"time range must be an integer radius or a pair of integers, got {n_range!r}"
        ) from None
    if lo > hi:
        raise ParameterError(f"empty time range {n_range}")
    if lo > 0 or hi < 0:
        raise ParameterError(
            f"time range {n_range} must contain 0 (initial data lives there)"
        )
    return (lo, hi)


def _leapfrog(f, g, pushed, lo: int, hi: int, step) -> dict:
    """Snapshots lo..hi of the leapfrog from u(0) = f and u(+-1) = pushed +- g
    (pushed is half the weighted neighbour sum of f).  ``step(previous,
    current)`` gives the next snapshot in either time direction."""
    snapshots = {0: f}
    if hi >= 1:
        snapshots[1] = pushed + g
    if lo <= -1:
        snapshots[-1] = pushed - g
    for n in range(1, hi):
        snapshots[n + 1] = step(snapshots[n - 1], snapshots[n])
    for n in range(-1, lo, -1):
        snapshots[n - 1] = step(snapshots[n + 1], snapshots[n])
    return snapshots


def solve(
    f: TreeFunction,
    g: TreeFunction,
    n_range,
    solver: str = "closed",
    ball: Ball | None = None,
) -> WaveTrajectory:
    """Solve the Cauchy problem on [lo, hi] (``n_range`` may be a pair or a
    bare radius r for [-r, r]).

    ``solver='closed'`` fills snapshots through the propagators;
    ``solver='recurrence'`` bootstraps u(., +/-1) from the neighbour sum of f
    (the n = 0 recurrence combined with the centered velocity) and leapfrogs
    outwards.  In exact mode the two routes agree identically.
    """
    if f.q != g.q or f.mode != g.mode:
        raise ParameterError("initial data must share q and scalar mode")
    if solver not in ("closed", "recurrence"):
        raise ParameterError(f"solver must be 'closed' or 'recurrence', got {solver!r}")
    lo, hi = _normalize_range(n_range)
    data_radius = max(f.support_radius(), g.support_radius(), 0)
    needed = max(abs(lo), abs(hi)) + data_radius + 2
    if ball is None:
        ball = Ball(f.q, needed)
    elif ball.radius < needed:
        worst = max(abs(lo), abs(hi))
        offending = min(n for n in range(worst + 1) if n + data_radius + 2 > ball.radius)
        raise TruncationError(
            f"truncation ball of radius {ball.radius} cannot hold the snapshot "
            f"at n={offending} (radius {needed} required for |n| <= {worst})"
        )

    if solver == "closed":
        snapshots = {n: propagators(n, f, g) for n in range(lo, hi + 1)}
    else:
        half_step = sqrt_q_power(f.q, -1, f.mode) * scalar_from_fraction(
            Fraction(1, 2), f.q, f.mode
        )
        pushed = adjacency_sum(f).scale(half_step)
        snapshots = _leapfrog(f, g, pushed, lo, hi, step_recurrence)
    return WaveTrajectory(
        q=f.q, mode=f.mode, f=f, g=g, snapshots=snapshots, solver=solver, ball=ball
    )


@dataclass(frozen=True)
class AsgeirssonField:
    """U(x, y) = q^(h(y)/2) * u(x, h(y)) built from a solved trajectory.

    The second argument enters only through its height, so U satisfies the
    two-variable mean-value hypothesis L_x U = L_y U exactly whenever u
    solves the wave equation.
    """

    trajectory: WaveTrajectory
    ball: Ball

    def __post_init__(self):
        solved = self.trajectory.n_values()
        if not solved or min(solved) > -self.ball.radius or max(solved) < self.ball.radius:
            span = f"{min(solved)}..{max(solved)}" if solved else "nothing"
            raise TruncationError(
                f"ball heights span [-{self.ball.radius}, {self.ball.radius}] but the "
                f"trajectory covers {span}"
            )

    def value(self, x: VertexAddress, y: VertexAddress) -> Scalar:
        h = y.height()
        weight = sqrt_q_power(self.trajectory.q, h, self.trajectory.mode)
        return weight * self.trajectory.snapshot(h)[x]

    def laplacian_in_x(self, x: VertexAddress, y: VertexAddress) -> Scalar:
        q = self.trajectory.q
        ratio = scalar_from_fraction(Fraction(1, q + 1), q, self.trajectory.mode)
        neighbour_total = scalar_sum(
            (self.value(nb, y) for nb in x.neighbors()), q, self.trajectory.mode
        )
        return self.value(x, y) - ratio * neighbour_total

    def laplacian_in_y(self, x: VertexAddress, y: VertexAddress) -> Scalar:
        q = self.trajectory.q
        ratio = scalar_from_fraction(Fraction(1, q + 1), q, self.trajectory.mode)
        neighbour_total = scalar_sum(
            (self.value(x, nb) for nb in y.neighbors()), q, self.trajectory.mode
        )
        return self.value(x, y) - ratio * neighbour_total


def asgeirsson_field(u: WaveTrajectory, ball: Ball) -> AsgeirssonField:
    return AsgeirssonField(trajectory=u, ball=ball)


def asgeirsson_verify(
    field: AsgeirssonField,
    x: VertexAddress,
    y: VertexAddress,
    m: int,
    n: int,
) -> tuple[Scalar, Scalar]:
    """Both double sphere sums of the mean-value identity:

        sum_{x' in S(x,m)} sum_{y' in S(y,n)} U(x', y')   (lhs)
        sum_{x' in S(x,n)} sum_{y' in S(y,m)} U(x', y')   (rhs)

    The identity asserts lhs == rhs for every m, n.
    """

    def double_sum(radius_x: int, radius_y: int) -> Scalar:
        traj = field.trajectory
        xs = sphere(x, radius_x, field.ball)
        ys = sphere(y, radius_y, field.ball)
        height_counts: dict[int, int] = {}
        for y_prime in ys:
            h = y_prime.height()
            height_counts[h] = height_counts.get(h, 0) + 1
        total = scalar_zero(traj.q, traj.mode)
        for h, count in sorted(height_counts.items()):
            snapshot = traj.snapshot(h)
            inner = scalar_sum((snapshot[x_prime] for x_prime in xs), traj.q, traj.mode)
            total = total + sqrt_q_power(traj.q, h, traj.mode) * inner * count
        return total

    return double_sum(m, n), double_sum(n, m)
