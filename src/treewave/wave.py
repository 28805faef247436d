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

Every operator here is written once for a ``TreeFunction`` and a
``RadialProfile`` alike and returns the type of its input: the layout of
``treewave.levels`` supplies the neighbour sum, M_n and C_n (one read of
the parity sums over the stored depths, vertex or radial, exact or
float64, with no kernel built).
``solve`` and ``treewave.radial.radial_solve`` share one body, truncation
check included.
Vertex data built in Ball(R) are packed in the orbit layout of radius R, one
entry per vertex of S(R) at each depth beyond R, and both routes of
``solve`` stay in it: the leapfrog steps there, and the closed route takes
each M_n there from parity sums over the stored depths, built once
per datum and kept on it, with no neighbour sum, so it stays the
leapfrog's independent oracle.  Data with a tail, such as a snapshot u(k)
restarted as Cauchy data, take the same route and keep R.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import ParameterError, TruncationError
from .functions import RadialProfile, TreeFunction, _check_time
from .scalars import (
    Scalar,
    ScalarMode,
    scalar_from_fraction,
    scalar_sum,
    scalar_zero,
    sqrt_q_power,
)
from .topology import Ball, VertexAddress, _check_radius, sphere


Function = TreeFunction | RadialProfile


def adjacency_sum(f: Function) -> Function:
    """x -> sum_{y in S(x,1)} f(y), on the packed form of f."""
    return type(f)._from_levels(f._as_levels().adjacency())


def m_operator(n: int, f: Function) -> Function:
    """M_n f(x) = q^(-n/2) * sum over d(y,x) <= n with n - d(y,x) even;
    M_{-1} = 0 and M_0 is the identity.  No neighbour sum is taken: data of
    either number type, vertex or radial, read P(n) of the parity sums kept
    on them, by one body and with no kernel built."""
    _check_time(n)
    if n < -1:
        raise ParameterError(f"M_n is defined for n >= -1, got {n}")
    if n == -1:
        return type(f)(f.q, f.mode)
    if n == 0:
        return f
    return type(f)._from_levels(f._as_levels().ball_mean(n))


def c_operator(n: int, f: Function) -> Function:
    """C_n f = (M_|n| f - M_{|n|-2} f) / 2, with C_0 the identity, as one
    combination of the parity sums kept on f, q^(-|n|/2) (P(|n|) - q
    P(|n|-2)) / 2, with no M_n built (``cosine`` of the packed form)."""
    _check_time(n)
    if n == 0:
        return f
    return type(f)._from_levels(f._as_levels().cosine(abs(n)))


def s_operator(n: int, g: Function) -> Function:
    """S_n g = sign(n) * M_{|n|-1} g, with S_0 = 0."""
    _check_time(n)
    if n == 0:
        return type(g)(g.q, g.mode)
    out = m_operator(abs(n) - 1, g)
    return -out if n < 0 else out


def propagators(n: int, f: Function, g: Function) -> Function:
    """Snapshot C_n f + S_n g of the closed-form solution."""
    _check_time(n)
    if f.q != g.q or f.mode != g.mode:
        raise ParameterError("initial data must share q and scalar mode")
    if n == 0:
        return f
    return c_operator(n, f) + s_operator(n, g)


def step_recurrence(u_prev: Function, u_curr: Function) -> Function:
    """u_next = (1/sqrt(q)) * neighbour sum of u_curr - u_prev.

    The same map also steps backwards (it is an involution in the pair),
    which is what makes the trajectory reversible.
    """
    if u_prev.q != u_curr.q or u_prev.mode != u_curr.mode:
        raise ParameterError("snapshots must share q and scalar mode")
    return type(u_curr)._from_levels(u_curr._as_levels().step(u_prev._as_levels()))


@dataclass(frozen=True)
class WaveTrajectory:
    """Solved snapshots u(., n) together with their defining data, vertex
    functions or radial profiles.

    Invariants (exact mode): snapshot(0) == f, and when both are present
    (snapshot(1) - snapshot(-1))/2 == g; the support of snapshot(n) stays
    inside the ball of radius |n| + N around the data (N = data radius).
    """

    q: int
    mode: ScalarMode
    f: Function
    g: Function
    snapshots: dict[int, Function] = field(repr=False)

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

    def interior_times(self) -> list[int]:
        """The solved n whose n - 1 and n + 1 are solved too: the times at
        which energies and interior sums are defined."""
        return [n for n in self.n_values() if n - 1 in self.snapshots and n + 1 in self.snapshots]

    def snapshot(self, n: int) -> Function:
        try:
            return self.snapshots[n]
        except KeyError:
            raise ParameterError(f"time {n} was not solved for") from None

    def data_radius(self) -> int:
        return max(self.f.support_radius(), self.g.support_radius(), 0)

    # Kept once per trajectory for ``treewave.energy``: the data images of
    # the operator gap and its pairings per |n|, and the direct sums (K(n),
    # P(n)) per time n as the energy table and the gap first sum them.
    # None is a field, so none enters equality.

    @cached_property
    def _gap_images(self) -> tuple[Function, Function]:
        """(f - C_2 f, g - C_2 g), the data as every operator-gap pairing
        reads them (``energy._operator_gap``)."""
        return self.f - c_operator(2, self.f), self.g - c_operator(2, self.g)

    @cached_property
    def _gap_pairings(self) -> dict[int, list[Scalar]]:
        """|n| -> (<C_{2|n|} f, f - C_2 f>, <C_{2|n|} g, g>, <S_{2|n|} f,
        g - C_2 g>) of the times paired so far."""
        return {}

    @cached_property
    def _energy_sums(self) -> dict[int, tuple[Scalar, Scalar]]:
        """n -> (K(n), P(n)) of the times summed so far."""
        return {}


def _normalize_range(n_range) -> tuple[int, int]:
    """(lo, hi) from a pair of integer times or a bare radius r >= 0 for
    [-r, r]; a bool is not a time."""
    if isinstance(n_range, int) and not isinstance(n_range, bool):
        if n_range < 0:
            raise ParameterError(f"a bare integer time range must be >= 0, got {n_range}")
        return (-n_range, n_range)
    try:
        bounds = tuple(n_range)
        if any(isinstance(bound, bool) for bound in bounds):
            raise TypeError
        lo, hi = map(operator.index, bounds)
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


def _solve(f, g, n_range, solver: str, closed, adjacency, ball=None) -> WaveTrajectory:
    """The body of the vertex and radial solvers: validation, then the
    snapshots ``closed(n, f, g)`` or the leapfrog from u(+-1) = (1/(2 sqrt
    q)) ``adjacency(f)`` +- g (the n = 0 recurrence combined with the
    centered velocity), in the layouts f and g are packed in.  A truncation
    ``ball`` must hold radius |n| + N + 2 at every solved n (N the data
    radius), which is checked before any snapshot."""
    if f.q != g.q or f.mode != g.mode:
        raise ParameterError("initial data must share q and scalar mode")
    if solver not in ("closed", "recurrence"):
        raise ParameterError(f"solver must be 'closed' or 'recurrence', got {solver!r}")
    lo, hi = _normalize_range(n_range)
    if ball is not None:
        data_radius = max(f.support_radius(), g.support_radius(), 0)
        worst = max(-lo, hi)
        if worst + data_radius + 2 > ball.radius:
            raise TruncationError(
                f"truncation ball of radius {ball.radius} cannot hold the snapshot at "
                f"n={max(ball.radius - data_radius - 1, 0)} "
                f"(radius {worst + data_radius + 2} required for |n| <= {worst})"
            )
    if solver == "closed":
        snapshots = {n: closed(n, f, g) for n in range(lo, hi + 1)}
    else:
        half_step = sqrt_q_power(f.q, -1, f.mode) * scalar_from_fraction(
            Fraction(1, 2), f.q, f.mode
        )
        pushed = adjacency(f).scale(half_step)
        snapshots = _leapfrog(f, g, pushed, lo, hi, step_recurrence)
    return WaveTrajectory(q=f.q, mode=f.mode, f=f, g=g, snapshots=snapshots)


def solve(
    f: TreeFunction,
    g: TreeFunction,
    n_range,
    solver: str = "closed",
    ball: Ball | None = None,
) -> WaveTrajectory:
    """Solve the Cauchy problem on [lo, hi] (``n_range`` may be a pair or a
    bare radius r for [-r, r]).

    Both routes run in the orbit layout of each datum's own radius R: one
    entry per vertex of S(R) at each depth beyond R, which is all data in
    Ball(R) can tell apart there.  Data built in Ball(R) are packed so, and
    a snapshot keeps its radius, so a restart from a later snapshot stays
    in it too.  ``solver='closed'`` fills snapshots through the
    propagators, whose M_n stays in that layout;
    ``solver='recurrence'`` bootstraps u(., +/-1) from the neighbour sum of
    f and leapfrogs outwards.  Snapshots read, compare and serialize as
    full functions.  In exact mode the two routes agree identically.  A
    ``ball`` too small raises ``TruncationError`` naming the first n that
    does not fit.
    """
    return _solve(f, g, n_range, solver, propagators, adjacency_sum, ball)


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

    def _laplacian(self, x: VertexAddress, y: VertexAddress, neighbour_values) -> Scalar:
        q, mode = self.trajectory.q, self.trajectory.mode
        ratio = scalar_from_fraction(Fraction(1, q + 1), q, mode)
        return self.value(x, y) - ratio * scalar_sum(neighbour_values, q, mode)

    def laplacian_in_x(self, x: VertexAddress, y: VertexAddress) -> Scalar:
        return self._laplacian(x, y, (self.value(nb, y) for nb in x.neighbors()))

    def laplacian_in_y(self, x: VertexAddress, y: VertexAddress) -> Scalar:
        return self._laplacian(x, y, (self.value(x, nb) for nb in y.neighbors()))


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
    _check_radius(m, "m")
    _check_radius(n, "n")

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
            inner = snapshot.sum_at(xs)
            total = total + sqrt_q_power(traj.q, h, traj.mode) * inner * count
        return total

    return double_sum(m, n), double_sum(n, m)
