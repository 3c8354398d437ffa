"""Every integration over one period [0, T], built from one right-hand side.

The unperturbed flow, its fundamental matrix, the full perturbed flow and
the y_i hierarchy behind the averaged functions are all cuts of one
augmented system

    x' = sum_i eps^i F_i(t, x),
    Y' = A(t) Y,                  Y(0) = Id,   A = sum_i eps^i dF_i/dx,
    y_i' = A(t) y_i + B_i(t),     y_i(0) = 0,  i = 1..k (at eps = 0),

and one private builder, ``_Plan``, assembles its right-hand side from the
packed entries of the compiled derivative stacks.  The public entry points
only choose the cut:

* ``integrate_unperturbed`` - x at eps = 0;
* ``fundamental_matrix``    - x and Y at eps = 0;
* ``integrate_full``        - x at any eps, optionally with its own Y (used
  by the displacement Jacobian);
* ``averaging.y_functions`` - x, Y and y_1..y_k, given a table of B_i terms.

The actual stepping is delegated to scipy's explicit Runge-Kutta DOP853 with
dense output; tolerances default to 1e-10/1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.integrate
from scipy.integrate import solve_ivp

from .tensor import _apply_tables

__all__ = ["IntegratorConfig", "DenseTrajectory", "IntegrationError",
           "integrate_unperturbed", "fundamental_matrix", "integrate_full"]


class IntegrationError(RuntimeError):
    """Integration failed: blow-up, step exhaustion or solver breakdown."""

    def __init__(self, message, t_fail=None):
        super().__init__(message)
        self.t_fail = t_fail


@dataclass(frozen=True)
class IntegratorConfig:
    """Runge-Kutta settings; ``method`` must be an explicit RK of order >= 5
    with dense output (DOP853 or RK45).  ``max_steps`` bounds the work: an
    integration stops with ``IntegrationError`` as soon as its RHS
    evaluations exceed what that many steps can use."""

    method: str = "DOP853"
    rtol: float = 1e-10
    atol: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.method not in ("DOP853", "RK45"):
            raise ValueError("method must be DOP853 or RK45")

    def tighter(self, factor):
        return replace(self, rtol=self.rtol * factor, atol=self.atol * factor)


@dataclass
class DenseTrajectory:
    """Dense solution over [0, T], optionally with the fundamental matrix.

    ``x(t)`` interpolates the state; when the variational block was
    integrated, ``Y(t)`` interpolates the fundamental matrix normalised to
    the identity at t = 0.
    """

    z: np.ndarray
    period: float
    config: IntegratorConfig
    _sol: object
    dim: int
    has_Y: bool = False
    extra: int = 0                      # trailing augmented components
    periodicity_defect: float = field(default=np.nan)
    error_estimate: float = field(default=np.nan)

    def x(self, t):
        return self._sol(t)[: self.dim]

    def Y(self, t):
        if not self.has_Y:
            raise ValueError("trajectory carries no fundamental matrix")
        n = self.dim
        flat = self._sol(t)[n:n + n * n]
        return flat.reshape(n, n)

    def augmented(self, t):
        """Full augmented state vector at time t."""
        return self._sol(t)

    @property
    def xT(self):
        return self.x(self.period)

    @property
    def YT(self):
        return self.Y(self.period)


def _rhs_budget(config, dense):
    """Most RHS evaluations ``config.max_steps`` steps of the method can use:
    two to start (the initial slope and the initial-step probe), then per
    step the method's stages plus, with dense output, its extra
    interpolation stages (DOP853: 12 + 3)."""
    method = getattr(scipy.integrate, config.method)
    per_step = method.n_stages
    if dense:
        per_step += len(getattr(method, "A_EXTRA", ()))
    return 2 + config.max_steps * per_step


def _run_solver(rhs, y0, period, config, dense=True):
    budget = _rhs_budget(config, dense)
    calls = 0

    def counted(t, u):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise IntegrationError(
                f"step budget exceeded ({config.max_steps} steps allow "
                f"{budget} RHS evaluations)", t_fail=t)
        return rhs(t, u)

    sol = solve_ivp(counted, (0.0, period), y0, method=config.method,
                    rtol=config.rtol, atol=config.atol, dense_output=dense)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}",
                               t_fail=sol.t[-1] if sol.t.size else 0.0)
    if sol.t.size > config.max_steps:
        raise IntegrationError(
            f"step budget exceeded ({sol.t.size} > {config.max_steps})")
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationError("non-finite state (blow-up)", t_fail=sol.t[-1])
    return sol


def _error_estimate(config, scale):
    # order-of-magnitude bound used by downstream reports
    return 10.0 * (config.rtol * scale + config.atol)


def _packed(stack, flat, L):
    """Order-L packed entries of a compiled stack as a (rows, q) view."""
    start, rows = stack._layout[L]
    return flat[start:start + rows * stack.q].reshape(rows, stack.q)


class _Plan:
    """Right-hand side of the augmented system, fixed at build time.

    Which fields are live (eps^i != 0), which of them carry a Jacobian and
    which stacks each block reads are decided here, so the call itself only
    evaluates stacks and contracts packed entries; no tensor objects are
    built.  ``terms[i - 1]`` lists the B_i terms as (field, L, ((j, mult),
    ...), coefficient); the y_i block needs ``variational`` and eps = 0.
    """

    def __init__(self, series, eps, variational, terms):
        self.n = n = series.dim
        self.variational = variational
        self.k = k = len(terms) if terms else 0
        live = [i for i in range(1, series.order + 1) if eps ** i != 0.0]
        tops = {0: max(k, int(variational))}
        tops.update({i: int(variational) for i in live})
        tops.update({m: k - m for m in range(1, k + 1)})
        self.stacks = [series.tensor_stack(m, L) for m, L in tops.items()]
        pos = {m: s for s, m in enumerate(tops)}

        def jacobian(m):
            stack = self.stacks[pos[m]]
            return variational and not stack.order_is_zero[1]

        self.jac0 = jacobian(0)
        self.weighted = [(pos[i], eps ** i, jacobian(i)) for i in live]
        self.terms = []
        for table in terms or ():
            plan = []
            for m, L, factors, coeff in table:
                if m not in pos or self.stacks[pos[m]].order_is_zero.get(L, True):
                    continue
                start, rows = self.stacks[pos[m]]._layout[L]
                vecs = [j - 1 for j, mult in factors for _ in range(mult)]
                cols, idx = [], None
                if L:
                    tup, idx = _apply_tables(n, L)
                    cols = list(tup.T)
                plan.append((pos[m], start, rows, vecs, cols, idx, coeff))
            self.terms.append(plan)

    def rhs(self, t, u):
        n = self.n
        x = u[:n]
        flats = [np.asarray(stack.eval_all(t, x)) for stack in self.stacks]
        du = np.empty_like(u)
        dx = flats[0][:n]
        A = _packed(self.stacks[0], flats[0], 1).T if self.jac0 else None
        for s, w, jac in self.weighted:
            dx = dx + w * flats[s][:n]
            if jac:
                J = w * _packed(self.stacks[s], flats[s], 1).T
                A = J if A is None else A + J
        du[:n] = dx
        if not self.variational:
            return du
        base = n + n * n
        if A is None:
            du[n:base] = 0.0
        else:
            du[n:base] = (A @ u[n:base].reshape(n, n)).ravel()
        yvals = [u[base + j * n: base + (j + 1) * n] for j in range(self.k)]
        for i, plan in enumerate(self.terms):
            B = np.zeros(n)
            for s, start, rows, vecs, cols, idx, coeff in plan:
                entries = flats[s][start:start + rows * n].reshape(rows, n)
                if idx is None:
                    B += coeff * entries[0]
                    continue
                prods = yvals[vecs[0]][cols[0]]
                for v, col in zip(vecs[1:], cols[1:]):
                    prods = prods * yvals[v][col]
                agg = np.bincount(idx, weights=prods, minlength=rows)
                B += coeff * (agg @ entries)
            off = base + i * n
            du[off:off + n] = B if A is None else A @ yvals[i] + B
        return du


def _integrate(series, z, eps, config, variational=False, terms=None):
    """One integration of the augmented system from x(0) = z over [0, T]."""
    config = config or IntegratorConfig()
    z = np.asarray(z, dtype=float)
    plan = _Plan(series, float(eps), variational, terms)
    n = series.dim
    u0 = [z]
    if plan.variational:
        u0.append(np.eye(n).ravel())
    u0.append(np.zeros(plan.k * n))
    sol = _run_solver(plan.rhs, np.concatenate(u0), series.period, config)
    traj = DenseTrajectory(z=z, period=series.period, config=config,
                           _sol=sol.sol, dim=n, has_Y=plan.variational,
                           extra=plan.k * n)
    traj.periodicity_defect = float(np.linalg.norm(traj.xT - z))
    traj.error_estimate = _error_estimate(config, float(np.max(np.abs(sol.y))))
    return traj


def integrate_unperturbed(series, z, config=None):
    """Integrate x' = F_0(t, x) from z over one period with dense output."""
    return _integrate(series, z, 0.0, config)


def fundamental_matrix(series, traj_or_z, config=None):
    """Integrate x and the variational matrix Y jointly; Y(0) = Id.

    Accepts either an initial condition or an existing trajectory (whose
    initial condition is reused); returns a new DenseTrajectory carrying Y.
    """
    z = traj_or_z.z if isinstance(traj_or_z, DenseTrajectory) else traj_or_z
    return _integrate(series, z, 0.0, config, variational=True)


def liouville_defect(series, traj, n_nodes=200):
    """|log det Y(T) - integral of trace dF_0/dx along the orbit|.

    Quadrature of the trace against the dense interpolant; a cheap
    independent consistency check on the variational integration.
    """
    stack = series.tensor_stack(0, 1)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = series.period / 2.0
    ts = half * (nodes + 1.0)
    total = 0.0
    for t, wgt in zip(ts, weights):
        flat = np.asarray(stack.eval_all(t, traj.x(t)))
        total += wgt * np.trace(_packed(stack, flat, 1))
    total *= half
    sign, logdet = np.linalg.slogdet(traj.YT)
    if sign <= 0:
        raise IntegrationError("fundamental matrix lost orientation")
    return abs(logdet - total)


def integrate_full(series, z, eps, config=None, variational=False):
    """Integrate the full system x' = sum_i eps^i F_i(t, x) over one period.

    With ``variational=True`` the fundamental matrix of the *full* field is
    integrated alongside (initialised to the identity), which gives the
    displacement Jacobian downstream.
    """
    return _integrate(series, z, eps, config, variational)
