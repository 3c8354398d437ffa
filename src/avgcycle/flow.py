"""Every integration over one period [0, T], built from one right-hand side.

The unperturbed flow, its fundamental matrix, the full perturbed flow and
the y_i hierarchy behind the averaged functions are all cuts of one
augmented system

    x' = sum_i eps^i F_i(t, x),
    Y' = A(t) Y,                  Y(0) = Id,   A = sum_i eps^i dF_i/dx,
    y_i' = A(t) y_i + B_i(t),     y_i(0) = 0,  i = 1..k (at eps = 0),

and one private builder, ``_Plan``, turns the chosen cut into a single
generated Python function.  The derivative entries of the fields' tensor
stacks, the sums over eps^i, the products A Y and A y_i and the B_i
contractions all become one straight-line function, compiled by
``expr.compile_stack``, so a subexpression shared between fields is computed
once per call.  Each call runs on Python floats and wraps its result in one
array.  The function is cached on the series by the live fields, the
variational flag, the B_i term table and the parameter values; eps enters as
an argument.  A field that leaves its domain raises on Python floats
(division by zero, overflow in ``**``, a ``math`` domain error), and
``_run_solver`` reports that as ``IntegrationError`` at the failing time.

The public entry points only choose the cut:

* ``integrate_unperturbed`` - x at eps = 0;
* ``fundamental_matrix``    - x and Y at eps = 0;
* ``integrate_full``        - x at any eps, optionally with its own Y (used
  by the displacement Jacobian);
* ``averaging.y_functions`` - x, Y and y_1..y_k, given a table of B_i terms.

The actual stepping is delegated to scipy's explicit Runge-Kutta DOP853 with
dense output; tolerances default to 1e-10/1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product

import numpy as np
import scipy.integrate
from scipy.integrate import solve_ivp

from .expr import Num, Var, compile_stack, mk_add, mk_mul
from .tensor import packed_index_table

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
        try:
            return rhs(t, u)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise IntegrationError(
                f"right-hand side left its domain at t = {t:.6g} ({exc})",
                t_fail=t) from exc

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


def _total(nodes):
    """Left-to-right sum of expression nodes; structural zeros drop out."""
    return reduce(mk_add, nodes, Num(0.0))


def _rhs_nodes(series, live, variational, terms):
    """Expressions of the augmented right-hand side, one per state slot.

    The state slots are ``Var`` leaves indexed into one flat list laid out
    as x, Y (row-major), y_1..y_k, followed by the weights eps^i of the live
    fields; derivative entries come straight from the fields' tensor stacks.
    """
    n = series.dim
    k = len(terms)
    tops = {0: max(k, int(variational))}
    tops.update({i: int(variational) for i in live})
    tops.update({m: k - m for m in range(1, k + 1)})
    stacks = {m: series.tensor_stack(m, top) for m, top in tops.items()}

    def entry(m, L, row, c):
        start, _ = stacks[m]._layout[L]
        return stacks[m].entries[start + row * n + c]

    size = n + (n * n + k * n if variational else 0)
    slot = [Var(f"u{j}", "state", j) for j in range(size + len(live))]
    weights = list(zip(live, slot[size:]))
    out = [_total([entry(0, 0, 0, c)]
                  + [mk_mul(w, entry(i, 0, 0, c)) for i, w in weights])
           for c in range(n)]
    if not variational:
        return out
    # A = dF_0/dx + sum_i eps^i dF_i/dx, entry A[r][j] = dF_r/dx_j
    A = [[_total([entry(0, 1, j, r)]
                 + [mk_mul(w, entry(i, 1, j, r)) for i, w in weights])
          for j in range(n)] for r in range(n)]
    Y = slot[n:n + n * n]
    out += [_total(mk_mul(A[r][j], Y[j * n + c]) for j in range(n))
            for r in range(n) for c in range(n)]
    y = [slot[n + n * n + i * n:n + n * n + (i + 1) * n] for i in range(k)]
    for i, table in enumerate(terms):
        B = [[] for _ in range(n)]
        for m, L, factors, coeff in table:
            if m not in stacks or stacks[m].order_is_zero.get(L, True):
                continue
            # sum over all index tuples of the y-factor products, collected
            # per packed row; equal products are counted, not repeated
            vecs = [j - 1 for j, mult in factors for _ in range(mult)]
            packed = {e: r for r, e in enumerate(packed_index_table(n, L))}
            rows = {}
            for tup in product(range(n), repeat=L):
                key = tuple(sorted(zip(vecs, tup)))
                group = rows.setdefault(packed[tuple(sorted(tup))], {})
                group[key] = group.get(key, 0) + 1
            agg = {r: _total(mk_mul(Num(float(count)),
                                    reduce(mk_mul, (y[j][a] for j, a in key),
                                           Num(1.0)))
                             for key, count in group.items())
                   for r, group in rows.items()}
            for c in range(n):
                B[c].append(mk_mul(Num(float(coeff)), _total(
                    mk_mul(agg_r, entry(m, L, r, c)) for r, agg_r in agg.items())))
        out += [_total([mk_mul(A[r][j], y[i][j]) for j in range(n)] + B[r])
                for r in range(n)]
    return out


class _Plan:
    """Right-hand side of the augmented system as one generated function.

    Which fields are live (eps^i != 0), whether the fundamental matrix Y is
    carried, and the B_i term table are fixed when the plan is built.
    ``terms[i - 1]`` lists the B_i terms as (field, L, ((j, mult), ...),
    coefficient); the y_i block needs ``variational`` and eps = 0.  The
    whole right-hand side, x' = F_0 + sum_i eps^i F_i, Y' = A Y and
    y_i' = A y_i + B_i, is compiled by ``expr.compile_stack`` into one
    straight-line function, so every subexpression shared between fields,
    ``sin(t)`` and ``cos(t)`` included, is computed once per call.

    The function is cached on the series, keyed by the live fields,
    ``variational``, the term table and the parameter values; the weights
    eps^i are passed as trailing state slots, so every nonzero eps shares
    one function and an in-place edit of ``series.params`` compiles afresh.
    A call runs on Python floats (``u.tolist()``) and wraps the result in
    one array; where the field leaves its domain it raises
    ``ZeroDivisionError``, ``OverflowError`` or ``ValueError``, which
    ``_run_solver`` reports as ``IntegrationError``.
    """

    def __init__(self, series, eps, variational, terms):
        self.variational = variational
        terms = tuple(tuple(table) for table in terms or ())
        self.k = len(terms)
        live = tuple(i for i in range(1, series.order + 1) if eps ** i != 0.0)
        self.weights = [eps ** i for i in live]
        key = (live, variational, terms, series.param_tuple)
        self.fn = series._rhs_fns.get(key)
        if self.fn is None:
            nodes = _rhs_nodes(series, live, variational, terms)
            self.fn = series._rhs_fns[key] = compile_stack(nodes, series.param_tuple)

    def rhs(self, t, u):
        return np.array(self.fn(float(t), u.tolist() + self.weights))


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
    start, _ = stack._layout[1]
    n = series.dim
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = series.period / 2.0
    ts = half * (nodes + 1.0)
    total = 0.0
    for t, wgt in zip(ts, weights):
        flat = stack.eval_all(float(t), traj.x(t).tolist())
        total += wgt * sum(flat[start + j * (n + 1)] for j in range(n))
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
