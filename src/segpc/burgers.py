"""Steady 2D viscous Burgers flow with an uncertain inlet profile.

Direct problem on the unit square, uniform N x N grid, second-order central
differences:

    u u_x + v u_y = (u_xx + u_yy) / Re
    u v_x + v v_y = (v_xx + v_yy) / Re

Boundary conditions: no-slip walls at y = 0 and y = 1; at the inlet x = 0 the
streamwise velocity is a polynomial u(0, y) = sum_i s_i y^i of degree m + 1
whose free coefficients s_1 .. s_m are the uncertain inputs (s_0 = 0 and
s_{m+1} = -sum s_i close the wall corners), and v(0, y) = -y^3 + y^2; at the
exit x = 1 both velocity components satisfy du/dx = dv/dx = 0, discretized
with second-order one-sided differences.

The nonlinear system is driven below a 1e-10 max-norm residual by damped
Newton iterations.  A cold solve starts from the inlet profile copied through
the domain and takes a few Picard (frozen-coefficient) steps first; a warm
solve starts from a given converged state with the sample's inlet written in
and goes straight to Newton.  :class:`BurgersModel` warm-starts every sample
from its own nominal state.  All linear systems use a sparse direct
factorization.

The QoI is the exit kinetic-energy integral k_e = 1/2 int (u^2 + v^2) dy at
x = 1.  Its gradient with respect to the inlet coefficients comes from the
continuous adjoint system

    u+ v_y + u u+_x + v u+_y + (1/Re) lap(u+) = v+ v_x
    v+ u_x + u v+_x + v v+_y + (1/Re) lap(v+) = u+ u_y

with homogeneous Dirichlet conditions at the inlet and walls and Robin exit
conditions  u+ u + (1/Re) du+/dx + u = 0  and  v+ u + (1/Re) dv+/dx + v = 0,
solved as one sparse linear system (one adjoint solve yields all m
sensitivities).  The advective terms are differenced in the equivalent
conservative form (u u+)_x + (v u+)_y - u_x u+, which stays consistent with
the direct stencils inside thin near-inlet layers where the expanded form
degrades.  The raw sensitivity of k_e to a monomial inlet perturbation y^i is

    g_i = - int (u+ + v+) u y^i dy - (1/Re) int du+/dx y^i dy   (at x = 0)

and the reported gradient is the total derivative g_i - g_{m+1}, which
accounts for the dependence of the corner-closing coefficient s_{m+1} on
every free coefficient.  Because u+ vanishes on the inlet, the diffusive term
(1/Re) du+/dx equals the conserved adjoint momentum flux u u+ + (1/Re) du+/dx
there; the integrand is evaluated through that flux one stencil step inside
the boundary, where it is resolved even when the inlet layer is thinner than
a cell.  Being a continuous adjoint, the gradient carries a discretization
mismatch against finite differences of the discrete solver that vanishes
under grid refinement.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import AdjointSolveError, SolverDivergenceError
from .models import Model, ModelEvaluation
from .spaces import Gaussian, StochasticSpace

#: fill-reducing column ordering for every sparse LU factorization here
PERMC_SPEC = "MMD_AT_PLUS_A"

#: inlet-coefficient means of the reference 10-parameter configuration
NOMINAL_INLET_COEFFS = np.array(
    [-0.5, -0.1, 0.1, 0.01, -0.25, 0.15, 0.15, -0.1, 0.01, -0.25]
)


@dataclass
class BurgersState:
    """Converged direct solution on the N x N grid."""

    u: np.ndarray
    v: np.ndarray
    re: float
    s_full: np.ndarray
    n_grid: int
    residual_norm: float
    iterations: int
    residual_history: np.ndarray

    @property
    def h(self):
        return 1.0 / (self.n_grid - 1)

    @property
    def y(self):
        return np.linspace(0.0, 1.0, self.n_grid)

    def save_csv(self, path):
        """Write the velocity fields as x,y,u,v rows for visualization."""
        coords = self.y
        lines = ["# segpc burgers-fields-csv v1", "x,y,u,v"]
        for i in range(self.n_grid):
            for j in range(self.n_grid):
                lines.append(
                    f"{float(coords[i])!r},{float(coords[j])!r},"
                    f"{float(self.u[i, j])!r},{float(self.v[i, j])!r}"
                )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class AdjointSolution:
    """Adjoint fields and the total QoI gradient w.r.t. the free coefficients."""

    u_adj: np.ndarray
    v_adj: np.ndarray
    gradient: np.ndarray
    raw_integrals: np.ndarray


def full_inlet_coeffs(s_free):
    """Extend free coefficients with the corner-closure values s_0 and s_{m+1}."""
    s_free = np.asarray(s_free, dtype=float)
    return np.concatenate(([0.0], s_free, [-float(np.sum(s_free))]))


def inlet_u_profile(s_full, y):
    """Evaluate the inlet polynomial sum_i s_i y^i."""
    return np.polynomial.polynomial.polyval(y, s_full)


def inlet_v_profile(y):
    return -(y**3) + y**2


def _residual(u, v, nu, h, u_in, v_in):
    n = u.shape[0]
    r_u = np.empty_like(u)
    r_v = np.empty_like(v)
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    uc = u[1:-1, 1:-1]
    vc = v[1:-1, 1:-1]
    r_u[1:-1, 1:-1] = (
        uc * (u[2:, 1:-1] - u[:-2, 1:-1]) * inv2h
        + vc * (u[1:-1, 2:] - u[1:-1, :-2]) * inv2h
        - nu
        * (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * uc)
        * invh2
    )
    r_v[1:-1, 1:-1] = (
        uc * (v[2:, 1:-1] - v[:-2, 1:-1]) * inv2h
        + vc * (v[1:-1, 2:] - v[1:-1, :-2]) * inv2h
        - nu
        * (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2] - 4.0 * vc)
        * invh2
    )
    # walls, inlet, exit overwrite the frame
    r_u[:, 0] = u[:, 0]
    r_u[:, -1] = u[:, -1]
    r_v[:, 0] = v[:, 0]
    r_v[:, -1] = v[:, -1]
    r_u[0, 1:-1] = u[0, 1:-1] - u_in[1:-1]
    r_v[0, 1:-1] = v[0, 1:-1] - v_in[1:-1]
    r_u[-1, 1:-1] = (3.0 * u[-1, 1:-1] - 4.0 * u[-2, 1:-1] + u[-3, 1:-1]) * inv2h
    r_v[-1, 1:-1] = (3.0 * v[-1, 1:-1] - 4.0 * v[-2, 1:-1] + v[-3, 1:-1]) * inv2h
    return np.concatenate([r_u.ravel(), r_v.ravel()])


def _grid_indices(n):
    ii, jj = np.meshgrid(np.arange(1, n - 1), np.arange(1, n - 1), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()

    def idx(i, j):
        return i * n + j

    return ii, jj, idx


def _direct_jacobian(u, v, nu, h, newton):
    n = u.shape[0]
    size = n * n
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    ii, jj, idx = _grid_indices(n)
    uc = u[ii, jj]
    vc = v[ii, jj]
    rows, cols, data = [], [], []

    def add(r, c, d):
        rows.append(r)
        cols.append(c)
        data.append(d)

    center = idx(ii, jj)
    east, west = idx(ii + 1, jj), idx(ii - 1, jj)
    north, south = idx(ii, jj + 1), idx(ii, jj - 1)

    u_x = (u[ii + 1, jj] - u[ii - 1, jj]) * inv2h
    u_y = (u[ii, jj + 1] - u[ii, jj - 1]) * inv2h
    v_x = (v[ii + 1, jj] - v[ii - 1, jj]) * inv2h
    v_y = (v[ii, jj + 1] - v[ii, jj - 1]) * inv2h
    # u-momentum: d/du_P carries u_x, coupling to v_P carries u_y (and
    # symmetrically for v-momentum); dropped in the Picard linearization
    for offset, diag_extra, cross in ((0, u_x, u_y), (size, v_y, v_x)):
        diag = np.full(ii.shape, 4.0 * nu * invh2)
        if newton:
            diag = diag + diag_extra
        add(offset + center, offset + center, diag)
        add(offset + center, offset + east, uc * inv2h - nu * invh2)
        add(offset + center, offset + west, -uc * inv2h - nu * invh2)
        add(offset + center, offset + north, vc * inv2h - nu * invh2)
        add(offset + center, offset + south, -vc * inv2h - nu * invh2)
        if newton:
            add(offset + center, (size - offset) + center, cross)

    j_edge = np.arange(1, n - 1)
    exit_c = idx(n - 1, j_edge)
    exit_w = idx(n - 2, j_edge)
    exit_ww = idx(n - 3, j_edge)
    for offset in (0, size):
        add(offset + exit_c, offset + exit_c, np.full(j_edge.shape, 3.0 * inv2h))
        add(offset + exit_c, offset + exit_w, np.full(j_edge.shape, -4.0 * inv2h))
        add(offset + exit_c, offset + exit_ww, np.full(j_edge.shape, inv2h))

    dirichlet = np.concatenate(
        [
            idx(np.arange(n), 0),
            idx(np.arange(n), n - 1),
            idx(np.zeros(n - 2, dtype=int), j_edge),
        ]
    )
    for offset in (0, size):
        add(offset + dirichlet, offset + dirichlet, np.ones(dirichlet.shape))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    return scipy.sparse.csc_matrix((data, (rows, cols)), shape=(2 * size, 2 * size))


def burgers_solve(
    s_free,
    re=250.0,
    n_grid=31,
    tol=1e-10,
    max_iter=60,
    picard_iters=3,
    start=None,
):
    """Solve the direct problem for the given free inlet coefficients.

    ``start`` is an optional :class:`BurgersState` on the same grid and
    Reynolds number; the iteration then starts from its fields with this
    inlet profile written in (pass ``picard_iters=0`` for pure Newton).

    Raises :class:`SolverDivergenceError` if the damped iteration cannot reach
    the residual tolerance.
    """
    if n_grid < 5:
        raise ValueError(f"grid must have at least 5 nodes per side, got {n_grid}")
    if re <= 0:
        raise ValueError(f"Reynolds number must be positive, got {re}")
    n = int(n_grid)
    nu = 1.0 / float(re)
    h = 1.0 / (n - 1)
    y = np.linspace(0.0, 1.0, n)
    s_full = full_inlet_coeffs(s_free)
    u_in = inlet_u_profile(s_full, y)
    v_in = inlet_v_profile(y)

    if start is None:
        u = np.tile(u_in, (n, 1))
        v = np.tile(v_in, (n, 1))
        u[:, 0] = 0.0
        u[:, -1] = 0.0
        v[:, 0] = 0.0
        v[:, -1] = 0.0
    else:
        if start.n_grid != n or start.re != float(re):
            raise ValueError(
                f"start state is for N={start.n_grid}, Re={start.re}; "
                f"this solve is for N={n}, Re={float(re)}"
            )
        u = start.u.copy()
        v = start.v.copy()
        u[0, 1:-1] = u_in[1:-1]

    res = _residual(u, v, nu, h, u_in, v_in)
    res_norm = float(np.max(np.abs(res)))
    history = [res_norm]
    for iteration in range(max_iter):
        if res_norm <= tol:
            break
        newton = iteration >= picard_iters
        jac = _direct_jacobian(u, v, nu, h, newton=newton)
        try:
            delta = scipy.sparse.linalg.splu(jac, permc_spec=PERMC_SPEC).solve(-res)
        except RuntimeError as exc:
            raise SolverDivergenceError(
                f"linearized system factorization failed: {exc}",
                residual=res_norm,
                iterations=iteration,
            ) from exc
        du = delta[: n * n].reshape(n, n)
        dv = delta[n * n :].reshape(n, n)
        step = 1.0
        for _ in range(12):
            u_try = u + step * du
            v_try = v + step * dv
            res_try = _residual(u_try, v_try, nu, h, u_in, v_in)
            norm_try = float(np.max(np.abs(res_try)))
            if norm_try < res_norm or step < 1e-3:
                break
            step *= 0.5
        u, v, res, res_norm = u_try, v_try, res_try, norm_try
        history.append(res_norm)
        if not np.isfinite(res_norm) or res_norm > 1e12:
            raise SolverDivergenceError(
                f"solve diverged at iteration {iteration + 1} "
                f"(residual {res_norm:.3e})",
                residual=res_norm,
                iterations=iteration + 1,
            )
    else:
        raise SolverDivergenceError(
            f"no convergence after {max_iter} iterations "
            f"(residual {res_norm:.3e}, tolerance {tol:.1e})",
            residual=res_norm,
            iterations=max_iter,
        )
    return BurgersState(
        u=u,
        v=v,
        re=float(re),
        s_full=s_full,
        n_grid=n,
        residual_norm=res_norm,
        iterations=len(history) - 1,
        residual_history=np.array(history),
    )


def burgers_qoi(state):
    """Exit kinetic-energy integral, trapezoidal along x = 1."""
    energy = 0.5 * (state.u[-1, :] ** 2 + state.v[-1, :] ** 2)
    return float(np.trapezoid(energy, dx=state.h))


def burgers_adjoint(state):
    """Solve the continuous adjoint system and integrate the sensitivities.

    Returns the adjoint fields and the total gradient dk_e/ds_i for the m
    free inlet coefficients (the corner-closure pathway through s_{m+1} is
    included).
    """
    n = state.n_grid
    size = n * n
    nu = 1.0 / state.re
    h = state.h
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    u, v = state.u, state.v
    ii, jj, idx = _grid_indices(n)
    uc = u[ii, jj]
    vc = v[ii, jj]
    u_x = (u[ii + 1, jj] - u[ii - 1, jj]) * inv2h
    u_y = (u[ii, jj + 1] - u[ii, jj - 1]) * inv2h
    v_x = (v[ii + 1, jj] - v[ii - 1, jj]) * inv2h
    v_y = (v[ii, jj + 1] - v[ii, jj - 1]) * inv2h

    rows, cols, data = [], [], []

    def add(r, c, d):
        rows.append(r)
        cols.append(c)
        data.append(d)

    center = idx(ii, jj)
    east, west = idx(ii + 1, jj), idx(ii - 1, jj)
    north, south = idx(ii, jj + 1), idx(ii, jj - 1)

    # interior adjoint momentum rows in conservative form, +nu Laplacian:
    # (u a)_x + (v a)_y - diag_term * a + nu lap(a) = cross_term * b
    u_east, u_west = u[ii + 1, jj], u[ii - 1, jj]
    v_north, v_south = v[ii, jj + 1], v[ii, jj - 1]
    for offset, diag_term, cross_term in ((0, u_x, -v_x), (size, v_y, -u_y)):
        add(offset + center, offset + center, -diag_term - 4.0 * nu * invh2)
        add(offset + center, offset + east, u_east * inv2h + nu * invh2)
        add(offset + center, offset + west, -u_west * inv2h + nu * invh2)
        add(offset + center, offset + north, v_north * inv2h + nu * invh2)
        add(offset + center, offset + south, -v_south * inv2h + nu * invh2)
        add(offset + center, (size - offset) + center, cross_term)

    rhs = np.zeros(2 * size)
    j_edge = np.arange(1, n - 1)
    exit_c = idx(n - 1, j_edge)
    exit_w = idx(n - 2, j_edge)
    exit_ww = idx(n - 3, j_edge)
    u_exit = u[-1, 1:-1]
    for offset, trace in ((0, u[-1, 1:-1]), (size, v[-1, 1:-1])):
        add(offset + exit_c, offset + exit_c, u_exit + 3.0 * nu * inv2h)
        add(offset + exit_c, offset + exit_w, np.full(j_edge.shape, -4.0 * nu * inv2h))
        add(offset + exit_c, offset + exit_ww, np.full(j_edge.shape, nu * inv2h))
        rhs[offset + exit_c] = -trace

    dirichlet = np.concatenate(
        [
            idx(np.arange(n), 0),
            idx(np.arange(n), n - 1),
            idx(np.zeros(n - 2, dtype=int), j_edge),
        ]
    )
    for offset in (0, size):
        add(offset + dirichlet, offset + dirichlet, np.ones(dirichlet.shape))

    matrix = scipy.sparse.csc_matrix(
        (
            np.concatenate([np.asarray(d, dtype=float) for d in data]),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(2 * size, 2 * size),
    )
    try:
        solution = scipy.sparse.linalg.splu(matrix, permc_spec=PERMC_SPEC).solve(rhs)
    except RuntimeError as exc:
        raise AdjointSolveError(f"adjoint factorization failed: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise AdjointSolveError("adjoint solve produced non-finite values")
    u_adj = solution[:size].reshape(n, n)
    v_adj = solution[size:].reshape(n, n)

    y = state.y
    m_free = state.s_full.shape[0] - 2
    # (1/Re) du+/dx at the inlet equals the adjoint momentum flux
    # u u+ + (1/Re) du+/dx there (u+ vanishes on x = 0); evaluate that flux
    # one stencil step inside, where the direct stencil supplies it as
    # u+(x1) (u(x1)/2 + nu/h)
    diffusive_flux = u_adj[1, :] * (0.5 * u[1, :] + nu / h)
    boundary_part = -(u_adj[0, :] + v_adj[0, :]) * u[0, :]
    raw = np.empty(m_free + 1)
    for power in range(1, m_free + 2):
        integrand = (boundary_part - diffusive_flux) * y**power
        raw[power - 1] = float(np.trapezoid(integrand, dx=h))
    gradient = raw[:m_free] - raw[m_free]
    return AdjointSolution(
        u_adj=u_adj, v_adj=v_adj, gradient=gradient, raw_integrals=raw
    )


@contextmanager
def _located(xi):
    """Re-raise a solver failure with the standardized point in its message."""
    try:
        yield
    except (SolverDivergenceError, AdjointSolveError) as exc:
        where = ", ".join(f"{x:.6g}" for x in np.atleast_1d(xi))
        message = f"{exc} at standardized point [{where}]"
        if isinstance(exc, SolverDivergenceError):
            raise SolverDivergenceError(
                message, residual=exc.residual, iterations=exc.iterations
            ) from exc
        raise AdjointSolveError(message) from exc


class BurgersModel(Model):
    """Exit kinetic energy of the Burgers flow as a function of the inlet.

    The free inlet coefficients are independent Gaussians with the given
    means and standard deviations (default std = |mean| / 5).  The flow at
    the mean inlet is solved cold once, at construction; every evaluation
    warm-starts Newton from that state, so results do not depend on the
    order or the process in which points are evaluated.
    """

    name = "burgers"
    has_gradient = True

    def __init__(self, s_mean=None, s_std=None, re=250.0, n_grid=31):
        s_mean = (
            NOMINAL_INLET_COEFFS.copy() if s_mean is None else np.asarray(s_mean, float)
        )
        if s_std is None:
            s_std = np.abs(s_mean) / 5.0
        else:
            s_std = np.asarray(s_std, dtype=float)
        if np.any(s_std <= 0):
            raise ValueError("all inlet-coefficient standard deviations must be > 0")
        super().__init__(
            StochasticSpace(
                [Gaussian(mean=mu, std=sd) for mu, sd in zip(s_mean, s_std)]
            )
        )
        self.s_mean = s_mean
        self.s_std = s_std
        self.re = float(re)
        self.n_grid = int(n_grid)
        self._nominal = burgers_solve(self.s_mean, re=self.re, n_grid=self.n_grid)

    def _solve(self, xi):
        return burgers_solve(
            self.space.destandardize(np.asarray(xi, dtype=float)),
            re=self.re,
            n_grid=self.n_grid,
            start=self._nominal,
            picard_iters=0,
        )

    def value(self, xi):
        with _located(xi):
            return burgers_qoi(self._solve(xi))

    def value_and_grad(self, xi):
        with _located(xi):
            state = self._solve(xi)
            adjoint = burgers_adjoint(state)
        grad = adjoint.gradient * self.space.scales
        return ModelEvaluation(value=burgers_qoi(state), gradient=grad)


def burgers_model(s_mean=None, s_std=None, re=250.0, n_grid=31):
    """Burgers inlet-uncertainty model (defaults: the 10-coefficient case)."""
    return BurgersModel(s_mean=s_mean, s_std=s_std, re=re, n_grid=n_grid)
