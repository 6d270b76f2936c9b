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

The discrete residual is the frozen-coefficient (Picard) operator applied to
the stacked state minus the inlet data, F(x) = A_P(x) x - b.  A_P, the Newton
Jacobian and the adjoint operator below differ only in their coefficients:
they share one sparsity pattern, which states the node numbering and the
wall, inlet and exit rows once and is built once per grid size.

The nonlinear system is driven below a 1e-10 max-norm residual.  A cold
solve starts from the inlet profile copied through the domain, takes a few
Picard (frozen-coefficient) steps and then damped Newton steps, each on a
fresh sparse LU factorization.  A warm solve starts from a given converged
state with the sample's inlet written in and takes chord steps
x <- x - J0^{-1} F(x), where J0 is the Newton Jacobian at that state, factored
once on first use and cached on it: each step costs one residual and one
pair of triangular solves.  Warm solves of many samples step together, as a
stack of states: each chord step makes one triangular solve with a
right-hand side per sample still stepping and one residual of the whole
stack, and a sample leaves the stack once it converges.  SuperLU solves each
right-hand side column as it would solve it alone, and the stacked residual
adds every row's terms in the same order, so a sample gets the same bits in
a stack as alone.  A chord step that leaves more than
:data:`CHORD_CONTRACTION` times the sample's previous residual restarts that
sample alone from the start state with damped Newton, logged at DEBUG on the
``segpc.burgers`` logger.  :class:`BurgersModel` warm-starts every sample
from its own nominal state, so it factors one Jacobian per process.

The model's adjoint systems below are solved the same way: by refinement
lambda <- lambda + L0^{-1} (r - A lambda) on the LU L0 of the adjoint
operator at the nominal state, factored once per process and cached on it.
The adjoints of many states refine together, as a stack: each sweep makes one
triangular solve with a right-hand side per state still refining and one
product with the block-diagonal matrix of their own operators, and each state
stops at its own tolerance.  A state whose sweep fails the same contraction
test factors its own operator, as ``burgers_adjoint`` does for any state,
with the same DEBUG line.

Every :class:`BurgersModel` evaluation takes :data:`VALUES_BLOCK` samples at
a time: the block's direct solves step together, then its adjoints;
:meth:`BurgersModel.value_and_grad` is a block of one.  At 21 x 21 a value
in a block of 32 costs about a third of a value alone, and a value and
gradient in a block of 11 about half of one alone:
~0.38 ms against ~1.08 ms, and ~1.15 ms against ~2.4 ms (medians of 21
rounds on a shared 2-vCPU Xeon host, one BLAS thread; the quartiles lie
within 20% of each median).  A chord step of 16 samples spends ~0.21 ms in
the triangular solves, ~0.14 ms in the stacked residual and ~0.05 ms in the
rest of the step.

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

import copy
import functools
import logging
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import AdjointSolveError, ModelSolveError, SolverDivergenceError
from .models import Model, ModelEvaluation
from .spaces import Gaussian, StochasticSpace

#: fill-reducing column ordering for every sparse LU factorization here
PERMC_SPEC = "MMD_AT_PLUS_A"

#: a direct solve stops once its max-norm residual is at most this
RESIDUAL_TOL = 1e-10

#: most Newton steps of a direct solve, and most chord steps of a warm one
MAX_ITER = 60

#: samples :meth:`BurgersModel.values` takes chord steps for together; at
#: 21 x 21, one BLAS thread, 512 samples took ~0.35 ms each in blocks of 32
#: or 64 and ~0.39 ms in blocks of 16 or 128 (medians of 21 rounds, quartiles
#: within 0.04 ms)
VALUES_BLOCK = 32

#: a warm solve's chord step, or a refinement sweep of the adjoint, must cut
#: the max-norm residual below this fraction of the previous one; otherwise
#: the solve falls back to Newton, the adjoint to a fresh LU
CHORD_CONTRACTION = 0.7

#: a refined adjoint stops once its max-norm residual is below this fraction
#: of the right-hand side's; a fresh LU leaves ~1e-13 of it at N = 21
ADJOINT_RTOL = 2e-13

#: most refinement sweeps of one adjoint solve; 30 sweeps cost about one
#: fresh factorization and solve
ADJOINT_MAX_SWEEPS = 30

_log = logging.getLogger(__name__)

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
    #: LU factorizations this solve made
    factorizations: int = 0
    # LUs of the Newton Jacobian and of the adjoint operator at this state,
    # built by the first direct or adjoint solve that starts from it
    _chord_lu: object = field(default=None, init=False, repr=False, compare=False)
    _adjoint_lu: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # SuperLU objects do not pickle; each process factors its own copy
        return {**self.__dict__, "_chord_lu": None, "_adjoint_lu": None}

    @property
    def h(self):
        return 1.0 / (self.n_grid - 1)

    @property
    def y(self):
        return np.linspace(0.0, 1.0, self.n_grid)


@dataclass
class AdjointSolution:
    """Adjoint fields and the total QoI gradient w.r.t. the free coefficients."""

    u_adj: np.ndarray
    v_adj: np.ndarray
    gradient: np.ndarray


def full_inlet_coeffs(s_free):
    """Extend free coefficients (..., m) with the corner-closure values s_0 and s_{m+1}."""
    s_free = np.asarray(s_free, dtype=float)
    s_0 = np.zeros((*s_free.shape[:-1], 1))
    return np.concatenate((s_0, s_free, -s_free.sum(axis=-1, keepdims=True)), axis=-1)


def inlet_u_profile(s_full, y):
    """Evaluate the inlet polynomial sum_i s_i y^i."""
    return np.polynomial.polynomial.polyval(y, s_full)


def inlet_v_profile(y):
    return -(y**3) + y**2


@functools.lru_cache(maxsize=None)
def _stencil_pattern(n):
    """Sparsity pattern of every operator on the stacked (u, v) unknowns of the N x N grid.

    Node (i, j) of a field is row i * N + j (i along x, j along y); the u
    block comes first, the v block second.  Interior rows couple the centre,
    its east, west, north and south neighbours and the other field's centre;
    exit rows (x = 1) couple x = 1, 1 - h and 1 - 2h; wall (y = 0, 1) and
    inlet (x = 0) rows are identity rows.  ``rows`` and ``cols`` list the
    entries coefficient by coefficient, u rows before v rows, interior before
    exit before identity; ``order`` sorts them into CSC order (``indices``,
    ``indptr``).  ``position`` takes the rows of one slot of each group
    (interior, exit, identity), listed in that order, back to node order.
    Built once per grid size; the arrays are read-only because every operator
    shares them.
    """
    size = n * n
    inner = np.arange(1, n - 1)
    fields = np.array([[0], [size]])
    centre = fields + (inner[:, None] * n + inner).ravel()
    exit_c = fields + (n - 1) * n + inner
    dirichlet = fields + np.concatenate([np.arange(n) * n, np.arange(n) * n + n - 1, inner])
    # (row, column) blocks: centre, E, W, N, S and the other field's centre;
    # x = 1, 1 - h, 1 - 2h on the exit; identity
    blocks = [(centre, centre + shift) for shift in (0, n, -n, 1, -1, size - 2 * fields)]
    blocks += [(exit_c, exit_c - shift) for shift in (0, n, 2 * n)]
    blocks.append((dirichlet, dirichlet))
    rows = np.concatenate([r.ravel() for r, _ in blocks])
    cols = np.concatenate([c.ravel() for _, c in blocks])
    order = np.lexsort((rows, cols))
    pattern = SimpleNamespace(
        rows=rows,
        cols=cols,
        order=order,
        indices=rows[order].astype(np.int32),
        indptr=np.searchsorted(cols[order], np.arange(2 * size + 1)).astype(np.int32),
        position=np.argsort(np.concatenate([centre.ravel(), exit_c.ravel(), dirichlet.ravel()])),
    )
    for array in vars(pattern).values():
        array.setflags(write=False)
    return pattern


def _interior_values(x):
    """u and v around every interior node, read through :func:`_stencil_pattern`.

    ``x`` is a state (2N^2,) or a node-major stack of states (2N^2, k).  An
    array (5, 2, K), or (5, 2, K, k): the values at the centre and at the
    east, west, north and south neighbours, each for u and for v, over the K
    interior nodes in the pattern's row order.
    """
    n = math.isqrt(x.shape[0] // 2)
    cols = _stencil_pattern(n).cols[: 10 * (n - 2) ** 2]
    return x.take(cols, axis=0).reshape(5, 2, -1, *x.shape[1:])


def _stencil_data(n, interior, exit_coeffs, k=None):
    """Entries of a stencil operator in CSC order, or of ``k`` of them as rows (k, nnz).

    ``interior`` and ``exit_coeffs`` give the six interior and three exit
    coefficients in the order :func:`_stencil_pattern` lists them, each a
    scalar or an array over the interior (exit) nodes shared by the u and v
    rows, or a (u rows, v rows) pair of them; for ``k`` operators an array
    has a trailing axis over them.  Identity entries are 1.
    """
    pattern = _stencil_pattern(n)
    inner = n - 2
    stack = () if k is None else (k,)
    data = np.empty((pattern.rows.size, *stack))
    for entries, coeff in zip(data[: 12 * inner**2].reshape(6, 2, inner**2, *stack), interior):
        entries[:] = coeff
    exit_block = data[12 * inner**2 : 12 * inner**2 + 6 * inner].reshape(3, 2, inner, *stack)
    for entries, coeff in zip(exit_block, exit_coeffs):
        entries[:] = coeff
    data[12 * inner**2 + 6 * inner :] = 1.0
    return np.ascontiguousarray(data[pattern.order].T)


def _csc(n, data):
    """Sparse CSC operator on the stencil pattern with the entries ``data`` in CSC order."""
    pattern = _stencil_pattern(n)
    return scipy.sparse.csc_matrix(
        (data, pattern.indices, pattern.indptr), shape=(2 * n * n, 2 * n * n)
    )


def _block_diagonal(n, data):
    """The operators with CSC entries ``data`` (k, nnz) as one block-diagonal CSC matrix.

    Its product with k stacked states adds each row's entries in the column
    order of that row's own operator, so block j gets the bits of A_j @ x_j.
    """
    k, nnz = data.shape
    pattern, size = _stencil_pattern(n), 2 * n * n
    shift = np.arange(k, dtype=np.int32)[:, None]
    indptr = np.append((pattern.indptr[:-1] + nnz * shift).ravel(), np.int32(k * nnz))
    return scipy.sparse.csc_matrix(
        (data.ravel(), (pattern.indices + size * shift).ravel(), indptr),
        shape=(k * size, k * size),
    )


def _direct_stencil(values, nu, h, newton):
    """Coefficients of the Newton Jacobian or of the frozen-coefficient operator.

    ``values`` holds the centre, east, west, north and south values as
    :func:`_interior_values` gives them, or with a trailing axis over a stack
    of states; array coefficients take their shape past the first two axes.
    """
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    centre, east, west, north, south = values[:5]
    adv = centre * inv2h
    visc = nu * invh2
    # adv - visc for the east and north neighbours, -adv - visc for west and south
    west_south = np.negative(adv)
    west_south -= visc
    east_north = adv
    east_north -= visc
    neighbours = (east_north[0], west_south[0], east_north[1], west_south[1])
    # u-momentum: d/du_P carries u_x, coupling to v_P carries u_y (and
    # symmetrically for v-momentum); dropped in the Picard linearization
    diag = 4.0 * nu * invh2
    if newton:
        (u_x, v_x), (u_y, v_y) = (east - west) * inv2h, (north - south) * inv2h
        interior = ((diag + u_x, diag + v_y), *neighbours, (u_y, v_x))
    else:
        interior = (diag, *neighbours, 0.0)
    return interior, (3.0 * inv2h, -4.0 * inv2h, inv2h)


def _direct_jacobian(u, v, nu, h, newton):
    """Newton Jacobian (``newton=True``) or Picard operator A_P at (u, v)."""
    n = u.shape[0]
    values = _interior_values(np.concatenate([u.ravel(), v.ravel()]))
    return _csc(n, _stencil_data(n, *_direct_stencil(values, nu, h, newton)))


def _slot_sum(coeffs, slots, out, product):
    """out = sum_s coeffs[s] * slots[s], added from zero in slot order.

    Each product is formed in ``product``, an array of ``out``'s shape.
    """
    np.multiply(coeffs[0], slots[0], out=out)
    out += 0.0  # 0 + p, as a sum from zero: -0.0 becomes 0.0
    for coeff, slot in zip(coeffs[1:], slots[1:]):
        np.multiply(coeff, slot, out=product)
        out += product


def _picard_rows(nodes, nu, h):
    """A_P(x) x for a node-major stack of states ``nodes`` (2N^2, k), in the pattern's row order.

    Each row of :func:`_stencil_pattern` adds its entries' products from
    zero in the order the pattern lists them, as a sparse product over the
    pattern would: interior rows slot by slot, then the exit rows, then the
    identity rows.  Every product is formed in one reused array, and the
    gathered slots and coefficients are freed on return, before
    :func:`_residual` reorders the sums, which keeps a residual's peak of
    temporaries at ~2.0 MB at 32 states.
    """
    n = math.isqrt(nodes.shape[0] // 2)
    k = n - 2
    values = _interior_values(nodes)
    interior_coeffs, exit_coeffs = _direct_stencil(values, nu, h, newton=False)
    # the exit rows' three slots, then the identity rows' one
    rest = nodes.take(_stencil_pattern(n).cols[12 * k * k :], axis=0)
    sums = np.empty(nodes.shape)
    interior, exit_rows = sums[: 2 * k * k], sums[2 * k * k : 2 * k * k + 2 * k]
    product = np.empty(values.shape[1:])
    # the sixth slot, the other field's centre, is the centre slot reversed
    slots = (*values, values[0, ::-1])
    _slot_sum(interior_coeffs, slots, interior.reshape(product.shape), product)
    exit_slots = rest[: 6 * k].reshape(3, *exit_rows.shape)
    _slot_sum(exit_coeffs, exit_slots, exit_rows, product[0, : 2 * k])
    np.add(rest[6 * k :], 0.0, out=sums[2 * k * k + 2 * k :])  # 1.0 * x_i + 0
    return sums


def _residual(x, nu, h, inlet):
    """Direct residual F(x) = A_P(x) x - b of a state ``x`` (2N^2,) or a stack (k, 2N^2).

    A_P is the Picard operator at each state, applied as :func:`_picard_rows`
    does, without building a matrix; b is zero but on the inlet rows, where
    it holds ``inlet``: the (u, v) inlet values (2, N - 2), one per state
    (k, 2, N - 2) or one for all.
    """
    stack = x.reshape(-1, x.shape[-1])
    n = math.isqrt(stack.shape[1] // 2)
    # node-major, so the gathers copy whole rows of the stack
    sums = _picard_rows(np.ascontiguousarray(stack.T), nu, h)
    # node order, then state-major: each state's max norm, and SuperLU's
    # copy of the right-hand sides, read a contiguous row
    res = np.ascontiguousarray(sums.take(_stencil_pattern(n).position, axis=0).T)
    # b: the inlet rows x = 0, 0 < y < 1 of each field
    res.reshape(-1, 2, n * n)[:, :, 1 : n - 1] -= inlet.reshape(-1, 2, n - 2)
    return res.reshape(x.shape)


def _refine(lu, x, res, residual, tol, max_steps, fallback):
    """Steps x <- x - LU^{-1} F(x) on each row of the stack ``x``, whose residuals are ``res``.

    ``tol`` is one tolerance for every row or one per row.  The rows whose
    max-norm residual is above their tolerance step together: one solve with
    a right-hand side per row, then ``residual(x, rows)``, the residuals of
    the moved rows ``rows`` of the stack.  A row stops once its residual is
    at most its tolerance, once a step leaves :data:`CHORD_CONTRACTION` times
    its previous residual or more, or after ``max_steps`` steps; a row left
    above its tolerance is logged at DEBUG with the caller's ``fallback``.
    Returns ``(x, history)`` and changes neither argument; ``history[j]``
    holds row j's max norms from the first one on.
    """
    x = x.copy()
    tols = np.broadcast_to(tol, len(x))
    # norms[s, j]: row j's max norm after s steps, for s up to steps[j]
    norms = np.empty((max_steps + 1, len(x)))
    norms[0] = np.abs(res).max(axis=1)
    steps = np.zeros(len(x), dtype=int)
    rows = np.flatnonzero(norms[0] > tols)
    # the moving rows' states, residuals, tolerances and last max norms
    moving, res, row_tols, last = x[rows], res[rows], tols[rows], norms[0, rows]
    for step in range(1, max_steps + 1):
        if rows.size == 0:
            break
        # the triangular solves are sign-symmetric: x - LU^{-1} F has the bits of x + LU^{-1} (-F)
        moving -= lu.solve(res.T).T
        res = residual(moving, rows)
        norm = norms[step, rows] = np.abs(res).max(axis=1)
        keep = (norm > row_tols) & (norm / last < CHORD_CONTRACTION)
        last = norm
        if np.count_nonzero(keep) < rows.size:
            x[rows], steps[rows] = moving, step
            rows, moving, res, row_tols, last = (
                rows[keep], moving[keep], res[keep], row_tols[keep], last[keep]
            )
    # the rows still moving took every step
    x[rows], steps[rows] = moving, max_steps
    history = [norms[: taken + 1, row].tolist() for row, taken in enumerate(steps.tolist())]
    for row_steps, row_tol in zip(history, tols.tolist()):
        if not row_steps[-1] <= row_tol:
            _log.debug(
                "step %d on the start state's LU: residual %.3e, contraction ratio %.3g; "
                + fallback,
                len(row_steps) - 1, row_steps[-1],
                row_steps[-1] / row_steps[-2] if len(row_steps) > 1 else float("nan"),
            )
    return x, history


def _factorize(matrix, residual, iterations):
    try:
        return scipy.sparse.linalg.splu(matrix, permc_spec=PERMC_SPEC)
    except RuntimeError as exc:
        raise SolverDivergenceError(
            f"linearized system factorization failed: {exc}",
            residual=residual,
            iterations=iterations,
        ) from exc


def _inlet_data(s_full, n):
    """Inlet values (k, 2, N - 2) of u and v at 0 < y < 1 for each row of ``s_full`` (k, m + 2).

    They are b of F(x) = A_P(x) x - b on the inlet rows; b is zero elsewhere.
    """
    y = np.linspace(0.0, 1.0, n)[1:-1]
    inlet = np.empty((len(s_full), 2, n - 2))
    inlet[:, 0] = inlet_u_profile(s_full.T, y)
    inlet[:, 1] = inlet_v_profile(y)
    return inlet


def _newton(x, res, history, inlet, nu, h, tol, max_iter, picard_steps):
    """Damped Newton from ``x``, whose residual is ``res``, to a max norm of at most ``tol``.

    ``inlet`` holds the inlet values (2, N - 2), as :func:`_residual` reads them.
    The first ``picard_steps`` steps use the frozen-coefficient operator.
    ``history`` ends with the max norm of ``res``; each step appends its own.
    Returns ``(x, factorizations)``.
    """
    n = math.isqrt(x.size // 2)
    res_norm = history[-1]
    factorizations = 0
    for iteration in range(max_iter):
        if res_norm <= tol:
            break
        jac = _direct_jacobian(*x.reshape(2, n, n), nu, h, newton=iteration >= picard_steps)
        delta = _factorize(jac, res_norm, iteration).solve(-res)
        factorizations += 1
        scale = 1.0
        for _ in range(12):
            x_try = x + scale * delta
            res_try = _residual(x_try, nu, h, inlet)
            norm_try = float(np.max(np.abs(res_try)))
            if norm_try < res_norm or scale < 1e-3:
                break
            scale *= 0.5
        x, res, res_norm = x_try, res_try, norm_try
        history.append(res_norm)
        if not np.isfinite(res_norm) or res_norm > 1e12:
            raise SolverDivergenceError(
                f"solve diverged at iteration {iteration + 1} "
                f"(residual {res_norm:.3e})",
                residual=res_norm,
                iterations=iteration + 1,
            )
    if not res_norm <= tol:
        raise SolverDivergenceError(
            f"no convergence after {max_iter} iterations "
            f"(residual {res_norm:.3e}, tolerance {tol:.1e})",
            residual=res_norm,
            iterations=max_iter,
        )
    return x, factorizations


def _warm_solves(start, inlet, tol, max_iter, where=nullcontext):
    """Solve from ``start``'s fields with each row's inlet values (k, 2, N - 2) written in.

    The rows take chord steps together (:func:`_refine`) on the LU of the
    Newton Jacobian at ``start``, factored on first use and kept on it; a row
    whose steps stall restarts alone with damped Newton, inside the context
    ``where(row)``.  Returns the solved states (k, 2N^2), each row's max-norm
    residuals and the LU factorizations made for it (the chord LU's for row 0).
    """
    n, nu, h = start.n_grid, 1.0 / start.re, start.h
    fields = np.empty((len(inlet), 2, n, n))
    fields[:, 0], fields[:, 1] = start.u, start.v
    # start.v already holds the v inlet, which every sample shares
    fields[:, 0, 0, 1:-1] = inlet[:, 0]
    x = fields.reshape(len(inlet), -1)
    res = _residual(x, nu, h, inlet)
    norms = np.abs(res).max(axis=1)
    solved, history = x, [[norm] for norm in norms.tolist()]
    factorizations = [0] * len(x)
    if np.any(norms > tol):
        if start._chord_lu is None:
            jac = _direct_jacobian(start.u, start.v, nu, h, newton=True)
            start._chord_lu = _factorize(jac, float(norms.max()), 0)
            factorizations[0] = 1
        solved, history = _refine(
            start._chord_lu, x, res, lambda moved, rows: _residual(moved, nu, h, inlet[rows]),
            tol, max_iter, "damped Newton restarts from the start state",
        )
    for row, steps in enumerate(history):
        if not steps[-1] <= tol:
            history[row] = steps[:1]
            with where(row):
                solved[row], made = _newton(
                    x[row], res[row], history[row], inlet[row], nu, h, tol, max_iter, 0
                )
            factorizations[row] += made
    return solved, history, factorizations


def burgers_solve(
    s_free,
    re=250.0,
    n_grid=31,
    tol=RESIDUAL_TOL,
    max_iter=MAX_ITER,
    start=None,
):
    """Solve the direct problem for the given free inlet coefficients.

    ``start`` is an optional :class:`BurgersState` on the same grid and
    Reynolds number; the iteration then starts from its fields with this
    inlet profile written in and takes chord steps on the LU of the Newton
    Jacobian at ``start`` (factored on first use and kept on ``start``).  If
    a chord step leaves more than :data:`CHORD_CONTRACTION` times the
    previous residual, or ``max_iter`` chord steps do not reach ``tol``, the
    solve restarts from ``start`` with damped Newton.  A cold solve (no
    ``start``) takes three Picard steps before damped Newton.

    Raises :class:`SolverDivergenceError` if the damped iteration cannot reach
    the residual tolerance.
    """
    if n_grid < 5:
        raise ValueError(f"grid must have at least 5 nodes per side, got {n_grid}")
    if re <= 0:
        raise ValueError(f"Reynolds number must be positive, got {re}")
    n = int(n_grid)
    s_full = full_inlet_coeffs(s_free)
    inlet = _inlet_data(s_full[None], n)
    if start is None:
        nu, h = 1.0 / float(re), 1.0 / (n - 1)
        # the inlet profile, zero at the walls, copied through the domain
        x = np.zeros((2, n, n))
        x[:, :, 1:-1] = inlet[0, :, None]
        x = x.ravel()
        res = _residual(x, nu, h, inlet[0])
        history = [float(np.max(np.abs(res)))]
        x, factorizations = _newton(
            x, res, history, inlet[0], nu, h, tol, max_iter, picard_steps=3
        )
    elif start.n_grid != n or start.re != float(re):
        raise ValueError(
            f"start state is for N={start.n_grid}, Re={start.re}; "
            f"this solve is for N={n}, Re={float(re)}"
        )
    else:
        [x], [history], [factorizations] = _warm_solves(start, inlet, tol, max_iter)
    u, v = x.reshape(2, n, n)
    return BurgersState(
        u=u,
        v=v,
        re=float(re),
        s_full=s_full,
        n_grid=n,
        residual_norm=history[-1],
        iterations=len(history) - 1,
        residual_history=np.array(history),
        factorizations=factorizations,
    )


def _exit_energy(fields, h):
    """Exit kinetic-energy integrals of the fields (..., 2, N, N), trapezoidal along x = 1."""
    u, v = fields[..., 0, -1, :], fields[..., 1, -1, :]
    return np.trapezoid(0.5 * (u**2 + v**2), dx=h, axis=-1)


def burgers_qoi(state):
    """Exit kinetic-energy integral, trapezoidal along x = 1."""
    return float(_exit_energy(np.stack([state.u, state.v]), state.h))


def _adjoint_system(fields, nu, h):
    """Adjoint operators at the states ``fields`` (k, 2, N, N) and their right-hand sides.

    Returns each operator's entries in CSC order (k, nnz) and the right-hand
    sides (k, 2N^2).
    """
    k, _, n, _ = fields.shape
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    _, east, west, north, south = _interior_values(fields.reshape(k, -1).T)
    (u_x, v_x), (u_y, v_y) = (east - west) * inv2h, (north - south) * inv2h
    # interior adjoint momentum rows in conservative form, +nu Laplacian:
    # (u a)_x + (v a)_y - diag_term * a + nu lap(a) = cross_term * b
    neighbours = (
        east[0] * inv2h + nu * invh2,
        -west[0] * inv2h + nu * invh2,
        north[1] * inv2h + nu * invh2,
        -south[1] * inv2h + nu * invh2,
    )
    diag = 4.0 * nu * invh2
    interior = ((-u_x - diag, -v_y - diag), *neighbours, (-v_x, -u_y))
    exit_u = fields[:, 0, -1, 1:-1].T
    exit_coeffs = (exit_u + 3.0 * nu * inv2h, -4.0 * nu * inv2h, nu * inv2h)
    # Robin exit rows: the traces of u and v drive the adjoint
    rhs = np.zeros(fields.shape)
    rhs[:, :, -1, 1:-1] = -fields[:, :, -1, 1:-1]
    return _stencil_data(n, interior, exit_coeffs, k), rhs.reshape(k, -1)


def _factorize_adjoint(matrix):
    try:
        return scipy.sparse.linalg.splu(matrix, permc_spec=PERMC_SPEC)
    except RuntimeError as exc:
        raise AdjointSolveError(f"adjoint factorization failed: {exc}") from exc


def _adjoint_solves(fields, nu, h, start=None, where=nullcontext):
    """Adjoint solutions (k, 2N^2) at the states ``fields`` (k, 2, N, N).

    Without ``start`` each row's operator is factored.  With ``start``, the
    rows refine together (:func:`_refine`) on the LU of the adjoint operator
    at ``start``, kept on it, each to :data:`ADJOINT_RTOL` times its
    right-hand side's max norm; a row left short factors its own operator.
    A row that fails raises inside the context ``where(row)``.
    """
    n = fields.shape[2]
    data, rhs = _adjoint_system(fields, nu, h)
    solutions = np.zeros(rhs.shape)
    tol = ADJOINT_RTOL * np.abs(rhs).max(axis=1)
    history = [[math.inf]] * len(rhs)
    if start is not None:
        if start._adjoint_lu is None:
            [nominal], _ = _adjoint_system(np.stack([start.u, start.v])[None], nu, h)
            start._adjoint_lu = _factorize_adjoint(_csc(n, nominal))
        blocks, target = _block_diagonal(n, data), rhs

        def residual(x, rows):
            nonlocal blocks, target
            k, size = x.shape
            if len(target) > k:
                # the moving rows only ever shrink; their operator has the
                # leading k blocks' index arrays and the moving rows' entries
                blocks = scipy.sparse.csc_matrix(
                    (data[rows].ravel(), blocks.indices[: k * data.shape[1]],
                     blocks.indptr[: k * size + 1]),
                    shape=(k * size, k * size),
                )
                target = rhs[rows]
            return (blocks @ x.ravel()).reshape(x.shape) - target

        solutions, history = _refine(
            start._adjoint_lu, solutions, -rhs, residual,
            tol, ADJOINT_MAX_SWEEPS, "the adjoint operator is factored afresh",
        )
    for row, (steps, row_tol) in enumerate(zip(history, tol.tolist())):
        with where(row):
            if not steps[-1] <= row_tol:
                solutions[row] = _factorize_adjoint(_csc(n, data[row])).solve(rhs[row])
            if not np.all(np.isfinite(solutions[row])):
                raise AdjointSolveError("adjoint solve produced non-finite values")
    return solutions


def _sensitivities(u, solutions, nu, h, m_free):
    """Total gradients dk_e/ds_i (k, m) of the states with u-fields ``u`` (k, N, N).

    ``solutions`` (k, 2N^2) are their adjoint solutions.
    """
    n = u.shape[1]
    u_adj, v_adj = solutions.reshape(-1, 2, n, n).transpose(1, 0, 2, 3)
    y = np.linspace(0.0, 1.0, n)
    # (1/Re) du+/dx at the inlet equals the adjoint momentum flux
    # u u+ + (1/Re) du+/dx there (u+ vanishes on x = 0); evaluate that flux
    # one stencil step inside, where the direct stencil supplies it as
    # u+(x1) (u(x1)/2 + nu/h)
    diffusive_flux = u_adj[:, 1, :] * (0.5 * u[:, 1, :] + nu / h)
    boundary_part = -(u_adj[:, 0, :] + v_adj[:, 0, :]) * u[:, 0, :]
    powers = np.array([y**power for power in range(1, m_free + 2)])
    integrand = (boundary_part - diffusive_flux)[:, None, :] * powers
    raw = np.trapezoid(integrand, dx=h, axis=-1)
    return raw[:, :m_free] - raw[:, m_free:]


def burgers_adjoint(state):
    """Solve the continuous adjoint system and integrate the sensitivities.

    Returns the adjoint fields and the total gradient dk_e/ds_i for the m
    free inlet coefficients (the corner-closure pathway through s_{m+1} is
    included).  The adjoint operator at ``state`` is factored and solved;
    :class:`BurgersModel` instead refines its samples' adjoints on the LU of
    the operator at its nominal state, and falls back to this solve where the
    refinement stalls.
    """
    n, nu, h = state.n_grid, 1.0 / state.re, state.h
    fields = np.stack([state.u, state.v])[None]
    solutions = _adjoint_solves(fields, nu, h)
    [gradient] = _sensitivities(fields[:, 0], solutions, nu, h, state.s_full.shape[0] - 2)
    u_adj, v_adj = solutions.reshape(2, n, n)
    return AdjointSolution(u_adj=u_adj, v_adj=v_adj, gradient=gradient)


@contextmanager
def _located(xi, index):
    """Re-raise a solver failure naming the standardized point and its index in a batch."""
    try:
        yield
    except ModelSolveError as exc:
        located = copy.copy(exc)
        located.point, located.index = xi, index
        raise located from exc


def _floats(name, value):
    """``value`` as a finite float array, or a ValueError naming the argument."""
    try:
        floats = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}") from None
    if not np.isfinite(floats).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return floats


class BurgersModel(Model):
    """Exit kinetic energy of the Burgers flow as a function of the inlet.

    The free inlet coefficients are independent Gaussians with the given
    means and standard deviations (default std = |mean| / 5).  The flow at
    the mean inlet is solved cold once, at construction.  Every evaluation
    goes through :meth:`_evaluate`, which warm-starts the samples' direct and
    adjoint solves from that state as the module describes;
    :meth:`value_and_grad` evaluates a block of one.  Each LU is factored
    by the first evaluation that needs it in each process and is not
    pickled, so results do not depend on the order, the grouping or the
    process in which points are evaluated.  A failed evaluation raises an
    error that names the standardized point and its index among the rows
    passed (0 for the one-row ``value_and_grad``).
    """

    name = "burgers"

    def __init__(self, s_mean=None, s_std=None, re=250.0, n_grid=31):
        s_mean = NOMINAL_INLET_COEFFS.copy() if s_mean is None else _floats("s_mean", s_mean)
        if s_mean.ndim != 1 or s_mean.size == 0:
            raise ValueError(f"s_mean must be a non-empty list, got shape {s_mean.shape}")
        s_std = np.abs(s_mean) / 5.0 if s_std is None else _floats("s_std", s_std)
        if s_std.shape != s_mean.shape:
            raise ValueError(
                f"s_std has shape {s_std.shape}, s_mean has shape {s_mean.shape}"
            )
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

    def _evaluate(self, points, gradients):
        """QoIs at the rows of ``points`` and, if ``gradients``, their gradients (else None).

        Takes :data:`VALUES_BLOCK` rows at a time: a block's samples take
        their chord steps together and then their adjoint sweeps together,
        with the bits each gets in a block of one.  A failure names its
        standardized point and its index among ``points``.
        """
        points = self.space._check_shape(points, "points")
        start, n = self._nominal, self.n_grid
        nu, h = 1.0 / self.re, start.h
        qois = np.empty(len(points))
        grads = np.empty(points.shape) if gradients else None
        for first in range(0, len(points), VALUES_BLOCK):
            block = points[first : first + VALUES_BLOCK]

            def where(row):
                return _located(block[row], first + row)

            coeffs = full_inlet_coeffs(self.space.destandardize(block))
            x, _, _ = _warm_solves(
                start, _inlet_data(coeffs, n), RESIDUAL_TOL, MAX_ITER, where
            )
            fields = x.reshape(len(block), 2, n, n)
            qois[first : first + len(block)] = _exit_energy(fields, h)
            if gradients:
                solutions = _adjoint_solves(fields, nu, h, start, where)
                grads[first : first + len(block)] = (
                    _sensitivities(fields[:, 0], solutions, nu, h, self.dim) * self.space.scales
                )
        return qois, grads

    def values(self, points):
        """QoIs at the rows of ``points``, solved :data:`VALUES_BLOCK` samples at a time."""
        return self._evaluate(points, gradients=False)[0]

    def values_and_grads(self, points):
        """QoIs (n,) and standardized gradients (n, m), :data:`VALUES_BLOCK` samples at a time."""
        return self._evaluate(points, gradients=True)

    def value_and_grad(self, xi):
        """:meth:`values_and_grads` of the one-row batch of the point ``xi`` (m,)."""
        [qoi], [grad] = self._evaluate(np.asarray(xi, dtype=float)[None], gradients=True)
        return ModelEvaluation(value=float(qoi), gradient=grad)


burgers_model = BurgersModel
