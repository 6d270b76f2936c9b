"""Sample weighting and greedy D-optimal subset selection.

From a large pool of candidate points, the selection step ranks the points
that maximize (greedily) the determinant of the weighted information matrix.
This is Householder QR with column pivoting (Businger & Golub 1965) of the
transposed, row-weighted measurement matrix: pivot order ranks the candidate
points, and the diagonal magnitudes |R_ii| track the incremental contribution
of each pivot to |det|.  :func:`qr_select` takes the same pivots lazily
(Minoux 1978): residual norms only shrink as pivots are taken, so a stale
norm bounds the current one, and between picks only the rows whose bound can
still win are re-projected.  Every ``SELECT_BLOCK`` picks, or sooner when
re-projecting would cost more, all rows are deflated at once, in place on one
working copy.  Pivots equal LAPACK ``geqp3``'s (``scipy.linalg.qr`` with
pivoting); |R_ii| agree at round-off (within 1e-13 relative on the tested
pools).  The ranking stops after the points asked for, and a shorter ranking
is a prefix of a longer one.  So a :class:`DesignPlan` ranks only as far as
it is read: :func:`qr_select` checks the pool and ranks nothing, and
:meth:`DesignPlan.take` of n points ranks n picks, where reading the whole
ranking or its condition number ranks all of them.  Errors found while
ranking (a rank-deficient pool, weighted entries whose squares overflow)
surface at that read.  :func:`rank_pool` runs that chain on a seeded pool;
:meth:`DesignPlan.take` alone states which points a fit reads: the pivots,
then the pool in draw order.

The per-point weights come from asymptotic sampling theory: for Gaussian
dimensions ``exp(-||xi||^2 / 4)`` over the Gaussian coordinates jointly, for
uniform dimensions ``(1 - xi_k^2)^(1/4)`` per coordinate.  Mixed spaces
multiply the two factors.  These are "square-root" weights: regression
multiplies rows by them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrmm

from .errors import RankDeficientError
from .spaces import Gaussian

#: pivots below this fraction of the leading pivot flag a rank-deficient pool
RANK_TOL = 1e-12

#: most picks in one block of the greedy ranking; at a block's end every
#: candidate row is deflated by the block's reflectors at once (16 to 48
#: measured within noise of each other on the 286-term Ishigami ranking of a
#: 10^4 pool)
SELECT_BLOCK = 32

#: between picks, a candidate is re-projected when its stale squared residual
#: reaches this fraction of the last pick's (successive picks of the 286-term
#: Ishigami ranking keep a median 0.998 of the previous one; 0.98 measured as
#: fast, 0.95 and 0.995 slower)
REFRESH_CUT = 0.99

#: candidate rows re-projected per batch, bounding a batch's temporaries
#: (512 rows of 286 terms take 1.2 MB)
REFRESH_ROWS = 512

#: largest measurement matrix (q x (P + 1) float64) ``build_measurement`` accepts
MAX_MEASUREMENT_BYTES = 2 * 2**30


def coherence_weights(space, points):
    """Stability weights w^(1/2) for a set of standardized points.

    Gaussian dimensions contribute ``exp(-||xi_G||^2 / 4)`` where xi_G collects
    only the Gaussian coordinates; each uniform dimension contributes
    ``(1 - xi_k^2)^(1/4)``.  A uniform coordinate exactly on the boundary
    yields weight 0 (the point is effectively excluded); outside the domain is
    an error.

    Returns
    -------
    ndarray, shape (q,)
    """
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    if single:
        points = points[None, :]
    if points.shape[1] != space.m:
        raise ValueError(
            f"points have dimension {points.shape[1]}, space has {space.m}"
        )
    weights = np.ones(points.shape[0])
    gauss_sq = np.zeros(points.shape[0])
    for k, marg in enumerate(space.marginals):
        col = points[:, k]
        if isinstance(marg, Gaussian):
            gauss_sq += col * col
        else:
            if np.any(np.abs(col) > 1.0):
                raise ValueError(
                    f"uniform coordinate {k} outside [-1, 1]; weights undefined"
                )
            weights *= (1.0 - col * col) ** 0.25
    weights *= np.exp(-0.25 * gauss_sq)
    return weights[0] if single else weights


@dataclass(frozen=True)
class WeightedMeasurement:
    """A candidate pool checked against the basis; no matrix is built.

    Row i of the q x (P + 1) measurement matrix holds the basis values at
    ``points[i]``, weighted by ``w_sqrt[i]`` in :meth:`weighted`.
    """

    basis: object
    points: np.ndarray
    w_sqrt: np.ndarray

    @property
    def q(self):
        return self.points.shape[0]

    @property
    def n_terms(self):
        return self.basis.n_terms

    def weighted(self):
        """Row-scaled matrix W^(1/2) psi, evaluated now."""
        return self.basis.eval(self.points, scale=self.w_sqrt)


def build_measurement(basis, pool, weights):
    """Check a candidate pool and its weights against the basis.

    Raises ``ValueError`` when the q x (P + 1) measurement matrix would
    exceed ``MAX_MEASUREMENT_BYTES``.
    """
    points = pool.points if hasattr(pool, "points") else np.asarray(pool, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("pool must contain at least one point")
    if points.shape[1] != basis.m:
        raise ValueError(
            f"pool dimension {points.shape[1]} does not match basis dimension {basis.m}"
        )
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (points.shape[0],):
        raise ValueError("one weight per pool point is required")
    size = points.shape[0] * basis.n_terms * 8
    if size > MAX_MEASUREMENT_BYTES:
        raise ValueError(
            f"measurement matrix of {points.shape[0]} points x {basis.n_terms} terms "
            f"would take {size / 2**30:.1f} GiB; the supported maximum is "
            f"{MAX_MEASUREMENT_BYTES / 2**30:g} GiB"
        )
    return WeightedMeasurement(basis=basis, points=points, w_sqrt=weights)


class DesignPlan:
    """QR ranking of up to ``n_selected`` points of a checked pool, computed as it is read.

    :meth:`take` ranks only the picks it returns.  Reading ``selected`` (pool
    row indices in pivot order), ``points``, ``w_sqrt`` or ``r_diag`` (the
    |R_ii|, non-increasing) ranks all ``n_selected``; ``cond_number``, the
    2-norm condition number of the selected weighted submatrix, is computed
    on its first read.  The longest ranking computed is kept, and a longer
    read ranks afresh: a shorter ranking is a prefix of a longer one, so
    every read gives the same bits.  Between reads the plan holds no working
    array, only the pivots and |R_ii|.  ``RankDeficientError``, and the
    ``ValueError`` for weighted entries whose squares overflow, come from the
    read whose picks they concern.
    """

    def __init__(self, meas, n_selected):
        self.meas = meas
        self.n_selected = n_selected
        self._selected = np.empty(0, dtype=np.intp)
        self._r_diag = np.empty(0)
        self._cond = None

    @property
    def pool(self):
        return self.meas.points

    @property
    def pool_w_sqrt(self):
        return self.meas.w_sqrt

    def _ranked(self, n):
        """Pivots and |R_ii| of the first ``n`` picks, ranked now if not yet kept."""
        if n > self._selected.shape[0]:
            meas = self.meas
            work = np.empty((meas.q, meas.n_terms), order="F")
            meas.basis.eval(meas.points, out=work, scale=meas.w_sqrt)
            self._selected, self._r_diag = _greedy_rank(work, n)
        return self._selected[:n], self._r_diag[:n]

    @property
    def selected(self):
        return self._ranked(self.n_selected)[0]

    @property
    def r_diag(self):
        return self._ranked(self.n_selected)[1]

    @property
    def points(self):
        return self.pool[self.selected]

    @property
    def w_sqrt(self):
        return self.pool_w_sqrt[self.selected]

    @property
    def cond_number(self):
        if self._cond is None:
            sub = self.meas.basis.eval(self.points) * self.w_sqrt[:, None]
            self._cond = float(np.linalg.cond(sub))
        return self._cond

    def take(self, n):
        """First ``n`` (points, w_sqrt): the pivots, then the other pool rows in draw order.

        Ranks min(n, ``n_selected``) picks; a pool short of ``n`` points is
        refused before any ranking.
        """
        if n < 1:
            raise ValueError(f"cannot take n = {n} sample points; n must be at least 1")
        q = self.meas.q
        if n > q:
            raise ValueError(f"pool of {q} cannot supply {n} sample points")
        selected, _ = self._ranked(min(n, self.n_selected))
        if n > self.n_selected:
            rest = np.delete(np.arange(q), selected)
            selected = np.concatenate([selected, rest])[:n]
        return self.pool[selected], self.pool_w_sqrt[selected]


def qr_select(meas, n_sel):
    """Plan a greedy ranking of ``n_sel`` pool points maximizing the design determinant.

    The plan ranks the rows of ``W^(1/2) psi`` as pivoted QR of
    ``(W^(1/2) psi)^T`` would rank its columns: each pick is the row of
    largest residual norm off the span of the rows already picked, and that
    norm is its |R_ii|.  Nothing is ranked here: a read of the plan ranks
    the picks it needs (see :class:`DesignPlan`), evaluating the weighted
    basis straight into one Fortran-ordered working array, the only
    q x (P + 1) array a ranking holds, freed when the read returns.

    Raises
    ------
    ValueError
        If ``n_sel`` is out of range or a pool point or weight holds a NaN
        or an infinity.
    """
    n_terms = meas.n_terms
    if n_sel < 1:
        raise ValueError(f"must select at least one point, got {n_sel}")
    if n_sel > min(meas.q, n_terms):
        raise ValueError(
            f"cannot select {n_sel} points: pool has {meas.q}, basis has "
            f"{n_terms} terms"
        )
    if not (np.isfinite(meas.w_sqrt).all() and np.isfinite(meas.points).all()):
        bad = ~(np.isfinite(meas.w_sqrt) & np.isfinite(meas.points).all(axis=1))
        raise ValueError(
            f"pool row {int(np.flatnonzero(bad)[0])} holds infs or NaNs in its point or weight"
        )
    return DesignPlan(meas, n_sel)


def _greedy_rank(work, n_sel):
    """Pivot rows and |R_ii| of the first ``n_sel`` greedy picks; overwrites ``work``.

    ``work`` is Fortran-ordered, so the coordinates still in play,
    ``work[:, k:]`` after k picks, are one contiguous block.  Each pick k
    ends with a Householder reflector on those coordinates that maps the
    picked row's residual onto coordinate k.  A block of up to
    ``SELECT_BLOCK`` picks accumulates its reflectors in compact-WY form,
    ``Q = I - V T V^T``; between picks a row is re-projected, from the
    block's start, only while its stale squared residual, an upper bound on
    its current one, reaches the cut.  At the block's end every row is
    deflated by ``Q`` at once and the block's coordinates are dropped; a
    block ends early when re-projecting would cost more (see ``_refresh``).
    """
    q, n_terms = work.shape
    selected = np.empty(n_sel, dtype=np.intp)
    r_diag = np.empty(n_sel)
    fresh = np.full(q, -1)  # the pick before which a row's bound was last made exact
    k = 0
    while k < n_sel:
        y = work[:, k:]
        bound = np.einsum("ij,ij->i", y, y)
        if k == 0 and not np.all(np.isfinite(bound)):
            row = int(np.flatnonzero(~np.isfinite(bound))[0])
            raise ValueError(
                f"weighted measurement row {row} holds infs or NaNs, or entries "
                "whose squares overflow"
            )
        bound[selected[:k]] = -np.inf
        # shapes independent of n_sel keep a shorter ranking's bits a prefix
        v = np.zeros((n_terms - k, SELECT_BLOCK))
        t_mat = np.zeros((SELECT_BLOCK, SELECT_BLOCK), order="F")
        vt = np.zeros((n_terms - k, SELECT_BLOCK))  # V T, one column per reflector
        width = min(SELECT_BLOCK, n_sel - k)
        for t in range(width):
            step = k + t
            if t == 0:
                row = int(np.argmax(bound))
                pick = (row, bound[row], y[row].copy())
            else:
                pick = _refresh(y, bound, fresh, step, v[:, :t], vt[:, :t], r_diag[step - 1])
                if pick is None:  # re-projecting would cost more than a fresh start
                    width = t
                    break
            row, sq, x = pick
            r_diag[step] = math.sqrt(sq)
            if r_diag[step] == 0.0 or r_diag[step] < RANK_TOL * r_diag[0]:
                raise RankDeficientError(
                    "candidate pool is numerically rank deficient for this basis; "
                    "enlarge the pool or lower the chaos order"
                )
            selected[step] = row
            bound[row] = -np.inf
            # reflector I - tau u u^T taking x to -sign(x_0) |x| e_0, u_0 = 1
            alpha = x[0]
            beta = -math.copysign(r_diag[step], alpha)
            tau = (beta - alpha) / beta
            u = x / (alpha - beta)
            u[0] = 1.0
            v[t:, t] = u
            t_col = -tau * (t_mat[:t, :t] @ (u @ v[t:, :t]))
            t_mat[:t, t] = t_col
            t_mat[t, t] = tau
            vt[:, t] = v[:, :t] @ t_col
            vt[t:, t] += tau * u
        if k + width < n_sel:
            _deflate(work[:, k:], v[:, :width], t_mat[:width, :width])
        k += width
    return selected, r_diag


def _refresh(y, bound, fresh, step, v, vt, last_r):
    """The next greedy pick (row, squared residual, residual), or None.

    Rows whose bound reaches ``REFRESH_CUT`` times the last pick's squared
    residual are re-projected off the block's t reflectors (``v`` and ``vt``
    hold their columns) and their bounds made exact; if none of them keeps a
    residual at the cut, the cut drops to the largest fresh residual and the
    rows between are re-projected too.  Then every stale bound lies below the
    largest fresh residual, so the pick is exact: the lowest row among equals,
    as ``argmax`` takes it.  Returns None, before re-projecting, when a round
    would take more than q / (2t) rows: at ~2t multiply-adds a coordinate,
    that costs more than deflating now and starting afresh.
    """
    q = bound.shape[0]
    t = v.shape[1]
    cut = REFRESH_CUT * last_r * last_r
    best, pick = -np.inf, None
    while True:
        stale = bound >= cut
        if pick is not None:
            stale &= fresh != step
        rows = np.flatnonzero(stale)
        if 2 * t * rows.size > q:
            return None
        for lo in range(0, rows.size, REFRESH_ROWS):
            batch = rows[lo:lo + REFRESH_ROWS]
            g = y[batch]
            tail = g[:, t:]
            tail -= (g @ vt) @ v[t:].T
            sq = np.einsum("ij,ij->i", tail, tail)
            bound[batch] = sq
            fresh[batch] = step
            i = int(np.argmax(sq))
            if sq[i] > best or (sq[i] == best and batch[i] < pick[0]):
                best, pick = sq[i], (int(batch[i]), sq[i], tail[i].copy())
        if best >= cut:
            return pick
        cut = best if pick is not None else bound.max()


def _deflate(y, v, t_mat):
    """Apply ``Q = I - V T V^T`` to every row of ``y`` in place; only ``y[:, b:]`` is kept.

    ``y[:, :b]`` (b reflectors) is the workspace for ``Y V T``: two
    triangular products and two ``dgemm`` calls, no other storage.
    """
    b = t_mat.shape[0]
    head, rest = y[:, :b], y[:, b:]
    dtrmm(1.0, v[:b], head, side=1, lower=1, diag=1, overwrite_b=1)
    dgemm(1.0, rest, v[b:], beta=1.0, c=head, overwrite_c=1)
    dtrmm(1.0, t_mat, head, side=1, overwrite_b=1)
    dgemm(-1.0, head, v[b:], beta=1.0, c=rest, trans_b=1, overwrite_c=1)


def rank_pool(basis, pool_size, seed):
    """Plan of up to P + 1 QR-ranked points of a seeded pool (one serves every fit at an order).

    The pool is drawn and weighted now; its points are ranked as the plan is
    read, so a fit that takes n points ranks n of them (see :class:`DesignPlan`).
    """
    pool = basis.space.sample_pool(pool_size, seed)
    meas = build_measurement(basis, pool, coherence_weights(basis.space, pool.points))
    return qr_select(meas, min(basis.n_terms, pool.q))
