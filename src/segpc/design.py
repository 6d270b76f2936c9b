"""Sample weighting and greedy D-optimal subset selection.

From a large pool of candidate points, the selection step ranks the points
that maximize (greedily) the determinant of the weighted information matrix.
This is Householder QR with column pivoting (Businger & Golub 1965) of the
transposed, row-weighted measurement matrix: pivot order ranks the candidate
points, and the diagonal magnitudes |R_ii| track the incremental contribution
of each pivot to |det|.  The ranking stops after the points asked for, and a
shorter ranking is a prefix of a longer one.  So a :class:`DesignPlan` ranks
only as far as it is read: :func:`qr_select` checks the pool and ranks
nothing, and :meth:`DesignPlan.take` of n points ranks n picks, where reading
the whole ranking or its condition number ranks all of them.

A ranking takes one of two paths, with the same pivots as LAPACK ``geqp3``
(``scipy.linalg.qr`` with pivoting) and |R_ii| that agree with it at
round-off (within 1e-13 relative on the tested pools).  The right-looking
path (:func:`_greedy_rank`, blocked as in Quintana-Orti, Sun & Bischof 1998)
deflates every row by each block of reflectors, in place on one float64
working copy, and between picks re-projects only the rows whose stale
residual norm can still win (Minoux 1978).  A shorter read than the whole
plan, of at most ``LEFT_SHARE`` of the P + 1 terms and one in
``CACHE_SHARE`` of the pool, is ranked left-looking (:func:`_left_rank`)
over the pool held in float32, half the bytes: a block of picks costs one
float32 product of the pool with the block's directions, which only bounds
each row's residual, and the rows that may be picked are evaluated again in
float64, so picks and |R_ii| are those of the pool in float64.  Every other
read is ranked right-looking.  Errors found while ranking (a rank-deficient
pool, weighted entries whose squares overflow) surface at the read whose
picks they concern.  :func:`rank_pool` runs that chain on a seeded pool;
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

#: reads of at most this share of the P + 1 terms may be ranked left-looking
#: (one BLAS thread, min of 5, 10^4 Ishigami points and 286 terms: 144 picks
#: take ~45 ms against ~67 ms right-looking, 186 picks ~53 against ~77 ms,
#: 228 picks ~77 against ~81 ms, and all 286 ~92 ms right-looking)
LEFT_SHARE = 0.8

#: the left-looking path caches at most q / CACHE_SHARE pool rows per block,
#: and ranks at most that many picks: past it, orthogonalizing each pick
#: against all earlier ones outgrows the block passes (at 861 terms from
#: 3,000 points, 258 picks took ~95 ms against ~94 ms and 375 picks ~151 ms
#: against ~118 ms right-looking)
CACHE_SHARE = 8

#: pool rows per product at a left-looking block's end, bounding its
#: temporaries (2,048 rows by 32 directions take 0.5 MB)
PASS_ROWS = 2048

#: a downdated squared residual below this fraction of its value at its last
#: exact computation is recomputed from the pool row (LAPACK dlaqps's guard)
GUARD = math.sqrt(np.finfo(float).eps)

#: float64 pool rows a left-looking ranking evaluates at least at a time,
#: so a block makes few basis calls (a call for one row of 286 Ishigami
#: terms takes ~0.2 ms, for 512 rows ~0.6 ms; 256 and 512 ranked the
#: Ishigami and Burgers partial reads alike, 128 and 1,024 slower)
RESERVE_ROWS = 256

#: largest measurement matrix (q x (P + 1) float64) ``build_measurement``
#: accepts: the working array of a whole read; a partial read holds the pool
#: in float32, half of it
MAX_MEASUREMENT_BYTES = 2 * 2**30


def coherence_weights(space, points):
    """Stability weights w^(1/2) at rows (q, m) of standardized points.

    Gaussian dimensions contribute ``exp(-||xi_G||^2 / 4)`` where xi_G collects
    only the Gaussian coordinates; each uniform dimension contributes
    ``(1 - xi_k^2)^(1/4)``.  A uniform coordinate exactly on the boundary
    yields weight 0 (the point is effectively excluded); outside the domain is
    an error.

    Returns
    -------
    ndarray, shape (q,)
    """
    points = space._check_shape(points, "points")
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
    return weights


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
    every read gives the same points.  A read of all ``n_selected`` picks is
    ranked right-looking over a float64 working array, so ``r_diag`` always
    holds that path's bits.  A partial read (a :meth:`take` of
    n < ``n_selected`` picks with n <= ``LEFT_SHARE`` (P + 1) and
    ``CACHE_SHARE`` n <= q) is ranked left-looking over a float32 working
    array, half the bytes: same pivots, and the |R_ii| it keeps come from
    that path's float64 rows, equal to the right-looking ones at round-off,
    not bit for bit.  Between reads the plan holds no working array, only
    the pivots and |R_ii|.
    ``RankDeficientError``, and the ``ValueError`` for weighted entries whose
    squares overflow, come from the read whose picks they concern.
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
            if (n < self.n_selected and n <= LEFT_SHARE * meas.n_terms
                    and CACHE_SHARE * n <= meas.q):
                self._selected, self._r_diag = _left_rank(meas, n)
            else:
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
            sub = self.meas.basis.eval(self.points, scale=self.w_sqrt)
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
    q x (P + 1) array a ranking holds, freed when the read returns: float64
    for a read of the whole plan, float32 for a partial read, which adds a
    cache of at most q / ``CACHE_SHARE`` float64 rows.

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
        bound = _finite_norms(y) if k == 0 else np.einsum("ij,ij->i", y, y)
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
            _check_rank(r_diag, step)
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


def _finite_norms(work, rows=None):
    """Squared row norms of ``work``; a ``ValueError`` names its first non-finite row.

    ``rows`` holds the pool row of each row of ``work`` (by default its own
    index).
    """
    sq = np.einsum("ij,ij->i", work, work)
    if not np.all(np.isfinite(sq)):
        row = int(np.flatnonzero(~np.isfinite(sq))[0])
        row = row if rows is None else int(rows[row])
        raise ValueError(
            f"weighted measurement row {row} holds infs or NaNs, or entries "
            "whose squares overflow"
        )
    return sq


def _check_rank(r_diag, step):
    """Refuse pick ``step`` when its |R_ii| is 0 or below ``RANK_TOL`` of the first pick's."""
    if r_diag[step] == 0.0 or r_diag[step] < RANK_TOL * r_diag[0]:
        raise RankDeficientError(
            "candidate pool is numerically rank deficient for this basis; "
            "enlarge the pool or lower the chaos order"
        )


def _left_rank(meas, n_sel):
    """Pivot rows and |R_ii| of the first ``n_sel`` greedy picks, left-looking over a float32 pool.

    Pick s is its float64 pool row, as ``meas.weighted()`` holds it,
    orthogonalized twice (CGS2) against the unit directions of picks
    0..s-1: the norm of what is left is |R_ss|, and its direction joins
    them.  The pool itself is held in float32, scaled by a power of two
    (see :func:`_single_pool`), and only bounds the rows: each row keeps
    an upper bound on its squared residual off the directions taken,
    renewed at a block's start from its float32 norm less its squared
    float32 projections (see :func:`_bound_terms`).  A block of up to
    ``SELECT_BLOCK`` picks ends with one pass over the float32 pool,
    ``PASS_ROWS`` rows at a time, that takes the squared projections on
    the block's directions off those norms.  Between picks the candidates
    are brought up to date as in :func:`_refresh`: rows whose bound may
    reach the cut are evaluated again in float64 into a row cache (see
    :class:`_RowCache`), their exact residuals taken off every direction,
    and every cached row is projected on each new direction; a residual
    that falls below ``GUARD`` of its last exact value is recomputed from
    its row.  So picks and |R_ii| come from the float64 rows and
    directions alone, as if the whole pool were held in float64.  A block
    ends early when the cache would pass q / ``CACHE_SHARE`` rows; if that
    happens at a block's first pick (the bounds cannot tell the rows apart,
    as in a numerically rank-deficient pool), the block instead takes exact
    residuals of every row from the pool evaluated again in float64, a
    cache's worth of rows at a time.
    """
    q, n_terms = meas.q, meas.n_terms
    selected = np.empty(n_sel, dtype=np.intp)
    r_diag = np.empty(n_sel)
    dirs = np.empty((n_terms, n_sel), order="F")
    pool, norm_sq, exponent = _single_pool(meas)
    estimate, cross, square = _bound_terms(norm_sq, n_terms, meas.basis.m)
    exact = np.empty(q)  # a live row's squared residual when last computed from its row
    cache = _RowCache(meas, q // CACHE_SHARE)
    k = 0
    while k < n_sel:
        # upper bounds on every row's squared residual, exact for the live rows
        bound = np.ldexp(estimate + math.sqrt(k) * cross + k * square, -2 * exponent)
        cache.clear()
        width = min(SELECT_BLOCK, n_sel - k)
        for t in range(width):
            step = k + t
            cut = REFRESH_CUT * r_diag[step - 1] ** 2 if step else np.inf
            if not cache.catch_up(bound, exact, dirs[:, :step], cut):
                if t > 0:  # the cache is full: end the block
                    width = t
                    break
                cache.exact_bounds(bound, exact, dirs[:, :step])
            row = int(np.argmax(bound))
            x = cache.row(row)
            done = dirs[:, :step]
            x -= done @ (x @ done)
            x -= done @ (x @ done)
            r_diag[step] = math.sqrt(x @ x)
            _check_rank(r_diag, step)
            selected[step] = row
            bound[row] = exact[row] = estimate[row] = -np.inf
            cross[row] = square[row] = 0.0  # a picked row's bound stays -inf
            dirs[:, step] = x / r_diag[step]
            cache.downdate(bound, exact, dirs[:, :step + 1])
        if k + width < n_sel:
            block = dirs[:, k:k + width].T.astype(np.float32)
            for lo in range(0, q, PASS_ROWS):
                c = block @ pool[lo:lo + PASS_ROWS].T
                estimate[lo:lo + PASS_ROWS] -= np.einsum("ij,ij->j", c, c, dtype=np.float64)
        k += width
    return selected, r_diag


def _single_pool(meas):
    """The weighted pool in float32, scaled by 2^e, and the float32 sums of its rows' squares.

    Returns ``(pool, norm_sq, e)``.  The scale 2^e takes the largest weight
    into [1/2, 1), so the float32 entries stay in range whatever the
    weights' size; it is exact and moves no pivot.  A row the float32 pool
    cannot bound, one whose float32 squares overflow or whose scaled weight
    is a float32 subnormal, is zeroed there and given an infinite
    ``norm_sq``, so every block evaluates it in float64.  Rows whose
    float64 squares overflow raise the ``ValueError`` of
    :func:`_finite_norms`, naming the first.
    """
    basis, points, w = meas.basis, meas.points, meas.w_sqrt
    exponent = -math.frexp(float(np.abs(w).max()))[1]
    scaled = np.ldexp(w, exponent)
    pool = np.empty((meas.q, meas.n_terms), dtype=np.float32, order="F")
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are found below
        basis.eval(points, out=pool, scale=scaled)
        norm_sq = np.einsum("ij,ij->i", pool, pool).astype(float)
        # a float64 row whose squares overflow has a scaled float32 norm within
        # a few parts in 10^5 of 2^(2e) times the largest double, or none
        suspect = np.flatnonzero(
            ~(np.ldexp(norm_sq, -2 * exponent) < 0.25 * np.finfo(float).max))
    if suspect.size:
        _finite_norms(basis.eval(points[suspect], scale=w[suspect]), suspect)
    loose = ~np.isfinite(norm_sq) | ((scaled != 0.0) & (np.abs(scaled) < 2.0**-126))
    pool[loose] = 0.0
    norm_sq[loose] = np.inf
    return pool, norm_sq, exponent


def _bound_terms(norm_sq, n, m):
    """Per-row ``(R^2, cross, square)``: a row's squared residual off k directions is at most
    ``R^2 - sum c_j^2 + sqrt(k) cross + k square``, c_j its float32 projections.

    Take a row a (a scaled float64 row of n = P + 1 entries), its float32
    copy a^ in the pool and the unit directions d_1..d_k; u = 2^-24.  The
    float32 fill keeps every entry within (2m + 2) u |a_j| + (2m + 2)
    2^-150 (1 + max_l |a_l|) of a_j (see ``ChaosBasis.eval``), so ||a^ -
    a|| <= eps ||a|| + nu, with eps = (2m + 3) u and nu = (2m + 2) sqrt(n)
    2^-150.  The float32 sum of squares N^ (``norm_sq``) gives ||a^||^2
    <= (N^ + 2n 2^-150) / (1 - gamma_n), gamma_n = n u / (1 - n u), so
    ||a|| <= R = (||a^|| + nu) / (1 - eps).  A float32 projection c_j =
    fl(d^_j . a^), with d^_j = fl32(d_j), ||d^_j - d_j|| <= u + sqrt(n)
    2^-150, and sgemm's |fl(x . y) - x . y| <= gamma_n ||x|| ||y|| + 2n
    2^-150, lies within e = delta R + beta of t_j = d_j . a, where delta =
    (n + 2m + 6) u counts gamma_n, the rounded direction and eps, then one
    unit for their products and one for every float64 rounding (the
    directions' loss of orthonormality, the float64 sums of c_j^2, and the
    exact residuals the bounds are compared with, each below (n + k) 2^-52
    relative), and beta = 2 nu + 2n 2^-150.  With ||t|| <= ||a|| <= R,

        sum c_j^2 - sum t_j^2 = sum (c_j - t_j)(c_j + t_j) <= 2 sqrt(k) e R + k e^2,

    so the squared residual ||a||^2 - sum t_j^2 is at most

        R^2 - sum c_j^2 + sqrt(k) 2 e R + k e^2,

    about N^ - sum c_j^2 + 2 (P + 2m + 7) u sqrt(k) N^: 4e-4 N^ at 286
    terms and 128 directions.  A row of infinite ``norm_sq`` gets R^2 =
    inf, which alone keeps its bound infinite.
    """
    u, tiny = 2.0**-24, 2.0**-150
    nu = (2 * m + 2) * math.sqrt(n) * tiny
    gamma = n * u / (1.0 - n * u)
    finite = np.isfinite(norm_sq)
    radius = (np.sqrt((np.where(finite, norm_sq, 0.0) + 2 * n * tiny) / (1.0 - gamma))
              + nu) / (1.0 - (2 * m + 3) * u)
    err = (n + 2 * m + 6) * u * radius + 2 * nu + 2 * n * tiny
    return np.where(finite, radius * radius, np.inf), 2.0 * err * radius, err * err


class _RowCache:
    """Float64 pool rows for one block of :func:`_left_rank`, made exact as the picks need them.

    Rows are evaluated with ``basis.eval`` in batches of the rows of
    largest bound, at least ``RESERVE_ROWS`` at a time, and held in order
    of bound, largest first.  The first ``live`` of them hold exact squared
    residuals in the ranking's ``bound``; the others keep the bounds they
    were chosen by, and every row not evaluated has a bound no larger than
    theirs.  So the rows not live whose bound reaches a cut are the next
    evaluated rows, or all of them and more.
    """

    def __init__(self, meas, size):
        self.meas = meas
        self.rows = np.empty((size, meas.n_terms))
        self.ids = np.empty(size, dtype=np.intp)
        self.slot = np.full(meas.q, -1)  # a row's place in the cache, -1 if not evaluated
        self.live = self.count = 0

    def clear(self):
        self.slot[self.ids[:self.count]] = -1
        self.live = self.count = 0

    def row(self, i):
        """A copy of pool row i in float64."""
        if 0 <= self.slot[i] < self.live:
            return self.rows[self.slot[i]].copy()
        meas = self.meas
        return meas.basis.eval(meas.points[i:i + 1], scale=meas.w_sqrt[i:i + 1])[0]

    def catch_up(self, bound, exact, dirs, cut):
        """Make the largest bound a live row's exact residual; False if the rows would not fit.

        Rows whose bound reaches ``cut`` are made live; while the largest
        bound is still another row's, the cut drops to the largest live
        residual.  Then every other bound lies below a live residual, and
        ``argmax(bound)`` is the exact pick: the lowest row among equals.
        """
        slot = self.slot
        while not 0 <= slot[int(np.argmax(bound))] < self.live:
            waiting = bound >= cut
            waiting[self.ids[:self.live]] = False
            need = np.count_nonzero(waiting)
            if need == 0:
                best = bound[self.ids[:self.live]].max() if self.live else -np.inf
                cut = best if best > -np.inf else bound.max()
                continue
            if self.live + need > self.rows.shape[0]:
                return False
            if self.live + need > self.count:
                self._evaluate(bound, max(self.live + need - self.count, RESERVE_ROWS))
            self._make_live(need, bound, exact, dirs)
        return True

    def _evaluate(self, bound, n):
        """Evaluate the ``n`` (or as many as fit) rows not yet evaluated of largest bound."""
        values = bound.copy()
        values[self.ids[:self.count]] = -np.inf
        n = min(n, self.rows.shape[0] - self.count)
        top = np.argpartition(values, len(values) - n)[len(values) - n:]
        new = top[np.argsort(-values[top], kind="stable")]
        new = new[values[new] > -np.inf]  # picked rows stay out
        end = self.count + len(new)
        meas = self.meas
        meas.basis.eval(meas.points[new], out=self.rows[self.count:end], scale=meas.w_sqrt[new])
        self.ids[self.count:end] = new
        self.slot[new] = np.arange(self.count, end)
        self.count = end

    def _make_live(self, n, bound, exact, dirs):
        rows = self.rows[self.live:self.live + n]
        ids = self.ids[self.live:self.live + n]
        exact[ids] = np.einsum("ij,ij->i", rows, rows)
        c = rows @ dirs
        bound[ids] = exact[ids] - np.einsum("ij,ij->i", c, c)
        _guard(bound, exact, ids, rows, dirs)
        self.live += n

    def downdate(self, bound, exact, dirs):
        """Take the live rows' squared projections on the last direction off their residuals."""
        if self.live:
            live = self.rows[:self.live]
            c = live @ dirs[:, -1]
            ids = self.ids[:self.live]
            bound[ids] -= c * c
            _guard(bound, exact, ids, live, dirs)

    def exact_bounds(self, bound, exact, dirs):
        """Exact squared residuals of every unpicked row, from the pool evaluated again in float64.

        The cache's storage holds each column-major tile; the cache is left empty.
        """
        self.clear()
        meas = self.meas
        n_terms = meas.n_terms
        size = self.rows.shape[0]
        store = self.rows.reshape(-1)
        for lo in range(0, meas.q, size):
            hi = min(lo + size, meas.q)
            tile = store[:(hi - lo) * n_terms].reshape(n_terms, hi - lo).T
            meas.basis.eval(meas.points[lo:hi], out=tile, scale=meas.w_sqrt[lo:hi])
            ids = np.arange(lo, hi)
            picked = bound[lo:hi] == -np.inf
            exact[lo:hi] = np.einsum("ij,ij->i", tile, tile)
            c = tile @ dirs
            bound[lo:hi] = exact[lo:hi] - np.einsum("ij,ij->i", c, c)
            _guard(bound, exact, ids, tile, dirs)
            bound[lo:hi][picked] = exact[lo:hi][picked] = -np.inf


def _guard(res_sq, exact, rows, values, dirs):
    """Recompute ``res_sq[rows]`` where it fell below ``GUARD`` of ``exact``.

    ``values[i]`` is the pool row ``rows[i]``, and ``dirs`` holds the
    orthonormal directions taken so far.
    """
    low = np.flatnonzero(res_sq[rows] < GUARD * exact[rows])
    if low.size:
        res_sq[rows[low]] = exact[rows[low]] = _residual_sq(values[low], dirs)


def _residual_sq(rows, dirs):
    """Squared norms of ``rows`` projected twice off the orthonormal columns of ``dirs``."""
    res = rows - (rows @ dirs) @ dirs.T
    res -= (res @ dirs) @ dirs.T
    return np.einsum("ij,ij->i", res, res)


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
