"""Latent space model for signed weighted bipartite networks.

Each donor node i and recipient node j has a position in d-dimensional
Euclidean space; the pair affinity is ``eta_ij = alpha - beta * ||z_d_i -
z_r_j||^2`` with beta > 0, and per-node additive effects delta_i / gamma_j
complete the compatibility ``mu_ij = eta_ij + delta_i + gamma_j``.  Observed
node and edge weights are modeled as independent Gaussians around the model
quantities with known (plug-in) standard deviations.

Beta and the position scale are not separately identifiable: ``(z, beta) ->
(c z, beta / c^2)`` leaves every distance term unchanged.  Fits therefore hold
beta at 1, the model's gauge, and report positions in it.  Each node effect
appears only in its own node term, so its maximum likelihood estimate is the
observed node weight (``delta = donor_weight``, ``gamma = recipient_weight``).
The optimizer therefore carries only ``(z_d, z_r, alpha)`` and maximizes the
log-likelihood over it by L-BFGS-B.
One kernel, :class:`_Objective`, serves the whole fit on slices of that
optimizer vector: the L-BFGS-B evaluations (log-likelihood and gradient in one
pass), the Newton polish and the reported log-likelihood and gradient norm.
The kernel holds a stack of networks of one shape and observation mask, and
every evaluation names the network it is made against: a stack of optimizer
vectors is evaluated at once, each row against its own network and computed
apart.  The starts of a fit run in lockstep (:func:`minimize`): each is its
own L-BFGS-B state machine, driven directly through SciPy's ``setulb``, and in
each round the points all running starts ask for are evaluated in one kernel
call; each start takes exactly the iterates ``scipy.optimize.minimize`` would
take from it alone.  So :func:`fit_networks` runs the starts of several fits
in one lockstep, each fit ending as it would alone; :func:`fit` is its
one-network case.
Parameters are validated (as :class:`LsmParams`) only for the result, not per
evaluation.  Starts compete on their L-BFGS-B log-likelihood; the winning
start, if it stops short of the gradient tolerance, is finished by Newton steps
on the gradient with the kernel's exact Hessian.  Distances do not change under
translation or rotation of all positions, so the Hessian is singular along
those directions; they are known in closed form, so the polish projects them
out and factors the Hessian once, and each of its steps is a solve with that
one factorization.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import scipy_extension, substream
from .mdsinit import mds_init

__all__ = [
    "LsmParams",
    "FitConfig",
    "FitResult",
    "StartRecord",
    "RefinedEstimates",
    "FitError",
    "pair_affinity",
    "log_likelihood",
    "log_likelihood_gradient",
    "fit",
    "fit_networks",
    "refine_network",
]

SE_FLOOR = 1e-8  # degenerate standard errors are floored for stability


class FitError(RuntimeError):
    """The network cannot be fit; the message says why."""


@dataclass(frozen=True)
class LsmParams:
    """Full parameter set (positions, intercept, slope, node effects)."""

    z_d: np.ndarray
    z_r: np.ndarray
    alpha: float
    beta: float
    delta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        z_d = np.atleast_2d(np.asarray(self.z_d, dtype=float))
        z_r = np.atleast_2d(np.asarray(self.z_r, dtype=float))
        delta = np.asarray(self.delta, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if z_d.shape[1] != z_r.shape[1]:
            raise ValueError("z_d and z_r must share the latent dimension")
        if z_d.shape[1] < 1:
            raise ValueError("latent dimension must be >= 1")
        if delta.shape != (z_d.shape[0],) or gamma.shape != (z_r.shape[0],):
            raise ValueError("node effect lengths must match position counts")
        if not (self.beta > 0):
            raise ValueError("beta must be strictly positive")
        arrays = (z_d, z_r, delta, gamma)
        if not all(np.all(np.isfinite(a)) for a in arrays) or not (
            math.isfinite(self.alpha) and math.isfinite(self.beta)
        ):
            raise ValueError("all parameters must be finite")
        object.__setattr__(self, "z_d", z_d)
        object.__setattr__(self, "z_r", z_r)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def dim(self):
        return self.z_d.shape[1]

    def affinity(self):
        """Pair affinities ``eta_ij = alpha - beta * ||z_d_i - z_r_j||^2``, all pairs."""
        return self.alpha - self.beta * _sqdist(self.z_d, self.z_r)

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "z_d": self.z_d.tolist(),
            "z_r": self.z_r.tolist(),
            "delta": self.delta.tolist(),
            "gamma": self.gamma.tolist(),
            "dim": self.dim,
        }


@dataclass(frozen=True)
class FitConfig:
    dim: int = 2
    max_iter: int = 500
    grad_tol: float = 1e-6
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.grad_tol > 0):
            raise ValueError("grad_tol must be > 0")
        if not math.isfinite(self.grad_tol):
            raise ValueError("grad_tol must be finite")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass(frozen=True)
class StartRecord:
    """Where one start of a fit ended under L-BFGS-B, before any polish."""

    kind: str  # "mds" (start 0, classical scaling) or "random"
    log_likelihood: float  # at the start's end point; -inf if it diverged
    iterations: int
    grad_norm: float  # max |gradient| there
    stop: str  # the stop reason setulb gave, e.g. "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"


@dataclass(frozen=True)
class FitResult:
    params: LsmParams
    log_likelihood: float
    iterations: int
    grad_norm: float
    restart_index: int
    converged: bool
    # one StartRecord per start, in restart order; not in to_dict() or ==
    restarts: tuple = field(default=(), compare=False)

    def to_dict(self):
        d = self.params.to_dict()
        d["log_likelihood"] = self.log_likelihood
        d["converged"] = self.converged
        return d


@dataclass(frozen=True)
class RefinedEstimates:
    """Model-based estimates for every pair, including unobserved ones."""

    donor_labels: tuple
    recipient_labels: tuple
    eta: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray

    @property
    def mu(self):
        """Compatibilities on the full scale, ``eta + delta + gamma``."""
        return self.eta + self.delta[:, None] + self.gamma[None, :]


def _sqdist(z_d, z_r):
    # ||z_d_i - z_r_j||^2 for all pairs, of one pair of position arrays
    # (n, dim) or of each pair in stacks (K, n, dim), summed one axis at a
    # time in place, with no (n_d, n_r, dim) difference array.  The even and
    # odd axes are summed apart and added last: the order of
    # np.einsum("ijk,ijk->ij", u, u) over the differences u, so the two give
    # the same bits at dims 1 and 2 on any build (and up to dim 7 on common
    # ones).  As in the einsum, a square that overflows is inf without a
    # warning.
    dim = z_d.shape[-1]
    sums = [None, None]  # even axes, odd axes
    with np.errstate(over="ignore"):
        for k in range(dim):
            u = z_d[..., :, None, k] - z_r[..., None, :, k]
            u *= u
            if sums[k % 2] is None:
                sums[k % 2] = u
            else:
                sums[k % 2] += u
    if dim > 1:
        sums[0] += sums[1]
    return sums[0]


def pair_affinity(params, i, j):
    """alpha - beta * squared Euclidean distance between nodes i and j."""
    d2 = np.sum((params.z_d[i] - params.z_r[j]) ** 2)
    return params.alpha - params.beta * d2


def _check_dims(params, net):
    if params.z_d.shape[0] != net.n_d or params.z_r.shape[0] != net.n_r:
        raise ValueError("parameter dimensions do not match network")


def _floored(se):
    return np.maximum(se, SE_FLOOR)


def _node_constant(se):
    """The ``-log(2 pi se^2) / 2`` sum of one side's node terms, standard errors floored."""
    s = _floored(se)
    return -0.5 * np.sum(np.log(2.0 * np.pi * s * s))


class _Objective:
    """The fit's one kernel: log-likelihood, gradient and Hessian on a stack of networks.

    The networks share one shape and one observation mask.  What does not
    depend on the parameters (the edge weights, the floored standard errors,
    their squares and the ``log(2 pi se^2)`` sums) is computed once, when the
    object is built, with a leading network axis; each evaluation shares the
    squared distances, eta and the residuals between the value and the
    gradient.  The mask is read only when the object is built: an unobserved
    pair is weight 0 at infinite variance, so its weighted residual is 0 with
    no mask test.  The optimizer vector is ``(z_d, z_r, alpha)``, the
    :func:`pack_params` layout up to b, with beta at the gauge value 1 and the
    node effects at the node weights; its slices are the parameters, and no
    :class:`LsmParams` is built.  Every evaluation names its network:
    :meth:`edge_terms` evaluates a stack of such vectors, row ``k`` against
    network ``which[k]``, in one pass of whole-stack array operations, and
    every other evaluation is its one-row case or builds on it.
    :meth:`loss` gives ``(-ll, -gradient)`` per row for :func:`minimize`,
    with ``_BIG`` or zeros in place of non-finite values.  :meth:`at` and
    :meth:`hessian` serve the polish and the result at one vector of network
    ``j``; :meth:`gauge_basis` depends on no network.
    """

    def __init__(self, nets, dim):
        nets = list(nets)
        first = nets[0]
        m = first.edge_mask
        for net in nets[1:]:
            if (net.n_d, net.n_r) != (first.n_d, first.n_r):
                raise ValueError("networks of one kernel must share their shape")
            if not np.array_equal(net.edge_mask, m):
                raise ValueError("networks of one kernel must share their observation mask")
        self.nets, self.dim = nets, dim
        self.n_d, self.n_r = first.n_d, first.n_r
        # the weight is zeroed too: it may be NaN there, and NaN / inf is NaN
        self.w = np.where(m, np.stack([net.edge_weight for net in nets]), 0.0)
        se = _floored(np.stack([net.edge_se for net in nets]))
        self.s, self.se2 = np.ascontiguousarray(se[:, m]), np.where(m, se * se, np.inf)
        # flat indices of the observed pairs, or None when every pair is observed
        self.observed = None if m.all() else np.flatnonzero(m)
        c_edge = -0.5 * np.sum(np.log(2.0 * np.pi * self.s * self.s), axis=1)
        # per network, the constants of the edge, donor and recipient terms
        self.c = np.array([(c, _node_constant(net.donor_se), _node_constant(net.recipient_se))
                           for net, c in zip(nets, c_edge)])
        self.nzd = self.n_d * dim
        self.nz = self.nzd + self.n_r * dim

    def _rows(self, which):
        """The per-network arrays for rows from networks ``which`` (one index per row).

        A one-network kernel returns its arrays as they are, whatever
        ``which`` is: their leading axis of 1 broadcasts over the rows, so
        nothing is gathered.
        """
        arrays = self.w, self.s, self.se2, self.c
        if len(self.nets) == 1:
            return arrays
        return tuple(a.take(which, axis=0) for a in arrays)

    def edge_terms(self, xs, which, beta=1.0):
        """The edge terms at each row of ``xs``, a ``(K, nz + 1)`` stack of optimizer vectors.

        Row ``k`` is evaluated against network ``which[k]``.  Returns the edge
        log-likelihoods ``(K,)``, their gradients over the rows ``(K, nz +
        1)``, the weighted residuals ``e`` and squared distances ``d2`` ``(K,
        n_d, n_r)``, and the rows' constants ``(K, 3)`` of the edge, donor and
        recipient terms; ``beta`` is the slope the distances enter with.  An
        unobserved pair's ``e`` is 0, and the ll sums observed residuals
        alone.  Each row gets the bits it would get alone on a one-network
        kernel: the reductions run over C-contiguous rows (the observed
        residuals are taken from the flat view, not by a boolean mask, whose
        result is laid out otherwise, and the floored errors of the observed
        edges are kept C-contiguous), and a non-finite row touches no other.
        """
        nzd, nz = self.nzd, self.nz
        w, s, se2, c = self._rows(which)
        k = xs.shape[0]
        z_d = xs[:, :nzd].reshape(k, self.n_d, self.dim)
        z_r = xs[:, nzd:nz].reshape(k, self.n_r, self.dim)
        d2 = _sqdist(z_d, z_r)
        # one buffer holds eta, then the residual, then the weighted residual e
        e = np.subtract(xs[:, nz, None, None], d2 if beta == 1.0 else beta * d2)
        np.subtract(w, e, out=e)
        observed = e.reshape(k, -1)
        if self.observed is not None:
            observed = np.take(observed, self.observed, axis=1)
        scaled = observed / s
        ll = c[:, 0] - 0.5 * np.square(scaled, out=scaled).sum(axis=1)
        np.divide(e, se2, out=e)
        g = np.empty((k, nz + 1))
        # the position blocks of g, as (K, n, dim) views; each is written once
        g_d, g_r = g[:, :nzd].reshape(z_d.shape), g[:, nzd:nz].reshape(z_r.shape)
        pull = e.sum(axis=2)[..., None] * z_d
        pull -= e @ z_r
        np.multiply(pull, -2.0 * beta, out=g_d)
        pull = e.transpose(0, 2, 1) @ z_d
        pull -= e.sum(axis=1)[..., None] * z_r
        np.multiply(pull, 2.0 * beta, out=g_r)
        g[:, nz] = e.reshape(k, -1).sum(axis=1)
        return ll, g, e, d2, c

    def values(self, xs, which):
        """(ll ``(K,)``, gradient ``(K, nz + 1)``) at each row of ``xs``, non-finite values kept.

        This is :func:`log_likelihood` and its gradient at beta 1 with the
        node effects at the node weights, cut to what the optimizer carries.
        There the node residuals are exactly 0, so their terms are left out,
        as are the b slot and the node slots of the gradient; both share
        :meth:`edge_terms` and add the constants in the same order, so both
        give the same bits.
        """
        ll, g, _, _, c = self.edge_terms(xs, which)
        ll += c[:, 1]
        ll += c[:, 2]
        return ll, g

    def at(self, x, j):
        """(ll, gradient over ``x``) at one optimizer vector of network ``j``: :meth:`values`."""
        ll, g = self.values(x[None, :], [j])
        return float(ll[0]), g[0]

    def loss(self, xs, which):
        """(-ll, -gradient) at each row of ``xs``, the values :func:`minimize` descends.

        A row whose ll is not finite gets ``_BIG``, and one whose gradient
        has a non-finite entry gets a zero gradient, so line searches back
        off; the other rows are untouched.
        """
        ll, g = self.values(xs, which)
        np.negative(g, out=g)
        if not np.isfinite(g).all():  # one test of the stack, the rows only when it fails
            g[~np.isfinite(g).all(axis=1)] = 0.0
        return np.where(np.isfinite(ll), -ll, _BIG), g

    def gauge_basis(self, x):
        """Orthonormal basis, as columns, of the gauge directions at ``x``.

        Distances do not change under a common translation or rotation of all
        positions: one translation per axis, and per pair of axes ``(j, k)``
        the rotation generator that moves each position by ``(-z_k, z_j)`` in
        those axes.  Alpha does not move along any of them.
        """
        dim, nz = self.dim, self.nz
        z = x[:nz].reshape(-1, dim)
        pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
        moves = np.zeros((dim + len(pairs),) + z.shape)
        for axis in range(dim):
            moves[axis, :, axis] = 1.0
        for col, (j, k) in enumerate(pairs, start=dim):
            moves[col, :, j] = -z[:, k]
            moves[col, :, k] = z[:, j]
        basis = np.zeros((nz + 1, len(moves)))
        basis[:nz] = moves.reshape(len(moves), nz).T
        return np.linalg.qr(basis)[0]

    def hessian(self, x, j):
        """Exact Hessian of network ``j``'s log-likelihood over ``x = (z_d, z_r, alpha)``.

        The node effects couple to nothing (their Hessian is the diagonal
        -1/se^2) and beta is held at 1, so neither has a row.  The matrix is
        exactly symmetric.  It builds on the edge pass, :meth:`edge_terms`.
        """
        n_d, n_r, dim, nzd, nz = self.n_d, self.n_r, self.dim, self.nzd, self.nz
        e = self.edge_terms(x[None, :], [j])[2][0]
        c = 1.0 / self.se2[j]
        u = x[:nzd].reshape(n_d, 1, dim) - x[nzd:nz].reshape(1, n_r, dim)
        v = np.sqrt(c)[:, :, None] * u
        cuu = v[:, :, :, None] * v[:, :, None, :]  # c_ij u_ij u_ij^T, (n_d, n_r, dim, dim)
        eye = np.eye(dim)
        h = np.zeros((nz + 1, nz + 1))

        cross = 4.0 * cuu + 2.0 * e[:, :, None, None] * eye
        h[:nzd, nzd:nz] = cross.transpose(0, 2, 1, 3).reshape(nzd, nz - nzd)
        h[nzd:nz, :nzd] = h[:nzd, nzd:nz].T
        for axis, start, n in ((1, 0, n_d), (0, nzd, n_r)):
            blocks = -4.0 * cuu.sum(axis=axis)
            blocks -= 2.0 * e.sum(axis=axis)[:, None, None] * eye
            rows = start + np.arange(n * dim).reshape(n, dim)
            h[rows[:, :, None], rows[:, None, :]] = blocks

        cu = c[:, :, None] * u
        h[nz, :nz] = h[:nz, nz] = 2.0 * np.concatenate(
            [cu.sum(axis=1).ravel(), -cu.sum(axis=0).ravel()]
        )
        h[nz, nz] = -c.sum()
        return h


def _evaluate(params, net):
    """(ll, gradient in :func:`pack_params` order, b included) of ``params`` on ``net``."""
    _check_dims(params, net)
    x = np.concatenate([params.z_d.ravel(), params.z_r.ravel(), [params.alpha]])
    ll, g, e, d2, c = _Objective([net], params.dim).edge_terms(x[None, :], [0], params.beta)
    ll = ll[0]
    sd, sr = _floored(net.donor_se), _floored(net.recipient_se)
    r_d = net.donor_weight - params.delta
    r_r = net.recipient_weight - params.gamma
    ll += c[0, 1]
    ll += -0.5 * np.sum((r_d / sd) ** 2)
    ll += c[0, 2]
    ll += -0.5 * np.sum((r_r / sr) ** 2)
    g_b = params.beta * (-(e[0] * d2[0]).sum())
    return float(ll), np.concatenate([g[0], [g_b], r_d / (sd * sd), r_r / (sr * sr)])


def log_likelihood(params, net):
    """Gaussian log-likelihood of the observed node and edge weights.

    Edge terms use the pair affinity eta_ij as the mean; node terms use the
    node effects.  Only observed (masked-true) edges contribute.
    """
    return _evaluate(params, net)[0]


def log_likelihood_gradient(params, net):
    """Analytic gradient of :func:`log_likelihood` as a flat vector.

    Packing order matches :func:`pack_params`: z_d rows, z_r rows, alpha,
    b = log(beta), delta, gamma.  The slope derivative is taken with respect
    to the unconstrained b, i.e. chained through beta = exp(b).
    """
    return _evaluate(params, net)[1]


def pack_params(params):
    """Flatten parameters: z_d rows, z_r rows, alpha, b = log(beta), delta, gamma.

    The optimizer vector of :func:`fit` is the first ``(n_d + n_r) * dim + 1``
    slots, taken in the gauge beta = 1.
    """
    return np.concatenate(
        [
            params.z_d.ravel(),
            params.z_r.ravel(),
            [params.alpha, math.log(params.beta)],
            params.delta,
            params.gamma,
        ]
    )


def unpack_params(vec, n_d, n_r, dim):
    """Inverse of :func:`pack_params`."""
    k = 0
    z_d = vec[k : k + n_d * dim].reshape(n_d, dim)
    k += n_d * dim
    z_r = vec[k : k + n_r * dim].reshape(n_r, dim)
    k += n_r * dim
    alpha, b = vec[k], vec[k + 1]
    k += 2
    delta = vec[k : k + n_d]
    gamma = vec[k + n_d :]
    return LsmParams(z_d, z_r, float(alpha), math.exp(min(float(b), 300.0)), delta, gamma)


_BIG = 1e25  # stands in for a non-finite objective so line searches back off
_POLISH_STEPS = 4  # Newton steps at most in the polish
_MAXCOR = 20  # L-BFGS-B memory: the corrections each start keeps
_MAXLS = 20  # line-search steps at most per L-BFGS-B iteration
_MAXFUN = 15000  # evaluations per start, counted as scipy.optimize counts them
_FG, _NEW_X, _STOP = 3, 1, 5  # setulb task codes: evaluate at x, an iterate ended, stop
_lbfgsb = scipy_extension("optimize._lbfgsb")  # L-BFGS-B's C core, without scipy.optimize
_flapack = scipy_extension("linalg._flapack")  # LAPACK for the polish, without scipy.linalg
# How scipy.optimize._lbfgsb_py words a setulb task (status, reason); copied,
# as importing that module imports the whole package.
_STATUS_MESSAGES = {0: "START", 1: "NEW_X", 2: "RESTART", 3: "FG", 4: "CONVERGENCE", 5: "STOP",
                    6: "WARNING", 7: "ERROR", 8: "ABNORMAL"}
_TASK_MESSAGES = {
    0: "", 301: "", 302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL", 402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT", 502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL", 504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS", 602: "STP = STPMAX", 603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION", 702: "FACTR < 0", 703: "FTOL < 0", 704: "GTOL < 0",
    705: "XTOL < 0", 706: "STP < STPMIN", 707: "STP > STPMAX", 708: "STPMIN < 0",
    709: "STPMAX < STPMIN", 710: "INITIAL G >= 0", 711: "M <= 0", 712: "N <= 0",
    713: "INVALID NBD",
}


@dataclass(frozen=True)
class LbfgsResult:
    """Where each start of :func:`minimize` stopped, one row per start."""

    x: np.ndarray  # (K, n) final points
    fun: np.ndarray  # (K,) objective values there (the last evaluated, as scipy reports)
    jac: np.ndarray  # (K, n) gradients there
    iterations: np.ndarray  # (K,) L-BFGS-B iterations
    stops: tuple  # (K,) the stop reason of each start's final setulb task

    @property
    def nit(self):
        """L-BFGS-B iterations over all starts."""
        return int(self.iterations.sum())


def minimize(objective, x0, max_iter, grad_tol, networks):
    """L-BFGS-B from each row of ``x0``, all starts in lockstep on one kernel.

    Each start is its own L-BFGS-B state machine, driven straight through
    ``setulb`` of SciPy's compiled ``_lbfgsb``, which
    :func:`netlsm._util.scipy_extension` loads without importing
    :mod:`scipy.optimize`, as ``scipy.optimize.minimize(...,
    method="L-BFGS-B")`` drives it: no bounds, ``maxcor`` 20, ``ftol`` 0,
    ``gtol`` = ``grad_tol``, ``maxls`` 20, a stop after ``max_iter``
    iterations or, at the end of an iteration, after more than 15000
    evaluations, an evaluation skipped where x has not moved since the last.
    In each round every running start advances to its next request for the
    value and gradient, and all requested points are evaluated in one call of
    :meth:`_Objective.loss`, whose rows are computed apart; so each start
    takes exactly the iterates it would take alone under
    ``scipy.optimize.minimize``, and returns the same x, fun, jac and
    iteration count.  ``networks`` gives, per start, the index of the network
    of ``objective`` it descends on.  Each start's final ``setulb`` task is
    decoded into its stop reason as scipy words it, e.g. ``"CONVERGENCE:
    RELATIVE REDUCTION OF F <= FACTR*EPSMCH"``, from a copy of the tables of
    ``scipy.optimize._lbfgsb_py``.
    """
    x = np.array(x0, dtype=float)  # setulb updates each row in place
    n_starts, n = x.shape
    # f and g are what setulb is handed: f the last value evaluated, g its
    # gradient, which setulb may overwrite in place, so seen_g keeps it
    f, g, seen_g = np.zeros(n_starts), np.zeros((n_starts, n)), np.zeros((n_starts, n))
    seen_x = np.full((n_starts, n), np.nan)  # the last point evaluated
    nfev, iterations = [0] * n_starts, [0] * n_starts  # per start, Python ints
    lower, upper, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)  # no bounds
    wa = np.zeros((n_starts, 2 * _MAXCOR * n + 5 * n + 11 * _MAXCOR * _MAXCOR + 8 * _MAXCOR))
    iwa = np.zeros((n_starts, 3 * n), np.int32)
    task, ln_task = np.zeros((n_starts, 2), np.int32), np.zeros((n_starts, 2), np.int32)
    lsave, isave = np.zeros((n_starts, 4), np.int32), np.zeros((n_starts, 44), np.int32)
    dsave = np.zeros((n_starts, 29))
    rows = list(zip(x, g, wa, iwa, task, lsave, isave, dsave, ln_task))

    def advance(k):
        """Run start k to its next evaluation request (True) or to its end (False)."""
        x_k, g_k, wa_k, iwa_k, task_k, lsave_k, isave_k, dsave_k, ln_task_k = rows[k]
        while True:
            _lbfgsb.setulb(_MAXCOR, x_k, lower, upper, nbd, f[k], g_k, 0.0, grad_tol, wa_k,
                           iwa_k, task_k, lsave_k, isave_k, dsave_k, _MAXLS, ln_task_k)
            if task_k[0] == _FG:
                return True
            if task_k[0] != _NEW_X:
                return False
            iterations[k] += 1
            if iterations[k] >= max_iter:
                task_k[:] = _STOP, 504  # total iterations reached the limit
            elif nfev[k] > _MAXFUN:
                task_k[:] = _STOP, 502  # total evaluations exceed the limit

    running = np.arange(n_starts)
    while True:
        running = running[[advance(k) for k in running.tolist()]]
        if not running.size:
            break
        xs = x[running]
        fresh = running[(xs != seen_x[running]).any(axis=1)]
        if fresh.size:
            if fresh.size < running.size:
                xs = x[fresh]
            f[fresh], seen_g[fresh] = objective.loss(xs, networks[fresh])
            seen_x[fresh] = xs
            for k in fresh.tolist():
                nfev[k] += 1
        g[running] = seen_g[running]
    stops = tuple(f"{_STATUS_MESSAGES[status]}: {_TASK_MESSAGES[reason]}"
                  for status, reason in task.tolist())
    return LbfgsResult(x=x, fun=f, jac=g, iterations=np.array(iterations), stops=stops)


def _start_points(net, config):
    """The initial optimizer vectors ``(z_d, z_r, alpha)``, one per start, start 0 first.

    Start 0 is the classical-scaling positions of :func:`mds_init`, with
    alpha in closed form for them: the mean over observed edges of ``w +
    ||z_d - z_r||^2``.  Restarts are random.
    """
    nz = (net.n_d + net.n_r) * config.dim
    z_d0, z_r0 = mds_init(net, config.dim)
    alpha0 = np.mean((net.edge_weight + _sqdist(z_d0, z_r0))[net.edge_mask])
    starts = [np.concatenate([z_d0.ravel(), z_r0.ravel(), [alpha0]])]
    for k in range(config.restarts):
        rng = substream(config.seed, "lsm-restart", str(k))
        starts.append(0.5 * rng.standard_normal(nz + 1))
    return starts


def _full_params(x, net, dim):
    """:class:`LsmParams` at optimizer vector ``x``: beta 1, node effects at their MLE."""
    nzd, nz = net.n_d * dim, (net.n_d + net.n_r) * dim
    z_d, z_r = x[:nzd].reshape(net.n_d, dim).copy(), x[nzd:nz].reshape(net.n_r, dim).copy()
    return LsmParams(z_d, z_r, float(x[nz]), 1.0, net.donor_weight.copy(),
                     net.recipient_weight.copy())


def _polish(objective, x, j):
    """Newton steps on the gradient itself, with the exact Hessian factored once.

    Near the optimum the objective changes by less than machine epsilon per
    step, so line-search methods stall with gradient norms around 1e-6; the
    gradient is still computed accurately, so root-finding on it tightens the
    stationarity a few more orders of magnitude.  ``x`` is an optimizer
    vector ``(z_d, z_r, alpha)`` of network ``j`` of ``objective``, the
    :class:`_Objective` that also served L-BFGS-B; the gradient and Hessian
    come from it alone.

    The likelihood is flat along the translation and rotation directions, so
    the Hessian ``H`` of :meth:`_Objective.hessian` is singular there.  With
    ``Q`` the :meth:`_Objective.gauge_basis` at ``x`` and ``s = max|diag H|``,
    ``H - s Q Q^T`` is built and LU-factored once per call, at ``x``; each
    step is then one solve with that factorization,
    ``(H - s Q Q^T) step = g - Q Q^T g``: the pseudo-inverse Newton step at
    ``x``, with the gauge directions projected out, applied to the gradient
    at the current point.  The factorization and the solves are LAPACK's
    ``dgetrf`` and ``dgetrs`` from SciPy's compiled ``_flapack``, the calls
    ``scipy.linalg.lu_factor`` and ``lu_solve`` make, without importing
    :mod:`scipy.linalg`.  Steps are accepted only if they shrink the
    gradient norm; the first that does not ends the polish, and an exactly
    singular system (``dgetrf`` reports a zero pivot) or a non-finite one
    leaves ``x`` as it is.
    """
    g = objective.at(x, j)[1]
    gnorm = np.max(np.abs(g))
    if gnorm == 0.0:
        return x
    h = objective.hessian(x, j)
    q = objective.gauge_basis(x)
    h -= np.max(np.abs(np.diag(h))) * (q @ q.T)
    if not np.all(np.isfinite(h)):
        return x
    lu, piv, info = _flapack.dgetrf(h)
    if info > 0:  # U[info-1, info-1] is exactly zero
        return x
    for _ in range(_POLISH_STEPS):
        if gnorm == 0.0:
            break
        x_new = x - _flapack.dgetrs(lu, piv, g - q @ (q.T @ g))[0]
        if not np.all(np.isfinite(x_new)):
            break
        g_new = objective.at(x_new, j)[1]
        gnorm_new = np.max(np.abs(g_new))
        if not np.all(np.isfinite(g_new)) or gnorm_new >= gnorm:
            break
        x, g, gnorm = x_new, g_new, gnorm_new
    return x


def _overflow_error(objective, j):
    """Network ``j``'s :class:`FitError` if its sum of (weight / stderr)^2 overflows, else None."""
    net = objective.nets[j]
    with np.errstate(over="ignore"):  # an overflow makes every start diverge
        ratio = np.abs(objective.w[j][net.edge_mask] / objective.s[j])
        if math.isfinite(np.sum(ratio * ratio)):
            return None
    i, k = np.argwhere(net.edge_mask)[np.argmax(ratio)]
    return FitError(f"edge {net.donor_labels[i]},{net.recipient_labels[k]} has weight "
                    f"{net.edge_weight[i, k]:g} and stderr {net.edge_se[i, k]:g}: the sum "
                    "of squared weight/stderr ratios overflows, so no fit can start")


def _finish(objective, j, config, res, rows):
    """The :class:`FitResult` of network ``j`` of ``objective`` from its starts' rows of ``res``.

    The start with the lowest L-BFGS-B value wins, ties within 1e-12 going to
    the lowest restart index and diverged starts skipped; it alone is
    polished, if it stopped short of ``config.grad_tol``.  The result's
    ``restarts`` records where every start stopped.
    """
    best, starts = None, []
    for k, r in enumerate(rows):
        fun = res.fun[r]
        diverged = not math.isfinite(fun) or fun >= _BIG / 2
        if not diverged and (best is None or fun < res.fun[rows[best]] - 1e-12):
            best = k
        starts.append(StartRecord(kind="random" if k else "mds",
                                  log_likelihood=-math.inf if diverged else -float(fun),
                                  iterations=int(res.iterations[r]),
                                  grad_norm=float(np.max(np.abs(res.jac[r]))), stop=res.stops[r]))
    if best is None:
        return FitError("all optimizer restarts diverged")
    x = res.x[rows[best]]
    if np.max(np.abs(res.jac[rows[best]])) > config.grad_tol:
        x = _polish(objective, x, j)
    ll, g = objective.at(x, j)
    gnorm = float(np.max(np.abs(g)))
    return FitResult(params=_full_params(x, objective.nets[j], config.dim), log_likelihood=ll,
                     iterations=int(res.iterations[rows[best]]), grad_norm=gnorm,
                     restart_index=best, converged=gnorm <= config.grad_tol,
                     restarts=tuple(starts))


def fit_networks(nets, config):
    """:func:`fit` of each network of ``nets``, all in one lockstep.

    The networks must share their shape and observation mask (else
    ``ValueError``).  Each network gets the starts, the winner, the polish
    and the :class:`FitResult` that :func:`fit` would give it alone, bit for
    bit, or the :class:`FitError` that :func:`fit` would raise for it, which
    is returned in its place and leaves the other networks' results as they
    are; no networks give ``[]``.  The starts of every network run in one
    :func:`minimize` call on one :class:`_Objective` over the stack, each
    round's points of all networks evaluated in one kernel call, and each
    network's winner is polished and evaluated on that kernel by its index.
    """
    nets = list(nets)
    if not nets:
        return []
    objective = _Objective(nets, config.dim)
    outcomes = [_overflow_error(objective, j) for j in range(len(nets))]
    live = [j for j, error in enumerate(outcomes) if error is None]
    if not live:
        return outcomes
    starts = [_start_points(nets[j], config) for j in live]
    owner = np.repeat(live, [len(points) for points in starts])
    res = minimize(objective, [x for points in starts for x in points], config.max_iter,
                   config.grad_tol, owner)
    for j in live:
        outcomes[j] = _finish(objective, j, config, res, np.flatnonzero(owner == j))
    return outcomes


def fit(net, config):
    """Maximum likelihood fit via L-BFGS-B from a classical-scaling start + random restarts.

    The first start is the classical scaling of the edge weights
    (:func:`mds_init`, see :func:`_start_points`); the ``config.restarts``
    further starts are random.  The start whose L-BFGS-B result has the
    highest log-likelihood wins, ties within 1e-12 going to the lowest
    restart index; it alone is polished, if it stopped short of
    ``config.grad_tol``.
    Restarts whose objective becomes non-finite are discarded; if all diverge
    a :class:`FitError` is raised, as it is before any start when the sum of
    (weight / stderr)^2 over the edges overflows, naming the largest ratio's edge.

    Beta is held at 1, the gauge that fixes the position scale, so the
    result has ``beta == 1`` and positions in that gauge.  The node effects
    have a closed form, the observed node weights: the result's delta/gamma
    are copies of them.  L-BFGS-B carries only (z_d, z_r, alpha).  This is
    the one-network case of :func:`fit_networks`: all starts run in lockstep
    in one :func:`minimize` call, and one :class:`_Objective` serves them,
    the polish and the reported log-likelihood and gradient norm; the one
    :class:`LsmParams` a fit builds is its result.
    """
    [outcome] = fit_networks([net], config)
    if isinstance(outcome, FitError):
        raise outcome
    return outcome


def refine_network(net, result):
    """Model-based estimates for every pair of ``net``, masked pairs included."""
    params = result.params
    _check_dims(params, net)
    return RefinedEstimates(
        donor_labels=net.donor_labels,
        recipient_labels=net.recipient_labels,
        eta=params.affinity(),
        delta=params.delta.copy(),
        gamma=params.gamma.copy(),
    )
