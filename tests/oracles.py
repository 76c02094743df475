"""Independent numerical oracles used by the tests.

These deliberately avoid the library's exact kernel evaluators:
quadrature over the scaling fiber, per-breakpoint and per-corner sums
of projection traces, direct commutator products and column loops
provide a second computational route for every derived identity.  The
per-instance verify runners evaluate each sweep instance through the
single-matrix certificates,
against which the CLI's stacked suites are compared; the rounding
suite's runner rounds every instance from scratch, against the CLI's
one corner stage per group.
"""

import json

import numpy as np

from syncround.cli import ROUNDING_ETAS
from syncround.games import graph_coloring_game
from syncround.haagerup import (
    commutator_certificate,
    connes_certificate,
    joint_spectral_measure,
    lp_duality_check,
    measure_moments,
    threshold_chi_distance,
)
from syncround.rounding import round_strategy, verify_dual_distance
from syncround.sampling import (
    ginibre,
    ginibre_draw,
    random_psd,
    random_pvm,
    rng_for,
    wishart,
)
from syncround.spectral import (
    DUALITY_TOL,
    FAMILY_TOL,
    HERMITIAN_TOL,
    IDENTITY_TOL,
    _element,
    _first_failure,
    _unstack,
    eigh,
)
from syncround.strategies import cyclic_coloring_strategy, perturb_b_side


def fiber_quadrature_indicator(x, y, c_x, c_y, n_points=10_000):
    """Midpoint quadrature of the fiber integral for indicator functions.

    Computes int_0^inf 2 t Tr(chi_(c_x t, inf)(x) chi_(c_y t, inf)(y)) dt,
    which is the weight integral of chi_(c_x,inf)(x-hat) chi_(c_y,inf)(y-hat)
    over the scaling fiber at exponent 2.
    """
    wx, vx = np.linalg.eigh(np.asarray(x, dtype=complex))
    wy, vy = np.linalg.eigh(np.asarray(y, dtype=complex))
    overlap = np.abs(vx.conj().T @ vy) ** 2
    upper = max(float(wx.max()) / c_x, float(wy.max()) / c_y) * (1 + 1e-9)
    if upper <= 0:
        return 0.0
    step = upper / n_points
    ts = (np.arange(n_points) + 0.5) * step
    above_x = (wx[None, :] > c_x * ts[:, None]).astype(float)
    above_y = (wy[None, :] > c_y * ts[:, None]).astype(float)
    per_t = np.sum((above_x @ overlap) * above_y, axis=1)
    return float(np.sum(2 * ts * per_t)) * step


def measure_integral(measure, fn):
    """Integral of a scalar function against a joint spectral measure,
    atom by atom: a float for one pair, one per pair, shape (N,), for a
    stack, whose padding entries of mass 0 are skipped."""
    rows = zip(np.atleast_2d(measure.lambdas), np.atleast_2d(measure.masses))
    sums = [sum(m * fn(l) for l, m in zip(*row) if m > 0) for row in rows]
    return _unstack(np.array(sums, dtype=float).reshape(measure.masses.shape[:-1]))


def atomic_indicator_integral(measure, c_x, c_y):
    """Exact atomic evaluation of the same indicator pair integral.

    Per atom at l the inner dr-integral of the indicator product is
    min(l / c_x, (1 - l) / c_y)^2; endpoint atoms drop out through the
    min, matching the vanishing of the indicators at 0.
    """
    return measure_integral(measure, lambda l: min(l / c_x, (1 - l) / c_y) ** 2)


def chi_distance_quadrature(x, y, n_points):
    """Midpoint quadrature of int 2t ||chi_(t,inf)(x) - chi_(t,inf)(y)||^2 dt."""
    wx, vx = np.linalg.eigh(np.asarray(x, dtype=complex))
    wy, vy = np.linalg.eigh(np.asarray(y, dtype=complex))
    upper = max(float(wx.max()), float(wy.max())) * (1 + 1e-9)
    if upper <= 0:
        return 0.0
    step = upper / n_points
    total = 0.0
    for k in range(n_points):
        t = (k + 0.5) * step
        px = vx[:, wx > t] @ vx[:, wx > t].conj().T
        py = vy[:, wy > t] @ vy[:, wy > t].conj().T
        diff = px - py
        total += 2 * t * float(np.trace(diff @ diff).real)
    return total * step


def corner_table_quadrature(rho_matrix, p_a, p_b, n_points):
    """Midpoint quadrature of int Tr(Q_t p Q_t p' Q_t) dt over thresholds."""
    w, v = np.linalg.eigh(np.asarray(rho_matrix, dtype=complex))
    upper = float(w.max()) * (1 + 1e-9)
    step = upper / n_points
    total = 0.0
    for k in range(n_points):
        t = (k + 0.5) * step
        cols = v[:, w > t]
        a = cols.conj().T @ p_a @ cols
        b = cols.conj().T @ p_b @ cols
        total += float(np.trace(a @ b).real)
    return total * step


def schmidt_coefficients(state_matrix):
    return np.linalg.svd(np.asarray(state_matrix), compute_uv=False)


def require_hermitian_formula(matrix, what="matrix"):
    """Hermitian validation by the deviation formula alone, on the whole
    stack at once: each matrix finite, with max |H - H*| within
    HERMITIAN_TOL (1 + max |H|); the first failing element is named."""
    h = np.asarray(matrix, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {h.shape}")
    if h.size == 0:
        raise ValueError(f"{what} must be non-empty")
    with np.errstate(invalid="ignore"):
        deviation = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = _first_failure(~np.isfinite(deviation))
    if bad is not None:
        entry = _first_failure(~np.isfinite(h[bad]))
        raise ValueError(
            f"{_element(what, bad)} has a non-finite entry {h[bad][entry]} at {entry}"
        )
    allowed = HERMITIAN_TOL * (1.0 + np.abs(h).max(axis=(-2, -1)))
    bad = _first_failure(deviation > allowed)
    if bad is not None:
        raise ValueError(
            f"{_element(what, bad)} is not Hermitian: max entry of |H - H*| is"
            f" {deviation[bad]:.3e} which exceeds the allowed {allowed[bad]:.3e}"
        )
    return h


def require_povm_psd_eigvalsh(family, what="POVM"):
    """The PSD half of POVM validation by least eigenvalues alone: each
    element of a finite Hermitian stack (..., A, n, n) must have its
    least ``eigvalsh`` eigenvalue at or above -FAMILY_TOL; the first
    failing element is named.  Returns the least eigenvalues."""
    low = np.linalg.eigvalsh(np.asarray(family, dtype=np.complex128))[..., 0]
    bad = _first_failure(~(low >= -FAMILY_TOL))
    if bad is not None:
        raise ValueError(f"{_element(what, bad)} is not PSD: min eigenvalue {low[bad]:.3e}")
    return low


def fix_phases_loop(vectors):
    """Column loop: the largest-magnitude entry of each column made real positive."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        a = v[i, j]
        if np.abs(a) > 0:
            v[:, j] *= np.conj(a) / np.abs(a)
    return v


def cluster_indices_loop(values, tol):
    """Clusters of an ascending spectrum, one eigenvalue at a time: each
    joins the current cluster when within tol of its last member."""
    groups = []
    for i, w in enumerate(values):
        if groups and w - values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in reversed(groups))


def corner_table_loop(pvms_a, decomp, questions):
    """Per-corner sum of gap_k Tr(c_k(p) c_k(p')) over compressions c_k to P_k."""
    na = len(pvms_a[questions[0]])
    gaps = decomp.values - np.append(decomp.values[1:], 0.0)
    data = np.zeros((len(questions), len(questions), na, na))
    for k, r in enumerate(decomp.ranks):
        basis = decomp.basis[:, :r]
        comp = {
            q: [basis.conj().T @ p @ basis for p in pvms_a[q]] for q in questions
        }
        for xi, x in enumerate(questions):
            for yi, y in enumerate(questions):
                for a in range(na):
                    for b in range(na):
                        data[xi, yi, a, b] += gaps[k] * float(
                            np.trace(comp[x][a] @ comp[y][b]).real
                        )
    return data


def tracial_table_loop(t, questions):
    """sum_k w_k tr_k(r^x_a r^y_b) of a tracial strategy, one block and one
    entry at a time."""
    na = t.n_answers
    data = np.zeros((len(questions), len(questions), na, na))
    for blk in t.blocks:
        for xi, x in enumerate(questions):
            for yi, y in enumerate(questions):
                for a in range(na):
                    for b in range(na):
                        data[xi, yi, a, b] += blk.weight / blk.dim * float(
                            np.trace(blk.pvms[x][a] @ blk.pvms[y][b]).real
                        )
    return data


def _cluster_projections(matrix):
    """Clustered PSD spectrum: each cluster's mean clipped at 0 (descending),
    its projection, and the clustering tolerance 1e-9 (1 + max |w|)."""
    dec = eigh(matrix)
    w = dec.eigenvalues
    tol = 1e-9 * (1.0 + float(np.abs(w).max()))
    values, projections = [], []
    for cluster in cluster_indices_loop(w, tol):
        values.append(max(float(np.mean(w[list(cluster)])), 0.0))
        v = dec.eigenvectors[:, list(cluster)]
        projections.append(v @ v.conj().T)
    return values, projections, tol


def _projection_above(values, projections, t):
    return sum((p for v, p in zip(values, projections) if v > t),
               np.zeros_like(projections[0]))


def chi_distance_breakpoints(x, y):
    """int 2t ||chi_t(x) - chi_t(y)||^2 dt summed interval by interval
    between consecutive positive spectral breakpoints."""
    xv, xp, xtol = _cluster_projections(x)
    yv, yp, ytol = _cluster_projections(y)
    zero_tol = max(xtol, ytol)
    points = sorted({v for v in xv + yv if v > zero_tol})
    total, prev = 0.0, 0.0
    for t in points:
        mid = (prev + t) / 2
        diff = _projection_above(xv, xp, mid) - _projection_above(yv, yp, mid)
        total += (t * t - prev * prev) * float(np.trace(diff @ diff).real)
        prev = t
    return total


def commutator_breakpoints(x, pvm):
    """int 2t sum_k ||[p_k, chi_t(x)]||^2 dt summed interval by interval."""
    xv, xp, tol = _cluster_projections(x)
    points = sorted(v for v in xv if v > tol)
    total, prev = 0.0, 0.0
    for t in points:
        proj = _projection_above(xv, xp, (prev + t) / 2)
        comm = sum(float(np.linalg.norm(p @ proj - proj @ p) ** 2) for p in pvm)
        total += (t * t - prev * prev) * comm
        prev = t
    return total


def commutator_direct(x, pvm):
    """sum_k ||[p_k, x]||^2 from the products p_k x - x p_k, one outcome at
    a time: the first term of the commutator chain without the eigenbasis."""
    x = np.asarray(x, dtype=complex)
    return sum(float(np.linalg.norm(p @ x - x @ p) ** 2) for p in pvm)


def sqrt_density_dense(state, cut=1e-13):
    """rho^(1/2) of the reduced density rho = xi xi* of the state matrix
    ``state``, by an eigendecomposition of rho rather than an SVD of xi.
    Eigenvalues below ``cut`` are roundoff on rho's kernel (about 1e-17,
    whose square root would be 3e-9) and are taken as 0."""
    rho = state @ state.conj().T
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    return (v * np.sqrt(np.where(w < cut, 0.0, w))) @ v.conj().T


def symmetrized_table_dense(pvms_a, state, questions):
    """T[x, y, a, b] = Tr(p^x_a rho^(1/2) p^y_b rho^(1/2)) from the dense
    products rho^(1/2) p rho^(1/2), without rho's eigenbasis kernel."""
    root = sqrt_density_dense(state)
    p = np.array([pvms_a[q] for q in questions])
    return np.einsum("xaij,ybji->xyab", p, root @ p @ root).real


def commutator_sum_dense(mu, pvms_a, state, questions):
    """sum_x mu(x) sum_a ||p^x_a rho^(1/2) - rho^(1/2) p^x_a||_F^2 from the
    dense products, one element at a time."""
    root = sqrt_density_dense(state)
    return sum(
        weight * sum(float(np.linalg.norm(p @ root - root @ p) ** 2) for p in pvms_a[q])
        for weight, q in zip(mu, questions)
    )


def seesaw_value_loop(game, pvms_a, pvms_b, state):
    """sum nu(x, y) Tr(p^x_a M (q^y_b)^T M+) over the winning entries, one
    entry at a time; PVMs are indexed by question position."""
    total = 0.0
    for x in range(game.n_questions):
        for y in range(game.n_questions):
            if game.nu[x, y] == 0.0:
                continue
            for a in range(game.n_answers):
                for b in range(game.n_answers):
                    if game.predicate[x, y, a, b]:
                        total += game.nu[x, y] * float(
                            np.trace(
                                pvms_a[x][a] @ state @ pvms_b[y][b].T @ state.conj().T
                            ).real
                        )
    return total


def payoff_operator_kron(game, pvms_a, pvms_b):
    """sum nu(x, y) p^x_a (x) q^y_b over the winning entries, one np.kron each."""
    dim = pvms_a[0][0].shape[0] * pvms_b[0][0].shape[0]
    payoff = np.zeros((dim, dim), dtype=complex)
    for x in range(game.n_questions):
        for y in range(game.n_questions):
            if game.nu[x, y] == 0.0:
                continue
            for a in range(game.n_answers):
                for b in range(game.n_answers):
                    if game.predicate[x, y, a, b]:
                        payoff += game.nu[x, y] * np.kron(pvms_a[x][a], pvms_b[y][b])
    return payoff


def orthogonalize_povm_loop(povm):
    """Greedy rounding of one POVM at full size: per outcome by decreasing
    trace, the spectral projection above 1/2 of comp m comp, where comp
    projects onto the unassigned subspace; the residual goes to the
    outcome with the largest residual expectation.  Returns the PVM stack,
    distance_sq, budget, holds and the smallest distance of an eigenvalue
    met on the way from the 1/2 threshold."""
    ms = np.array(povm, dtype=complex)
    dim = ms.shape[-1]
    comp = np.eye(dim, dtype=complex)
    rs = np.zeros_like(ms)
    gap = np.inf
    for a in np.argsort(-np.trace(ms, axis1=1, axis2=2).real, kind="stable"):
        b = comp @ ms[a] @ comp
        dec = eigh((b + b.conj().T) / 2)
        gap = min(gap, float(np.abs(dec.eigenvalues - 0.5).min()))
        v = dec.eigenvectors[:, dec.eigenvalues > 0.5]
        r = v @ v.conj().T
        rs[a] = (r + r.conj().T) / 2
        comp = comp - rs[a]
    residual = (comp + comp.conj().T) / 2
    if float(np.trace(residual).real) > 1e-12:
        scores = np.trace(residual @ ms, axis1=1, axis2=2).real
        rs[int(np.argmax(scores))] += residual
    distance_sq = float(np.linalg.norm(ms - rs) ** 2) / dim
    purity = float(np.trace(ms @ ms, axis1=1, axis2=2).real.sum()) / dim
    budget = 9.0 * (1.0 - purity)
    return rs, distance_sq, budget, distance_sq <= budget + 1e-12, gap


def standard_form_dual_pinv(strategy, cut=1e-10):
    """The dual POVMs through the Moore-Penrose inverse square root of rho.

    p'^y_b = rho^(-1/2) xi conj(q^y_b) xi* rho^(-1/2) on the support of
    rho (eigenvalues >= ``cut``), plus the kernel projection of rho on
    the first answer: one eigendecomposition of rho and an inverse, where
    the library takes the polar part of one SVD of xi.
    """
    m = strategy.state
    rho = m @ m.conj().T
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    kept = w >= cut
    vs = v[:, kept]
    pinv_sqrt = (vs / np.sqrt(w[kept])) @ vs.conj().T
    kernel = np.eye(len(w)) - vs @ vs.conj().T
    dual = {}
    for q, family in strategy.pvms_b.items():
        ops = [pinv_sqrt @ m @ qb.conj() @ m.conj().T @ pinv_sqrt for qb in family]
        ops[0] = ops[0] + kernel
        dual[q] = [(op + op.conj().T) / 2 for op in ops]
    return dual


def save_game_loop(game):
    """The game document by explicit loops over (i, j, k, l): the
    off-diagonal majority sets the predicate default, and every i < j
    entry that differs from it is listed in lexicographic order."""
    import json

    nq, na = game.n_questions, game.n_answers
    entries = []
    for i in range(nq):
        for j in range(i, nq):
            if game.nu_exact is not None:
                w = game.nu_exact[i][j]
                if w == 0:
                    continue
                w_out = str(w)
            else:
                w_out = float(game.nu[i, j])
                if w_out == 0.0:
                    continue
            entries.append({"x": game.questions[i], "y": game.questions[j], "w": w_out})
    off_diag = [
        bool(game.predicate[i, j, k, l])
        for i in range(nq)
        for j in range(nq)
        if i != j
        for k in range(na)
        for l in range(na)
    ]
    default = 1 if sum(off_diag) * 2 >= len(off_diag) else 0
    pred_entries = []
    for i in range(nq):
        for j in range(i + 1, nq):
            for k in range(na):
                for l in range(na):
                    if bool(game.predicate[i, j, k, l]) != bool(default):
                        pred_entries.append(
                            {
                                "x": game.questions[i],
                                "y": game.questions[j],
                                "a": game.answers[k],
                                "b": game.answers[l],
                                "v": int(game.predicate[i, j, k, l]),
                            }
                        )
    doc = {
        "questions": list(game.questions),
        "answers": list(game.answers),
        "nu": entries,
        "predicate": {"default": default, "entries": pred_entries},
    }
    return json.dumps(doc, indent=2)


def pair_draw(seed, index, dims):
    """The (dim, x, y) of instance ``index`` of the connes, measure and
    duality suites, drawn one matrix at a time from its own stream."""
    rng = rng_for(seed, index)
    dim = int(rng.integers(1, dims + 1))
    return dim, random_psd(rng, dim), random_psd(rng, dim)


def commutator_draw(seed, index, dims):
    """The (dim, x, n_outcomes, pvm) of commutator instance ``index``: x
    scaled to unit Hilbert-Schmidt norm, pvm a list of projections."""
    rng = rng_for(seed, index)
    dim = int(rng.integers(1, dims + 1))
    x = random_psd(rng, dim)
    x = x / np.sqrt(float(np.trace(x @ x).real))
    n_outcomes = int(rng.integers(2, 5))
    return dim, x, n_outcomes, random_pvm(rng, dim, n_outcomes)


def fiber_commutator_inputs(dim, index):
    """The unit x and 4-outcome PVM of the benchmark's fiber pair at
    ``dim``, instance ``index``, drawn as the fiber-large workload does."""
    rng = np.random.default_rng([13, dim, index])
    x, _ = random_psd(rng, dim), random_psd(rng, dim)
    return x / np.sqrt(float(np.trace(x @ x).real)), random_pvm(rng, dim, 4)


def fiber_rd_commutator_inputs(dim, index):
    """The unit x and 4-outcome PVM of the ``fiber-rd`` output digests: x
    the Wishart matrix of a dim x dim/2 Ginibre draw, so of rank dim/2
    (the pair's full-rank y is drawn in between)."""
    rng = rng_for(31, dim, index)
    x = wishart(ginibre(ginibre_draw(rng, dim, dim // 2)))
    random_psd(rng, dim)
    pvm = random_pvm(rng, dim, 4)
    return x / np.sqrt(np.trace(x @ x).real), pvm


def connes_instance(seed, index, dims):
    """One `verify --suite connes` row, from the instance's own stream."""
    dim, x, y = pair_draw(seed, index, dims)
    cert = connes_certificate(x, y)
    return {
        "index": index,
        "dim": dim,
        "lhs": cert.lhs,
        "mid": cert.mid,
        "rhs": cert.rhs,
        "holds": cert.holds,
    }


def measure_instance(seed, index, dims):
    """One `verify --suite measure` row; the chi distance eigensolves x
    and y a second time."""
    dim, x, y = pair_draw(seed, index, dims)
    measure = joint_spectral_measure(x, y)
    moments = measure_moments(measure)
    pairs = {
        "norm_x_sq": (moments.norm_x_sq, float(np.trace(x @ x).real)),
        "norm_y_sq": (moments.norm_y_sq, float(np.trace(y @ y).real)),
        "inner_product": (moments.inner_product, float(np.trace(x @ y).real)),
        "total_mass": (measure.total_mass, float(np.trace((x + y) @ (x + y)).real)),
        "chi_dual_path": (moments.chi_distance, threshold_chi_distance(x, y)),
    }
    residuals = {name: abs(m - r) for name, (m, r) in pairs.items()}
    # each residual within IDENTITY_TOL of its reference's scale
    holds = all(abs(m - r) <= IDENTITY_TOL * (1 + abs(r)) for m, r in pairs.values())
    return {"index": index, "dim": dim, "residuals": residuals, "holds": holds}


def commutator_instance(seed, index, dims):
    """One `verify --suite commutator` row."""
    dim, x, n_outcomes, pvm = commutator_draw(seed, index, dims)
    cert = commutator_certificate(x, pvm)
    return {
        "index": index,
        "dim": dim,
        "n_outcomes": n_outcomes,
        "sum_comm_x": cert.sum_comm_x,
        "sum_comm_q": cert.sum_comm_q,
        "upper": cert.upper,
        "holds": cert.holds,
    }


def duality_instance(seed, index, dims):
    """One `verify --suite duality` row; each exponent eigensolves x."""
    dim, x, y = pair_draw(seed, index, dims)
    residuals = {
        "p2": lp_duality_check(x, y, 2.0),
        "p3": lp_duality_check(x, y, 3.0),
    }
    holds = all(r <= DUALITY_TOL for r in residuals.values())
    return {"index": index, "dim": dim, "residuals": residuals, "holds": holds}


VERIFY_INSTANCES = {
    "connes": connes_instance,
    "measure": measure_instance,
    "commutator": commutator_instance,
    "duality": duality_instance,
}


def rounding_instance(seed, index, dims):
    """One `verify --suite rounding` row, its B-side perturbation of the
    K2 colouring strategy rounded from scratch (``dims`` is unused)."""
    game = graph_coloring_game([("v0", "v1")], 3, "1/2")
    base = cyclic_coloring_strategy(game.questions, 3)
    eta = ROUNDING_ETAS[index % len(ROUNDING_ETAS)]
    perturbed = perturb_b_side(base, eta, int(rng_for(seed, index).integers(2**31)))
    cert = round_strategy(game, perturbed).certificate
    dual = verify_dual_distance(game, perturbed)
    return {
        "index": index,
        "eta": eta,
        "delta": cert.delta,
        "d1_total": cert.d1_total,
        "bound_total": cert.bound_total,
        "value_in": cert.value_in,
        "value_out": cert.value_out,
        "vacuous_total": cert.vacuous_total,
        "vacuous_game": cert.vacuous_game,
        "holds_by_slack": cert.holds_by_slack,
        "holds_bounds": cert.holds,
        "holds_dual": dual.holds,
        "holds": cert.holds and dual.holds,
    }
