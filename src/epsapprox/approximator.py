"""The piecewise approximant: cells, values, jumps, total variation.

The approximant is symbolic: every cell is a set of core Whitney boxes with
a value rule (a frozen constant, or u itself on red cells and outside the
working Carleson box).  Total variation is exact for the jump part (facet
areas are dyadic-exact) plus a quadrature of |grad u| over the cells where
the rule is u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Budgets, RunConfig
from .functionals import FunctionalSuite, lp_norm
from .geometry import csr_rows, distinct, pair_distances, row_spans
from .stopping import GenerationForest, OscillationLabels, initial_chain
from .whitney import RegionComplex


# one record per cell: its kind ('A+', 'A-', 'blue', 'red', 'outer'), its
# owning cube id (-1 for 'outer') and its constant (nan where the rule is u)
CELL = np.dtype([("kind", "U5"), ("anchor", np.int64), ("value", np.float64)])


@dataclass
class Approximant:
    RC: RegionComplex
    u: object
    mode: str  # 'local', 'bounded', 'unbounded'
    cells: np.ndarray  # CELL records, indexed by cell id
    cell: np.ndarray  # per box: its cell id, -1 outside the domain
    q0: int | None = None
    rings: list = field(default_factory=list)
    # set by `_assemble_jumps`
    jump_facets: tuple = ()  # arrays (a, b, axis, area, mass)
    tv_box: np.ndarray | None = None  # per-box binned TV measure (grad + half jumps)


# ---------------------------------------------------------------------------
# ordered good cubes and cells
# ---------------------------------------------------------------------------


def order_good_cubes(RC: RegionComplex, GF: GenerationForest, cubes: np.ndarray) -> list:
    """Family {Q_k}: the subregime tops covering the good cubes of the mask
    `cubes`, in id order, which is by maximal side length with id tie-break."""
    return distinct(GF.top[cubes & (RC.corona.regime >= 0)]).tolist()


def build_partition(
    FS: FunctionalSuite,
    GF: GenerationForest,
    labels: OscillationLabels,
    cubes: np.ndarray,
    cells: list,
    cell: np.ndarray,
) -> None:
    """Carve the boxes of the sawtooth over the cube mask `cubes` that no
    cell holds yet into V cells (oscillation/bad regions, precedence) and
    A cells (subregime sawtooth halves minus what is already taken),
    appending (kind, anchor, value) to `cells` and their ids to `cell`.

    An A cell of Q_k is frozen at u(Y_{Q_k}^{+/-}), a blue cell at u at
    its component's largest box, and a red cell's rule is u itself.
    """
    RC, u = FS.RC, FS.u
    W = RC.W
    # `free`: boxes of this sawtooth no cell has taken yet
    free = np.zeros(W.n_boxes, dtype=bool)
    free[RC.sawtooth(np.flatnonzero(cubes))] = True
    free &= cell < 0

    def add_cell(kind, anchor, value, boxes):
        """A cell of the free boxes among `boxes` (ascending), which it takes."""
        boxes = boxes[free[boxes]]
        if not len(boxes):
            return
        free[boxes] = False
        cell[boxes] = len(cells)
        cells.append((kind, anchor, value))

    # V cells first (phi_1 has precedence over phi_0 on its closure), by
    # maximal side length with id tie-break, which is id order; u at every
    # component's largest box in one call, drawn in loop order
    v = np.flatnonzero(cubes & ((RC.corona.regime < 0) | labels.member))
    b = RC.comp_center[csr_rows(RC.region_comp_ptr, v)]
    at = iter(u.eval((W.lo[b] + W.hi[b]) / 2.0).tolist())
    for qm in v.tolist():
        for c, x in zip(RC.comps(qm), at):
            red = labels.red[c]
            add_cell("red" if red else "blue", qm, np.nan if red else x, RC.comp(c))
    # A cells: subregime sawtooth halves minus everything taken so far, at
    # u(Y_{Q_k}^{+/-}), one call per sign over the whole family
    tops = order_good_cubes(RC, GF, cubes)
    y = {s: u.eval(RC.y_point(np.array(tops, dtype=np.intp), s)).tolist() for s in "+-"}
    for k, qk in enumerate(tops):
        for sign, half in zip("+-", RC.sawtooth_halves(GF.subregime(qk))):
            add_cell("A" + sign, qk, y[sign][k], half)
    if free.any():
        raise RuntimeError(
            f"partition leaves {int(free.sum())} boxes of the ring uncovered, "
            f"the first box {int(np.argmax(free))}"
        )


# ---------------------------------------------------------------------------
# approximants
# ---------------------------------------------------------------------------


def assemble_approximant(
    FS: FunctionalSuite, mode: str, cells: list, cell: np.ndarray, q0: int, rings=()
) -> Approximant:
    """The approximant of the (kind, anchor, value) cells, jumps assembled."""
    A = Approximant(FS.RC, FS.u, mode, np.array(cells, dtype=CELL), cell, q0, list(rings))
    _assemble_jumps(FS, A)
    return A


def build_global_approximant(
    FS: FunctionalSuite,
    GF: GenerationForest,
    labels: OscillationLabels,
    gamma0: float = RunConfig.gamma0,
) -> Approximant:
    """Glue local approximants: bounded mode patches u outside T_{root};
    unbounded mode tiles rings W_k = T_{Q_k} \\ T_{Q_{k-1}} along a
    gamma0-spaced chain of cubes up to the root; the mode follows from
    whether E is bounded.

    Each ring is carved once, from its own cubes C_k = subtree(Q_k) \\
    subtree(Q_{k-1}): T_{Q_k} is the sawtooth over C_k joined to
    T_{Q_{k-1}}, so W_k is the part of that sawtooth no earlier ring took,
    and each of its boxes gets the cell that carving all of T_{Q_k} would
    give it.  Jumps are assembled once, on the glued cells."""
    RC = FS.RC
    S = RC.S
    root = S.roots[0]
    rings = [root] if S.E.bounded else _ring_chain(S, gamma0)
    cells = []
    cell = np.full(RC.W.n_boxes, -1)
    done = np.zeros(S.n_cubes, dtype=bool)
    for q in rings:
        ring = S.subtree(q) & ~done
        done |= ring
        build_partition(FS, GF, labels, ring, cells, cell)
    if not S.E.bounded:
        return assemble_approximant(FS, "unbounded", cells, cell, root, rings)
    cell[cell < 0] = len(cells)
    cells.append(("outer", -1, np.nan))
    return assemble_approximant(FS, "bounded", cells, cell, root)


def _ring_chain(S, gamma0: float) -> list:
    """Ancestors of the central base cube with side spacing >= gamma0."""
    chain = initial_chain(S)  # coarsest first
    chain = chain[::-1]
    out = [chain[0]]
    for q in chain[1:]:
        if S.side[q] >= gamma0 * S.side[out[-1]] - 1e-12:
            out.append(q)
    if out[-1] != chain[-1]:
        out.append(chain[-1])  # always end at the root
    if len(out) < 2:
        raise ValueError(
            "window too small for >= 2 gamma0-spaced ring cubes; "
            "decrease gamma0 or extend the generation range"
        )
    return out


# quadrature nodes per facet for the jump of u against a constant
_FACET_NODES = 9


def _assemble_jumps(FS: FunctionalSuite, A: Approximant):
    """Facet jump table and the per-box binned TV measure.

    One pass over the facet table: a jump between two constants is exact,
    and one between u and a constant is the mean of |u - c| over the
    facet's nodes, the nodes of all such facets taken by one call of u.
    """
    W = A.RC.W
    g1, _ = FS.grad_integrals()
    # per box: its cell's constant, nan where the rule is u or (the trailing
    # entry, read through the -1) outside the domain
    value = np.append(A.cells["value"], np.nan)[A.cell]
    nan = np.isnan(value)
    a, b, axis = W.facets.T
    ia, ib = A.cell[a], A.cell[b]
    # inside the approximant's domain, across two cells, not u on both sides
    live = (ia >= 0) & (ib >= 0) & (ia != ib) & ~(nan[a] & nan[b])
    a, b, axis, area = a[live], b[live], axis[live], W.facet_area[live]
    mass = np.abs(value[a] - value[b]) * area
    mixed = np.flatnonzero(nan[a] | nan[b])
    if len(mixed):
        const = np.where(nan[a[mixed]], value[b[mixed]], value[a[mixed]])
        nodes = _facet_nodes(W, a[mixed], b[mixed], axis[mixed], _FACET_NODES)
        uv = A.u.eval(nodes.reshape(-1, 2)).reshape(len(mixed), _FACET_NODES)
        mass[mixed] = np.mean(np.abs(uv - const[:, None]), axis=1) * area[mixed]
    jump = mass > 0.0
    a, b, axis, area, mass = a[jump], b[jump], axis[jump], area[jump], mass[jump]
    tv = np.zeros(W.n_boxes)
    is_u = nan & (A.cell >= 0)  # red or outer: the rule is u
    tv[is_u] += g1[is_u]
    # half of each jump to either side, facet by facet
    np.add.at(tv, np.column_stack([a, b]).ravel(), np.repeat(mass / 2, 2))
    A.jump_facets = (a, b, axis, area, mass)
    A.tv_box = tv


def _facet_nodes(W, a, b, axis, m):
    """(facets, m, 2): m midpoint nodes along each facet (a, b, axis)."""
    k, perp = np.arange(len(a)), 1 - axis
    t0 = np.maximum(W.lo[a, perp], W.lo[b, perp])
    t1 = np.minimum(W.hi[a, perp], W.hi[b, perp])
    nodes = np.empty((len(a), m, 2))
    nodes[k, :, axis] = W.hi[a, axis][:, None]
    nodes[k, :, perp] = t0[:, None] + (np.arange(m) + 0.5) / m * (t1 - t0)[:, None]
    return nodes


# ---------------------------------------------------------------------------
# deviation sups and certification
# ---------------------------------------------------------------------------


def deviation_sups(FS: FunctionalSuite, A: Approximant) -> np.ndarray:
    """Per box: grid sup of |u - phi| over the fattened grid.

    phi is evaluated through the owning core box of each grid point, so the
    sup honestly sees across cell boundaries inside the fattened margin.
    phi is one constant v on each owner segment of `FS.owners`, and
    fl(a - v) is monotone in a, so the segment's sup of |u - v| is the
    larger of |max u - v| and |min u - v|, bit for bit.  Segments whose
    owner's rule is u or lies outside the domain, and empty ones, add 0.
    The segments are taken in row spans of whole boxes of at most CHUNK
    segments, so no per-segment array spans the whole grid.
    """
    ptr, owner, seg_max, seg_min = FS.owners()
    value = np.append(A.cells["value"], np.nan)
    out = np.empty(len(ptr) - 1)
    # blocks of whole boxes; every box has its self segment, so no block
    # ends on an empty box
    for lo, hi in row_spans(np.diff(ptr)):
        seg = slice(ptr[lo], ptr[hi])
        mx, mn = seg_max[seg], seg_min[seg]
        v = value[A.cell[owner[seg]]]
        dev = np.maximum(np.abs(mx - v), np.abs(mn - v))
        dev[np.isnan(v) | (mx < mn)] = 0.0
        out[lo:hi] = np.maximum.reduceat(dev, ptr[lo:hi] - ptr[lo])
    return out


def nontangential_deviation(
    FS: FunctionalSuite, dev: np.ndarray, within: np.ndarray | None = None
) -> np.ndarray:
    """N_*(u - phi) per sample from the per-box sups `dev` of
    `deviation_sups`, optionally 1_T restricted to the boxes of the mask
    `within`.  dev >= 0, so a box outside T counts as a zero sup."""
    if within is not None:
        dev = np.where(within, dev, 0.0)
    return FS.S.down_max(FS.RC.region_max(dev, 0.0), 0.0)[FS.S.sample_leaf]


def find_alpha0(FS: FunctionalSuite, GF: GenerationForest) -> float:
    """Smallest aperture for which the anchor points X_P, Y_P of every
    generation cube P are inside Gamma_alpha(x) for all x in any cube Q
    with l(Q) <= l(P) whose Carleson box meets the subregime sawtooth.

    A pair (Q, anchor box b) needs, over the cubes o owning b, the least
    min |x - z_A| / (C1 l(A)), x in o, where A is Q's ancestor at o's
    generation.  The (Q, b) pairs of all generation cubes are collected
    first; each (o, A) ratio they reach is then computed once.
    """
    S, RC = FS.S, FS.RC
    indptr, owner = RC.owner_ptr, RC.owner_cube
    anc, side = S.anc_at, S.side
    n, n_boxes = S.n_cubes, RC.W.n_boxes
    # one slot more for the -1 of a missing ancestor
    is_owner = np.zeros(n + 1, dtype=bool)
    is_q = np.zeros(n + 1, dtype=bool)
    pairs = []
    regime = RC.corona.regime
    # every generation cube is good
    for p in np.flatnonzero(GF.member).tolist():
        # the cubes Q whose Carleson box meets the sawtooth: ancestors of
        # the cubes owning one of its boxes
        is_owner[owner[csr_rows(indptr, RC.sawtooth(GF.subregime(p)))]] = True
        is_q[anc[np.flatnonzero(is_owner)]] = True
        qs = np.flatnonzero(is_q[:n])
        qs = qs[side[qs] <= side[p]]
        is_owner[:] = is_q[:] = False
        # the X boxes of P and of a good parent
        pr = S.rparent[p]
        anchor = [p, pr] if pr >= 0 and regime[pr] >= 0 else [p]
        anchor_boxes = RC.comp_center[RC.pm_comp[anchor]].ravel()
        pairs.append((qs[:, None].astype(np.int64) * n_boxes + anchor_boxes).ravel())
    if not pairs:
        return 1.0
    q, b = np.divmod(distinct(np.concatenate(pairs)), n_boxes)
    n_own = np.diff(indptr)[b]
    gen = S.gen - S.k_min
    spans = row_spans(n_own)

    def entries(lo, hi):
        """(o, A) keys, one per (Q, b) pair of the span and owner o of b,
        A being Q's ancestor at o's generation (-1 for none)."""
        o = owner[csr_rows(indptr, b[lo:hi])]
        a = anc[np.repeat(q[lo:hi], n_own[lo:hi]), gen[o]]
        return o * np.int64(n + 1) + (a + 1)

    keys = distinct(np.concatenate([distinct(entries(lo, hi)) for lo, hi in spans]))
    own, a = np.divmod(keys, n + 1)
    a -= 1
    ratio = np.full(len(keys), np.inf)
    ratio[a >= 0] = _owner_ratios(S, own[a >= 0], a[a >= 0], side)
    needed = 1.0
    for lo, hi in spans:
        r = ratio[np.searchsorted(keys, entries(lo, hi))]
        cut = np.cumsum(n_own[lo:hi]) - n_own[lo:hi]
        best = np.minimum.reduceat(r, cut)
        # a pair whose Q has no ancestor at any owner's generation asks for
        # no widening
        best = best[best != np.inf]
        needed = max(needed, float((best * (1 + 1e-9)).max(initial=1.0)))
    return needed


def _owner_ratios(S, own: np.ndarray, anc: np.ndarray, side: np.ndarray) -> np.ndarray:
    """min |x - z_A| / (C1 l(A)) over the samples x of cube o, per (o, A)
    pair; the pairs come sorted by o."""
    out = np.empty(len(own))
    cut = (np.flatnonzero(np.diff(own)) + 1).tolist()
    for lo, hi in zip([0, *cut], [*cut, len(own)]):
        pts = S.E.points[S.members(own[lo])]
        d = pair_distances(S.z[anc[lo:hi]], pts).min(axis=1)
        out[lo:hi] = d / (S.C1 * side[anc[lo:hi]])
    return out


# stride over the certified samples at which the L^p roll-up takes the ball
# Carleson functional
BALL_STRIDE = 8


def lp_samples(certified: np.ndarray) -> np.ndarray:
    """Ids of the samples of the L^p roll-up: every BALL_STRIDE-th
    certified sample."""
    return np.flatnonzero(certified)[::BALL_STRIDE]


def _max_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Largest finite num / den, 0.0 if there is none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
    r = r[np.isfinite(r)]
    return float(r.max()) if len(r) else 0.0


def verify_approximation(
    FS: FunctionalSuite,
    A: Approximant,
    eps: float,
    alpha0: float,
    certified: np.ndarray,
    cd: np.ndarray,
    mm: np.ndarray,
    cball: np.ndarray,
    p_grid=RunConfig.p_grid,
    c1_budget: float = Budgets.pointwise_c1,
) -> dict:
    """The three certification sweeps for one approximant.

    (i) pointwise: N_*(u-phi) <= C1 * eps * M_dyadic(N_* u) at certified
        samples, plus the constant-free local form inside T_{q0};
    (ii) dyadic Carleson: C_dyadic(grad phi) <= C2 * eps^{-2} *
        M(M_dyadic(N_*^{alpha0} u));
    (iii) L^p roll-ups of both against ||N_* u||_p.
    The caller supplies the functionals it shares across the eps grid, each
    this eps's row of one stacked call: `cd` is C_dyadic of `A.tv_box` (a
    row of `FS.carleson_dyadic` over the grid's TV measures) and `mm` is
    M(M_dyadic(N_*^{alpha0} u)), per sample, and `cball` is C of
    `A.tv_box` (a row of `FS.carleson_ball`) at the samples
    `lp_samples(certified)`.
    Smallest passing constants are reported; `pass` keys compare C1 to its
    budget (C2 and the L^p constants are reported for cross-eps stability).
    """
    S, w = FS.S, FS.E.weights
    cert = np.asarray(certified, dtype=bool)
    _, m_point = FS.cube_numbers(None)
    dev = deviation_sups(FS, A)
    ndev = nontangential_deviation(FS, dev)
    c1 = _max_ratio(ndev[cert], eps * m_point[cert])
    # constant-free local form on T_{q0}
    t0 = np.zeros(FS.W.n_boxes, dtype=bool)
    if A.q0 is not None:
        t0[A.RC.carleson_box(A.q0)] = True
    ndev_local = nontangential_deviation(FS, dev, within=t0)
    in_q0 = np.zeros(FS.E.n_samples, dtype=bool)
    in_q0[S.members(A.q0)] = True
    sel = cert & in_q0
    c_local = _max_ratio(ndev_local[sel], eps * m_point[sel])

    # (ii) dyadic Carleson functional of the TV measure
    c2 = _max_ratio(cd[cert] * eps**2, mm[cert])

    # (iii) L^p roll-ups
    ids = lp_samples(cert)
    ns = FS.n_star(None)
    lp = {}
    for p in p_grid:
        n_u = lp_norm(ns[cert], w[cert], p)
        c1p = lp_norm(ndev[cert], w[cert], p) / (eps * n_u) if n_u else 0.0
        n_u_sub = lp_norm(ns[ids], w[ids], p)
        c2p = (
            lp_norm(cball, w[ids], p) * eps**2 / n_u_sub if n_u_sub else 0.0
        )
        lp[p] = {"C1p": float(c1p), "C2p": float(c2p)}
    return {
        "eps": eps,
        "alpha0": alpha0,
        "C1": c1,
        "C1_pass": bool(c1 <= c1_budget),
        "C_local": c_local,
        "C_local_pass": bool(c_local <= 1.0 + 1e-9),
        "C2": c2,
        "lp": lp,
        "n_jump_facets": len(A.jump_facets[0]),
        "tv_total": float(A.tv_box.sum()),
    }
