"""Cone functionals on the region complex.

Per-box sup/quadrature grids are shared by every functional: grids cover the
triple-fattened box (the cones see slightly past their own boxes), while
quadratures run on the disjoint core boxes.  u is evaluated on the fat grids
once and only its extrema are kept: per box, and per owner segment (the
points of a box's grid that one core box holds).  A piecewise-constant phi
is one value v on a segment and fl(a - v) is monotone in a, so the segment's
sup of |u - phi| is read exactly off the two extrema.  All sups are grid
sups, hence lower bounds; nothing bounds the gap from above yet (ROADMAP
item 6).  Inequalities consuming these sups are either tested with both
sides on the same grids or at two resolutions.  E is a curve in the plane
(n = 1), so the square-function weight delta^{1-n} is 1 and l(Q)^n = l(Q).
"""

from __future__ import annotations

import numpy as np

from .config import Budgets, RunConfig
from .dyadic import CubeSystem
from .geometry import (
    ball_sums,
    balls,
    csr_rows,
    distinct,
    paired_distances,
    ranges,
    row_blocks,
    row_spans,
)
from .harmonic import HarmonicField
from .whitney import RegionComplex


def square_grid(t: np.ndarray) -> np.ndarray:
    """The points (t_i, t_j), i major, as a (len(t)^2, 2) array."""
    gx, gy = np.meshgrid(t, t, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _corner_plus(lo: np.ndarray, off: np.ndarray, out=None) -> np.ndarray:
    """lo[r] + off[p] as an (len(lo), len(off), 2) array.  It is a view of
    coordinate planes (2, len(lo), len(off)), the leading rows of `out` if
    given, so each coordinate is written, and read, at unit stride."""
    planes = np.empty((2, len(lo), len(off))) if out is None else out[:, : len(lo)]
    for a in (0, 1):
        np.add(lo[:, a, None], off[None, :, a], out=planes[a])
    return planes.transpose(1, 2, 0)


def _first_hits(x, y, lo, hi, out, word) -> np.ndarray:
    """For each row r and grid point (x[r, i], y[r, j]), i major, the least k
    whose half-open box [lo[k, r], hi[k, r]) holds the point, written into
    `out` (len(x), n*n); 32 * ceil(K / 32) where no box holds it.

    Each axis is tested once per box and packed into a uint32 bitmask per
    coordinate, bit k for box k, in words of 32 boxes; the first hit is the
    lowest set bit of bx[i] & by[j].  The words run last first, so an earlier
    word's hit overwrites a later one's.  `word` is an (len(x), n, n) uint32
    buffer.
    """
    top = 32 * ((len(lo) - 1) // 32)
    for k0 in range(top, -1, -32):
        bx, by = (np.zeros(t.shape, dtype=np.uint32) for t in (x, y))
        for a, (t, bits) in enumerate(((x, bx), (y, by))):
            held = t >= lo[k0 : k0 + 32, :, None, a]
            held &= t < hi[k0 : k0 + 32, :, None, a]
            for k, h in enumerate(held):
                bits |= np.left_shift(h, k, dtype=np.uint32)
        np.bitwise_and(bx[:, :, None], by[:, None, :], out=word)
        # the lowest set bit 2^i is exact as a float32, whose bits are
        # (127 + i) << 23; an empty word gives 0 and wraps above 32
        np.bitwise_and(word, -word, out=word)
        np.copyto(word.view(np.float32), word, casting="unsafe")
        np.subtract(np.right_shift(word, 23, out=word), 127, out=word)
        first = np.minimum(word, 32, out=word).reshape(len(x), -1)
        np.add(first, np.intp(k0), out=out, where=True if k0 == top else first < 32)
    return out


class FunctionalSuite:
    """Shared evaluation state for one (boundary, regions, field) triple.

    The cone index lives here: the relevant cubes of a sample's chain
    realize its default cone, the `apertures` CSR the widened ones; both
    resolve to region box sets of the complex.  Tree sweeps read the
    relevant-tree index of the cube system.
    """

    def __init__(
        self,
        RC: RegionComplex,
        u: HarmonicField,
        sample_frac: float = RunConfig.sample_frac,
        far_ball_factor: float | None = None,
    ):
        self.RC = RC
        self.S: CubeSystem = RC.S
        self.E = RC.S.E
        self.W = RC.W
        self.u = u
        self.sample_frac = sample_frac
        self.tau = RC.params.tau
        self._extrema = None
        self._segments = None
        self._pairs = None
        self._nstar_cache: dict = {}
        self._numbers_cache: dict = {}
        self._apertures: dict = {}
        self.far_ball_factor = far_ball_factor
        self._grad_int = None
        self._grad2_int = None

    def __getstate__(self):
        # the (box, cube) pairs are rebuilt from the regions in a fraction of
        # a second, so a pickled suite (a cached `approximate` stage) drops them
        return self.__dict__ | {"_pairs": None}

    # -- grids --------------------------------------------------------------

    def fat_points(self, size: int, ids=None, out=None):
        """(box ids, points array (nbox, npts, 2)) for the boxes `ids` of one
        size group (default: the whole group): a grid over each box widened
        by 1.5 tau of its side all round.  The points are written one
        coordinate at a time, into the leading rows of `out` if given."""
        if ids is None:
            ids = self.W.size_groups()[size]
        off = square_grid(self._fat_axis()) * (self.W.unit * size)
        return ids, _corner_plus(np.take(self.W.lo, ids, axis=0), off, out)

    def _fat_axis(self) -> np.ndarray:
        """The fat grid's coordinates along one side, in units of the side."""
        pad = 1.5 * self.tau
        return np.linspace(-pad, 1 + pad, int(np.ceil((1 + 2 * pad) / self.sample_frac)) + 1)

    def box_extrema(self):
        """Per box: (max u, min u) over the fat grid."""
        self.owners()
        return self._extrema

    def owners(self):
        """The owner segments of the fat grids: (ptr, owner, max u, min u).

        A fat-grid point of box b is owned by the first of b's candidates,
        b itself and then its neighbours in id order, whose half-open core
        box holds it; a point no candidate holds is uncovered.  Box b's
        segments are ptr[b]:ptr[b + 1], one per candidate in that order (so
        `W.nbr_ptr` plus one self slot per box), each with the extrema of u
        over the points its candidate owns (-inf, +inf if none).  The same
        pass takes the per-box extrema over the whole fat grid that
        `box_extrema` returns.

        The grid is a product: point i*n + j sits at (x_i, y_j), and a
        candidate holds it iff its core interval along each axis holds that
        coordinate.  So each axis is tested once per candidate and packed
        into one bitmask per coordinate, bit k for the k-th candidate; the
        owner of (x_i, y_j) is the lowest set bit of bx[i] & by[j]
        (`_first_hits`).  No disjointness of the core boxes is assumed.
        Points and values are built in row blocks of at most CHUNK (box,
        point) pairs, into buffers allocated once per pass; every reduction
        is per row, so the blocks do not move a bit.
        """
        if self._segments is None:
            W = self.W
            ptr = W.nbr_ptr + np.arange(W.n_boxes + 1)
            owner = np.insert(W.nbr, W.nbr_ptr[:-1], np.arange(W.n_boxes, dtype=np.int32))
            seg_max, seg_min = np.full(ptr[-1], -np.inf), np.full(ptr[-1], np.inf)
            mx, mn = np.empty(W.n_boxes), np.empty(W.n_boxes)
            # padding candidate: an empty box, never hit
            lo_all = np.vstack([W.lo, np.full(2, np.inf)])
            hi_all = np.vstack([W.hi, np.full(2, -np.inf)])
            n = len(self._fat_axis())
            top = row_blocks(W.n_boxes, n * n)[0].stop if W.n_boxes else 0
            pts_buf = np.empty((2, top, n * n))
            word_buf = np.empty((top, n, n), dtype=np.uint32)
            slot_buf = np.empty((top, n * n), dtype=np.int64)
            for size, group in W.size_groups().items():
                for rows in row_blocks(len(group), n * n):
                    ids, pts = self.fat_points(size, group[rows], pts_buf)
                    vals = self.u.eval(pts.reshape(-1, 2)).reshape(pts.shape[:2])
                    mx[ids] = vals.max(axis=1)
                    mn[ids] = vals.min(axis=1)
                    n_cand = ptr[ids + 1] - ptr[ids]
                    # the candidates as (k, row) slots, -1 padding
                    seg = csr_rows(ptr, ids)
                    k, row = ranges(0 * n_cand, n_cand), np.repeat(np.arange(len(ids)), n_cand)
                    c = np.full((int(n_cand.max()), len(ids)), -1, dtype=np.int32)
                    c[k, row] = owner[seg]
                    slot = _first_hits(
                        pts[:, ::n, 0].copy(), pts[:, :n, 1].copy(), lo_all[c], hi_all[c],
                        slot_buf[: len(ids)], word_buf[: len(ids)],
                    )
                    # per (row, slot) extrema, the last column taking the
                    # uncovered points; each slot sees its points in order
                    width = 32 * ((len(c) + 31) // 32) + 1
                    np.add(slot, np.arange(0, len(ids) * width, width)[:, None], out=slot)
                    for at, fill, out in ((np.maximum.at, -np.inf, seg_max), (np.minimum.at, np.inf, seg_min)):
                        tab = np.full((len(ids), width), fill)
                        at(tab.reshape(-1), slot.reshape(-1), vals.reshape(-1))
                        out[seg] = tab[row, k]
            self._extrema = (mx, mn)
            self._segments = (ptr, owner, seg_max, seg_min)
        return self._segments

    # -- gradient quadratures -------------------------------------------------

    def grad_integrals(self):
        """Per box: (int |grad u|, int |grad u|^2) on core grids, built in
        row blocks of at most CHUNK (box, point) pairs into one point
        buffer."""
        if self._grad_int is None:
            g1 = np.zeros(self.W.n_boxes)
            g2 = np.zeros(self.W.n_boxes)
            m = max(2, int(np.ceil(1.0 / self.sample_frac)))
            mid = square_grid((np.arange(m) + 0.5) / m)
            top = row_blocks(self.W.n_boxes, m * m)[0].stop if self.W.n_boxes else 0
            pts_buf = np.empty((2, top, m * m))
            for size, group in self.W.size_groups().items():
                side = self.W.unit * size
                vol = (side / m) ** 2
                for rows in row_blocks(len(group), m * m):
                    ids = group[rows]
                    pts = _corner_plus(np.take(self.W.lo, ids, axis=0), mid * side, pts_buf)
                    gr = paired_distances(self.u.grad(pts.reshape(-1, 2)), np.zeros((1, 2)))
                    gr = gr.reshape(len(ids), -1)
                    g1[ids] = gr.sum(axis=1) * vol
                    g2[ids] = np.multiply(gr, gr, out=gr).sum(axis=1) * vol
            self._grad_int = g1
            self._grad2_int = g2
        return self._grad_int, self._grad2_int

    # -- cones and nontangential sups ----------------------------------------

    def region_sup(self) -> np.ndarray:
        """Per cube: sup |u| over the fattened region boxes, -inf for an
        empty region or a cube without one."""
        mx, mn = self.box_extrema()
        return self.RC.region_max(np.maximum(np.abs(mx), np.abs(mn)), -np.inf)

    def apertures(self, alpha: float):
        """The alpha-aperture cone index: a CSR (ptr, nbr) whose row Q holds,
        ascending, the same-generation relevant cubes P with alpha*Delta_Q
        meeting P.

        The surface ball is open (strict inequality), so alpha = 1 with
        centered cubes reproduces the default cones exactly.  P meets it iff
        one of P's samples lies in it, and sample s lies in the relevant
        cube of generation k that is the k-th entry of `anc_at` at s's
        finest cube (-1 where the generation's cube is a non-relevant copy).
        So one `balls` pass per generation lists every (Q, P) pair; ids run
        generation after generation, so the generations' keys ascend.
        """
        if alpha not in self._apertures:
            S = self.S
            n = S.n_cubes
            keys = []
            for g, (q, _) in enumerate(S.levels):
                r = alpha * S.C1 * S.side[q]
                ptr, ids, d = balls(S.E.points, S.z[q], r)
                count = np.diff(ptr)
                p = S.anc_at[S.sample_leaf[ids], g]
                keep = (d < np.repeat(r, count)) & (p >= 0)
                keys.append(distinct(np.repeat(q.astype(np.int64), count)[keep] * n + p[keep]))
            key = np.concatenate(keys)
            self._apertures[alpha] = (np.searchsorted(key // n, np.arange(n + 1)), key % n)
        return self._apertures[alpha]

    def aperture_neighbors(self, alpha: float, qid: int) -> list:
        """Row qid of `apertures(alpha)`, as a list."""
        ptr, nbr = self.apertures(alpha)
        return nbr[ptr[qid] : ptr[qid + 1]].tolist()

    def n_star(self, alpha: float | None = None) -> np.ndarray:
        """N_* u (default cones) or the alpha-aperture variant, per sample.

        The cone of a sample is the union over its chain of one piece per
        cube (the cube's region, or its aperture neighbours' regions), so
        each cube's piece sup is taken once and the running max propagates
        root to leaf, starting from the far-field sup.
        """
        key = alpha
        if key in self._nstar_cache:
            return self._nstar_cache[key]
        sup = self.region_sup()
        own = sup
        if alpha is not None:
            ptr, nbr = self.apertures(alpha)
            live = np.flatnonzero(np.diff(ptr))
            own = np.full(self.S.n_cubes, -np.inf)
            own[live] = np.maximum.reduceat(sup[nbr], ptr[live])
        out = self.S.down_max(own, self._far_sup())[self.S.sample_leaf]
        empty = np.nonzero(out == -np.inf)[0]
        if len(empty):
            raise ValueError(f"empty cone at sample {empty[0]} (window edge)")
        self._nstar_cache[key] = out
        return out

    def _far_sup(self) -> float:
        """sup |u| outside B(z0, C diam E) for bounded boundaries, else -inf."""
        if self.far_ball_factor is None or not self.E.bounded:
            return -np.inf
        z0 = self.E.points[0]
        R = self.far_ball_factor * self.E.diameter
        mids = (self.W.lo + self.W.hi) / 2
        outside = paired_distances(mids, z0[None, :]) > R
        if not outside.any():
            return -np.inf
        mx, mn = self.box_extrema()
        sup = np.maximum(np.abs(mx), np.abs(mn))
        return float(sup[outside].max())

    def square_function(self) -> np.ndarray:
        """S u per sample: quadrature of |grad u|^2 over the cone.

        Samples of one finest cube share their cone: the distinct region
        boxes over the cube's chain, each summed once, in ascending box id.
        A box may lie in two regions of one chain, so the (leaf, box) pairs
        run in blocks of whole leaves.
        """
        g2 = self.grad_integrals()[1]
        S, RC = self.S, self.RC
        n = self.W.n_boxes
        leaves, inverse = distinct(S.sample_leaf, return_inverse=True)
        chain = S.anc_at[leaves]
        # per (leaf, generation): its chain cube's region size, 0 where the
        # chain has no cube (the -1 reads the appended 0)
        size = np.append(np.diff(RC.region_ptr), 0)[chain]
        per_leaf = np.empty(len(leaves))
        for lo, hi in row_spans(size.sum(axis=1)):
            cubes = chain[lo:hi]
            live = cubes >= 0
            leaf = np.repeat(np.nonzero(live)[0], size[lo:hi][live])
            key = distinct(leaf * n + RC.region_box[csr_rows(RC.region_ptr, cubes[live])])
            per_leaf[lo:hi] = np.bincount(key // n, weights=g2[key % n], minlength=hi - lo)
        return np.sqrt(per_leaf)[inverse]

    def oscillations(self) -> np.ndarray:
        """Per component: grid oscillation of u over its boxes."""
        mx, mn = self.box_extrema()
        box, starts = self.RC.comp_box, self.RC.comp_ptr[:-1]
        return np.maximum.reduceat(mx[box], starts) - np.minimum.reduceat(mn[box], starts)

    # -- cube numbers ---------------------------------------------------------

    def cube_numbers(self, alpha: float | None = None):
        """sup over ancestors R of Q of the average of N_* u over R.

        Returns (per-cube array, -inf off the relevant tree; per-sample
        array of the pointwise sup).
        """
        if alpha not in self._numbers_cache:
            top = self.S.down_max(self.S.cube_averages(self.n_star(alpha)), -np.inf)
            self._numbers_cache[alpha] = (top, top[self.S.sample_leaf])
        return self._numbers_cache[alpha]

    # -- Carleson functionals ---------------------------------------------------

    def _anc_pairs(self):
        """(box ids, cube ids), int32: every (b, Q) with box b inside T_Q.

        T_Q holds b iff Q is an ancestor of one of b's owners.  The pairs
        come one generation of Q after another and, within one, in
        ascending box id, so each cube's boxes ascend.  The owner entries
        are read in blocks of whole boxes, twice: the first pass counts each
        (generation, block) part, the second writes it at its place in the
        preallocated arrays.  A pair's key is (b << bits) | Q; a block's keys
        come box by box, so a stable sort (runs of one box's owners) puts
        them in order.
        """
        if self._pairs is None:
            indptr, owner = self.RC.owner_ptr, self.RC.owner_cube
            # per generation, each cube's ancestor there (-1 for none)
            anc = np.ascontiguousarray(self.S.anc_at.T)
            bits = int(self.S.n_cubes).bit_length()
            count = np.diff(indptr)
            spans = row_spans(count)

            def parts():
                """(generation, block, sorted keys, first-of-a-run mask)."""
                for j, (lo, hi) in enumerate(spans):
                    box = np.repeat(np.arange(lo, hi, dtype=np.int64) << bits, count[lo:hi])
                    own = owner[indptr[lo] : indptr[hi]].astype(np.intp)
                    for g, a in enumerate(np.take(anc, own, axis=1)):
                        key = np.sort((box + a)[a >= 0], kind="stable")
                        head = np.ones(len(key), dtype=bool)
                        np.not_equal(key[1:], key[:-1], out=head[1:])
                        yield g, j, key, head

            size = np.zeros((len(anc), len(spans)), dtype=np.int64)
            for g, j, _, head in parts():
                size[g, j] = np.count_nonzero(head)
            start = (np.cumsum(size) - size.ravel()).reshape(size.shape)
            boxes, cubes = (np.empty(size.sum(), dtype=np.int32) for _ in range(2))
            for g, j, key, head in parts():
                # one pair per distinct (b, Q)
                key = key[head]
                at = slice(start[g, j], start[g, j] + len(key))
                np.right_shift(key, bits, out=boxes[at])
                np.bitwise_and(key, (1 << bits) - 1, out=cubes[at])
            self._pairs = (boxes, cubes)
        return self._pairs

    def anc_scatter(self, mass: np.ndarray) -> np.ndarray:
        """Per cube Q: total mass of boxes inside T_Q (0 off the tree).

        `bincount` adds in pair order, so each sum takes its boxes in
        ascending box id.  The pairs run in blocks of CHUNK: a block's
        `bincount` over the id range [a, b) of its cubes starts each sum
        from the sum so far (0 + s is s), so the blocks move no bit.
        """
        boxes, cubes = self._anc_pairs()
        out = np.zeros(self.S.n_cubes)
        for rows in row_blocks(len(cubes), 1):
            c = cubes[rows]
            a, b = int(c.min()), int(c.max()) + 1
            out[a:b] = np.bincount(
                np.concatenate([np.arange(b - a), c - a]),
                weights=np.concatenate([out[a:b], mass[boxes[rows]]]),
            )
        return out

    def carleson_dyadic(self, mass: np.ndarray) -> np.ndarray:
        """C_dyadic: per sample, sup over containing cubes of T_Q-mass/l(Q).

        For bounded boundaries the sup also runs over the ball tower
        B(z0, 2^k diam E), k = Lambda_0 .. Lambda_0+4, with Lambda_0 chosen
        so the first ball contains T_{root}.
        """
        per_cube = self.anc_scatter(mass) / self.S.side
        out = self.S.down_max(per_cube, 0.0)[self.S.sample_leaf]
        if self.E.bounded:
            out = np.maximum(out, self._tower_sup(mass))
        return out

    def _tower_sup(self, mass: np.ndarray) -> float:
        z0 = self.E.points[0]
        lo, hi = self.W.lo, self.W.hi
        far = np.maximum(paired_distances(lo, z0[None, :]), paired_distances(hi, z0[None, :]))
        t_root = far[self.RC.carleson_box(self.S.roots[0])].max(initial=0.0)
        d = self.E.diameter
        lam0 = max(0, int(np.ceil(np.log2(max(t_root, d) / d))))
        mids = (lo + hi) / 2
        dist_mid = paired_distances(mids, z0[None, :])
        best = 0.0
        for k in range(lam0, lam0 + 5):
            R = 2.0**k * d
            m = float(mass[dist_mid <= R].sum())
            best = max(best, m / R)
        return best

    def carleson_ball(self, mass: np.ndarray, sample_ids: np.ndarray) -> np.ndarray:
        """C: per listed sample, sup over r of r^{-1} * mass(B(x,r) \\ E).

        Box masses are binned at box centers (midpoint convention).  `mass`
        is one nonnegative box measure or a (k, n_boxes) stack of them; the
        result is one value per listed sample, per row.  Each ball mass is
        a `ball_sums` sum, O(boxes) per sample with no sort.  The stack runs
        over the boxes with mass in any row: a box without mass in a row
        adds +0.0 to that row's sums, so each row is what that row alone
        gives.
        """
        mids = (self.W.lo + self.W.hi) / 2
        stack = np.atleast_2d(mass)
        live = np.flatnonzero(stack.any(axis=0))
        radii = self._ball_radii()
        out = np.empty((len(stack), len(sample_ids)))
        pts = self.E.points[np.asarray(sample_ids, dtype=int)]
        for rows, _, sums in ball_sums(pts, mids[live], radii, stack[:, live]):
            out[:, rows] = np.max(sums / radii, axis=-1)
        return out.reshape(np.shape(mass)[:-1] + (len(sample_ids),))

    def _ball_radii(self) -> np.ndarray:
        rs = [
            self.S.C1 * 2.0 ** (-k) * self.S.scale
            for k in range(self.S.k_min, self.S.k_max + 1)
        ]
        span = self.W.window.span
        extra = np.geomspace(min(rs) / 2, 2 * span, 12)
        return distinct(np.concatenate([rs, extra]))


# ---------------------------------------------------------------------------
# comparison estimates
# ---------------------------------------------------------------------------


def lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float((weights * np.abs(values) ** p).sum() ** (1.0 / p))


def compare_levelsets(
    cball: np.ndarray,
    cdyadic: np.ndarray,
    weights: np.ndarray,
    p_grid=RunConfig.p_grid,
    a1_budget: float = Budgets.levelset_a1,
    a2_budget: float = Budgets.levelset_a2,
):
    """Weak-type domination sigma{C > A1*l} <= A2*sigma{C_dyadic > l}.

    Scans A1 over powers of two and returns the smallest passing pair plus
    the numerically verified L^p domination constants A1*A2^{1/p}.
    """
    cmax, dmax = float(cball.max(initial=0.0)), float(cdyadic.max(initial=0.0))
    if cmax == 0.0:
        return {"A1": 1.0, "A2": 1.0, "pass": True, "lp": {p: 1.0 for p in p_grid}}
    if dmax == 0.0:
        return {"A1": np.inf, "A2": np.inf, "pass": False, "lp": {}}
    lam_grid = np.geomspace(dmax * 1e-4, dmax, 40)
    a1 = 1.0
    while a1 <= a1_budget:
        if a1 * dmax >= cmax:
            a2_needed = 1.0
            ok = True
            for lam in lam_grid:
                num = float(weights[cball > a1 * lam].sum())
                den = float(weights[cdyadic > lam].sum())
                if num == 0.0:
                    continue
                if den == 0.0:
                    ok = False
                    break
                a2_needed = max(a2_needed, num / den)
            if ok and a2_needed <= a2_budget:
                lp = {}
                for p in p_grid:
                    nc = lp_norm(cball, weights, p)
                    nd = lp_norm(cdyadic, weights, p)
                    lp[p] = nc / nd if nd else np.inf
                    if nc > a1 * a2_needed ** (1.0 / p) * nd * (1 + 1e-9):
                        ok = False
                if ok:
                    return {
                        "A1": a1,
                        "A2": a2_needed,
                        "pass": True,
                        "lp": lp,
                    }
        a1 *= 2.0
    return {"A1": np.inf, "A2": np.inf, "pass": False, "lp": {}}


def compare_apertures(
    FS: FunctionalSuite, alpha: float, p: float, certified: np.ndarray | None = None
) -> float:
    """||N_*^alpha u||_p / ||N_* u||_p on the sample quadrature (1 if u = 0)."""
    w = FS.E.weights if certified is None else FS.E.weights[certified]
    na = FS.n_star(alpha)
    n0 = FS.n_star(None)
    if certified is not None:
        na, n0 = na[certified], n0[certified]
    denom = lp_norm(n0, w, p)
    if denom == 0.0:
        return 1.0
    return lp_norm(na, w, p) / denom
