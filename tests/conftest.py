"""Shared builders for the heavier pipeline-style fixtures."""

import numpy as np
import pytest

from epsapprox.config import RegionParams
from epsapprox.dyadic import build_cube_system
from epsapprox.geometry import (
    Hyperplane,
    LipschitzGraph,
    Segment,
    Window,
    build_boundary,
)
from epsapprox.whitney import build_regions, corona_provider, whitney_decompose


@pytest.fixture(scope="session")
def sparse_bench_system():
    """The cube system of the benchmark's carleson_sparse workload."""
    E = build_boundary(
        LipschitzGraph("abs", 0.1), resolution=2.0**-7, window=Window((-4, -4), (4, 4))
    )
    return build_cube_system(E, k_min=-4, k_max=6)


@pytest.fixture(scope="session")
def line_rc():
    """Half-plane region complex: window [-2,2], generations -3..3."""
    params = RegionParams(tau=0.05, c_w=0.25, C_w=4.0, C_d=4.0)
    E = build_boundary(
        Hyperplane(), resolution=1 / 64, window=Window((-2, -2), (2, 2))
    )
    S = build_cube_system(E, k_min=-3, k_max=3)
    W = whitney_decompose(
        E, Window((-2.0, -6.5), (2.0, 6.5)), min_side=params.c_w * 2.0**-3
    )
    corona = corona_provider(E, S, "trivial_graph", eta=0.25)
    return build_regions(S, W, corona, params)


@pytest.fixture(scope="session")
def segment_rc():
    """Bounded boundary: the segment [-1,1] on the x-axis.

    C_d kept small so the root Carleson box does not swallow the whole
    ambient window (a genuine outer region remains where phi = u).
    """
    params = RegionParams(tau=0.05, c_w=0.25, C_w=4.0, C_d=1.0)
    E = build_boundary(
        Segment(-1.0, 1.0), resolution=1 / 64, window=Window((-1, -1), (1, 1))
    )
    S = build_cube_system(E, k_min=-1, k_max=3)
    W = whitney_decompose(
        E, Window((-4.0, -3.5), (4.0, 3.5)), min_side=params.c_w * 2.0**-3
    )
    corona = corona_provider(E, S, "trivial_graph", eta=0.25)
    return build_regions(S, W, corona, params)


@pytest.fixture(scope="session")
def sin_rc():
    """Region complex of the graph of 0.2 sin x over [-2, 2]."""
    params = RegionParams(tau=0.05, c_w=0.25, C_w=4.0, C_d=4.0)
    E = build_boundary(
        LipschitzGraph("sin", 0.2), resolution=1 / 64, window=Window((-2, -2), (2, 2))
    )
    S = build_cube_system(E, k_min=-3, k_max=3)
    W = whitney_decompose(
        E, Window((-2.0, -3.0), (2.0, 3.0)), min_side=params.c_w * 2.0**-3
    )
    corona = corona_provider(E, S, "trivial_graph", eta=0.25)
    return build_regions(S, W, corona, params)


def ancestors(S, qid):
    """The cube and its relevant ancestors, finest first."""
    out = [qid]
    while S.rparent[out[-1]] >= 0:
        out.append(int(S.rparent[out[-1]]))
    return out


def contains(S, qid, pid) -> bool:
    """True iff relevant cube pid is inside relevant cube qid."""
    return pid == qid or bool(S.anc_at[pid, S.gen[qid] - S.k_min] == qid)


def param_range(S, qid) -> tuple:
    """[a, b): the parameter interval of cube qid of a graph system, the one
    of side l(Q) on the root's grid that holds its first member.  The root
    starts on the finest grid, left of the window's parameter midpoint by
    half its side."""
    params = S.E.params
    unit = 2.0 ** (-S.k_max) * S.scale
    root_len = 2.0 ** (-S.k_min) * S.scale
    center = (float(params.min()) + float(params.max())) / 2.0
    a0 = unit * np.floor((center - root_len / 2.0) / unit)
    side = float(S.side[qid])
    edges = a0 + side * np.arange(int(round(root_len / side)) + 1)
    m = int(np.searchsorted(edges, params[S.members(qid)[0]], side="right")) - 1
    return float(edges[m]), float(edges[m + 1])


def region(RC, q) -> list:
    """W_Q: the member boxes of cube q, ascending."""
    return RC.region_box[RC.region_ptr[q] : RC.region_ptr[q + 1]].tolist()


def box_owners(RC):
    """Box id -> sorted (cube, component index) pairs of the regions holding
    it, keyed in the order the boxes first appear over the components."""
    out = {}
    for q in sorted(RC.S.relevant_ids()):
        for ci, c in enumerate(RC.comps(q)):
            for bid in RC.comp(c).tolist():
                out.setdefault(bid, []).append((q, ci))
    for v in out.values():
        v.sort()
    return out


def certified_mask(rc, margin_frac=0.15):
    """Samples inside the window shrunk by a relative margin."""
    E = rc.S.E
    lo = np.asarray(E.window.lo)
    hi = np.asarray(E.window.hi)
    m = margin_frac * (hi - lo)
    return np.all((E.points >= lo + m) & (E.points <= hi - m), axis=1)
