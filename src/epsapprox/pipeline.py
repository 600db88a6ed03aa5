"""Pipeline: one stage graph, grid -> regions -> approximate -> verify -> write.

Each stage is declared once in `STAGES`: the function that computes it, the
upstream stages it consumes and the config fields it reads.  `run` walks the
graph for `epsapprox run` and every CLI subcommand.  With a cache directory,
the grid, regions and approximate stages are pickled under a key derived from
their declared config fields, the bytes of any input file they name, their
upstream keys and a fingerprint of the package source, so a key moves exactly
when what the stage reads moves.  An artifact refers to its upstream
stages' outputs instead of storing copies, so a warm run shares them as a
cold run does.  No stage mutates the config.  Reports are
canonical JSON with no timestamps, so a fixed config reproduces
byte-identical output wherever it is written and whether or not a cache is
used.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .approximator import (
    build_global_approximant,
    find_alpha0,
    lp_samples,
    verify_approximation,
)
from .carleson import carleson_embedding_check, hl_maximal
from .config import RunConfig
from .dyadic import build_cube_system
from .functionals import FunctionalSuite, compare_apertures, compare_levelsets
from .geometry import Window, build_boundary, check_adr, descriptor_from_json, distinct
from .harmonic import make_field
from .stopping import (
    eps_scaling_chart,
    generation_cubes,
    initial_chain,
    oscillation_cubes,
    principal_cubes,
    verify_eps_packing,
    verify_principal_packing,
)
from .whitney import (
    CORONA_PACKING_BUDGET,
    build_regions,
    corona_provider,
    whitney_decompose,
)


@dataclass(frozen=True)
class Stage:
    """One node of the stage graph.

    fn: name of the module function computing the stage, called as
      fn(cfg, *outputs of deps); looked up at call time, so a wrapper
      installed on the module sees every call.
    deps: upstream stages, in argument order.
    reads: config fields the stage reads (dotted when nested); None for a
      stage that is never cached.
    files: the fields of `reads` that name input files the stage reads.
    """

    fn: str
    deps: tuple = ()
    reads: tuple | None = None
    files: tuple = ()


STAGES = {
    "grid": Stage(
        "stage_grid",
        reads=("boundary", "window", "resolution", "k_min", "k_max", "scale",
               "eta", "budgets.adr", "budgets.inclusion"),
    ),
    "regions": Stage(
        "stage_regions",
        deps=("grid",),
        reads=("ambient", "k_max", "scale", "region", "corona_mode",
               "corona_file", "eta", "K"),
        files=("corona_file",),
    ),
    "approximate": Stage(
        "stage_approximate",
        deps=("grid", "regions"),
        reads=("field_desc", "sample_frac", "alpha_grid", "eps_grid", "gamma0"),
    ),
    "verify": Stage("stage_verify", deps=("grid", "regions", "approximate")),
    "write": Stage("write_outputs", deps=("grid", "approximate", "verify")),
}


@functools.cache
def source_fingerprint() -> str:
    """Hash of the package source: a code change invalidates every key."""
    h = hashlib.sha256()
    for p in sorted(Path(__file__).parent.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def stage_key(cfg: RunConfig, name: str) -> str:
    """Cache key of a cacheable stage under `cfg`."""
    st = STAGES[name]
    flat = cfg.to_json()
    fields = {}
    for path in st.reads:
        value = flat
        for part in path.split("."):
            value = value[part]
        fields[path] = value
    files = {
        f: hashlib.sha256(Path(fields[f]).read_bytes()).hexdigest()
        for f in st.files
        if fields[f] is not None
    }
    blob = json.dumps(
        {
            "stage": name,
            "code": source_fingerprint(),
            "cfg": fields,
            "files": files,
            "deps": [stage_key(cfg, d) for d in st.deps],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run(cfg: RunConfig, out_dir=None, cache_dir=None, until="write",
        build_upstream=True) -> dict:
    """Walk the stage graph up to `until`; returns {stage: output}.

    Outputs go to `out_dir` (default `cfg.out_dir`).  With `cache_dir`, each
    cacheable stage is loaded when its key hits and otherwise computed and
    saved as `<stage>-<code fingerprint>-<key>.pkl`, deleting that stage's
    artifacts of any other code fingerprint.  With `build_upstream=False`
    only `until` itself may be computed: a cache miss on an earlier stage
    raises RuntimeError naming that stage.
    The cache directory is trusted input: artifacts are loaded with pickle.
    """
    if out_dir is not None:
        cfg = replace(cfg, out_dir=str(out_dir))
    names = list(STAGES)
    outputs: dict = {}
    for name in names[: names.index(until) + 1]:
        st = STAGES[name]
        path = None
        if cache_dir and st.reads is not None:
            code = source_fingerprint()[:8]
            path = Path(cache_dir) / f"{name}-{code}-{stage_key(cfg, name)}.pkl"
            if path.exists():
                with open(path, "rb") as fh:
                    outputs[name] = _StageUnpickler(fh, outputs).load()
                continue
            if name != until and not build_upstream:
                raise RuntimeError(
                    f"stage {name!r} is not in cache {cache_dir} for this "
                    "config and code; run its subcommand first"
                )
        outputs[name] = globals()[st.fn](cfg, *(outputs[d] for d in st.deps))
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            # an artifact of other code can never hit again
            for old in path.parent.glob(f"{name}-*.pkl"):
                if not old.name.startswith(f"{name}-{code}-"):
                    old.unlink(missing_ok=True)
            with open(path, "wb") as fh:
                upstream = {d: outputs[d] for d in st.deps}
                _StagePickler(fh, upstream).dump(outputs[name])
    return outputs


class _StagePickler(pickle.Pickler):
    """Stores the top-level objects of upstream outputs as (stage, key)
    references, so an artifact holds no second copy of them.  Scalars such
    as `k_min` are stored by value: small ints are shared objects."""

    def __init__(self, fh, upstream: dict):
        super().__init__(fh)
        self._refs = {
            id(v): (d, k)
            for d, out in upstream.items()
            for k, v in out.items()
            if not isinstance(v, (int, float, str))
        }

    def persistent_id(self, obj):
        return self._refs.get(id(obj))


class _StageUnpickler(pickle.Unpickler):
    """Resolves (stage, key) references against the loaded upstream outputs."""

    def __init__(self, fh, outputs: dict):
        super().__init__(fh)
        self._outputs = outputs

    def persistent_load(self, pid):
        stage, key = pid
        return self._outputs[stage][key]


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def ambient_window(cfg: RunConfig, grid) -> Window:
    if cfg.ambient:
        return Window.from_json(cfg.ambient)
    E = grid["E"]
    lo = list(E.window.lo)
    hi = list(E.window.hi)
    L = 2.0 ** (-grid["k_min"]) * cfg.scale
    if E.bounded:
        pad = 1.2 * E.diameter
        return Window(
            (lo[0] - pad, -0.85 * L), (hi[0] + pad, 0.85 * L)
        )
    return Window((lo[0], -0.82 * L), (hi[0], 0.82 * L))


def stage_grid(cfg: RunConfig):
    desc = descriptor_from_json(cfg.boundary)
    window = Window.from_json(cfg.window)
    E = build_boundary(desc, cfg.resolution, window, lip_budget=max(0.5, cfg.eta))
    k_min = cfg.k_min
    if k_min is None:
        span = max(abs(min(window.lo)), abs(max(window.hi)))
        k_min = -int(np.ceil(np.log2(2 * span / cfg.scale + 1e-12)))
    S = build_cube_system(
        E, k_min, cfg.k_max, scale=cfg.scale, inclusion_budget=cfg.budgets.inclusion
    )
    adr = check_adr(E, cfg.budgets.adr)
    return {"E": E, "S": S, "adr": adr, "k_min": k_min}


def stage_regions(cfg: RunConfig, grid):
    E, S = grid["E"], grid["S"]
    amb = ambient_window(cfg, grid)
    W = whitney_decompose(E, amb, min_side=cfg.region.c_w * 2.0 ** (-cfg.k_max) * cfg.scale)
    corona = corona_provider(
        E, S, cfg.corona_mode, eta=cfg.eta, K=cfg.K, path=cfg.corona_file
    )
    RC = build_regions(S, W, corona, cfg.region)
    return {"W": W, "RC": RC}


def certified_mask(cfg: RunConfig, E) -> np.ndarray:
    if E.bounded:
        return np.ones(E.n_samples, dtype=bool)
    lo = np.asarray(E.window.lo)
    hi = np.asarray(E.window.hi)
    m = cfg.margin if cfg.margin is not None else E.window.span / 8.0
    return np.all((E.points >= lo + m) & (E.points <= hi - m), axis=1)


def stage_approximate(cfg: RunConfig, grid, regions):
    RC = regions["RC"]
    u = make_field(cfg.field_desc, grid["E"])
    far = 2.0 if grid["E"].bounded else None
    FS = FunctionalSuite(RC, u, sample_frac=cfg.sample_frac, far_ball_factor=far)
    # fill the suite's lazy caches here (the fat-grid pass, the gradient
    # quadratures, the cube numbers), so a cached artifact carries them
    FS.owners()
    FS.grad_integrals()
    numbers, _ = FS.cube_numbers(None)
    for a in cfg.alpha_grid:
        FS.cube_numbers(a)
    state = {"FS": FS, "per_eps": {}}
    for eps in cfg.eps_grid:
        labels = oscillation_cubes(FS, eps, numbers)
        gf = generation_cubes(RC, eps, numbers, u)
        A = build_global_approximant(FS, gf, labels, gamma0=cfg.gamma0)
        state["per_eps"][eps] = {"labels": labels, "gf": gf, "A": A}
    return state


class Report(dict):
    """The verify stage's output: the content of report.json, plus, as the
    attribute `cd`, the first eps's C_dyadic per sample, which
    functionals.csv lists and the report does not."""

    cd: np.ndarray


def stage_verify(cfg: RunConfig, grid, regions, approx):
    """The report of one run.  Each hard check is appended where its value
    is measured, so `hard_checks` lists them in measurement order: adr,
    corona, principal, embedding, the four checks of each eps, the eps^-2
    ratios, C2 growth and the apertures."""
    E, S = grid["E"], grid["S"]
    RC = regions["RC"]
    FS = approx["FS"]
    budgets = cfg.budgets
    numbers, m_point = FS.cube_numbers(None)
    cert = certified_mask(cfg, E)
    cfg_echo = cfg.to_json()
    del cfg_echo["out_dir"]  # where a report is written is not part of it
    report = Report({
        "version": __version__,
        "config": cfg_echo,
        "adr": grid["adr"].to_json(),
        "grid": {
            "n_samples": E.n_samples,
            "n_cubes": len(S.relevant_ids()),
            "c1": S.c1,
            "C1": S.C1,
            "k_min": grid["k_min"],
            "k_max": cfg.k_max,
        },
        "corona": RC.corona.to_json(S),
        "regions": RC.stats | {"n_demoted": int(RC.corona.demoted.sum())},
    })
    fam = principal_cubes(S, numbers, initial_chain(S))
    principal = report["principal"] = verify_principal_packing(
        S, fam, numbers, budget_factor=budgets.principal_packing_factor
    )
    # discrete embedding self-check: f = N_* u against the principal family;
    # M_dyadic(N_* u) is the pointwise cube number
    lhs, rhs, holds = carleson_embedding_check(
        S, FS.n_star(None), np.flatnonzero(fam.member), S.roots[0], md=m_point
    )
    report["embedding"] = {"lhs": lhs, "rhs": rhs, "holds": bool(holds)}
    hard = [
        ("adr", grid["adr"].passed),
        ("corona_packing", RC.corona.packing_measured <= CORONA_PACKING_BUDGET),
        ("principal_packing", principal["pass"]),
        ("embedding", bool(holds)),
    ]

    # the maximal and Carleson functionals of every eps, each in one call: M
    # of M_dyadic(N_*^{alpha0} u) per distinct alpha0, C_dyadic of every TV
    # measure, and C of every TV measure at the union of the L^p roll-up and
    # level-set samples
    runs = [approx["per_eps"][eps] for eps in cfg.eps_grid]
    alpha0s = [find_alpha0(FS, st["gf"]) for st in runs]
    alphas = sorted(set(alpha0s))
    mm = hl_maximal(S, np.stack([FS.cube_numbers(a)[1] for a in alphas]))
    cert_ids = np.flatnonzero(cert)
    lp_ids = lp_samples(cert)
    lev_ids = cert_ids[:: max(1, len(cert_ids) // 256)]
    ball_ids = distinct(np.concatenate([lp_ids, lev_ids]))
    tv = np.stack([st["A"].tv_box for st in runs])
    cds = FS.carleson_dyadic(tv)
    report.cd = cds[0]
    cb = FS.carleson_ball(tv, ball_ids)

    per_eps = report["eps"] = {}
    packing = {"R_union_B": [], "Gstar": []}
    c2s = []
    for k, (eps, st, alpha0) in enumerate(zip(cfg.eps_grid, runs, alpha0s)):
        labels, gf, A = st["labels"], st["gf"], st["A"]
        d = per_eps[f"{eps}"] = {"alpha0": alpha0}
        members = {"R_union_B": labels.member | RC.corona.bad(S), "Gstar": gf.member}
        for name, member in members.items():
            r = d[f"packing_{name}"] = verify_eps_packing(
                S, np.flatnonzero(member), eps, budget=budgets.eps_packing
            )
            packing[name].append(r)
            hard.append((f"packing_{name}_{eps}", r["pass"]))
        ver = d["verify"] = verify_approximation(
            FS,
            A,
            eps,
            alpha0,
            cert,
            cds[k],
            mm[alphas.index(alpha0)],
            cb[k, np.searchsorted(ball_ids, lp_ids)],
            p_grid=cfg.p_grid,
            c1_budget=budgets.pointwise_c1,
        )
        hard.append((f"pointwise_C1_{eps}", ver["C1_pass"]))
        lev = d["levelsets"] = compare_levelsets(
            cb[k, np.searchsorted(ball_ids, lev_ids)],
            cds[k][lev_ids],
            E.weights[lev_ids],
            p_grid=cfg.p_grid,
            a1_budget=budgets.levelset_a1,
            a2_budget=budgets.levelset_a2,
        )
        hard.append((f"levelsets_{eps}", lev["pass"]))
        if ver["C2"] > 0:
            c2s.append((eps, ver["C2"]))

    report["eps_scaling"] = {name: eps_scaling_chart(rs) for name, rs in packing.items()}
    # the eps^-2 packing law across the grid: Lambda(eps_min)/Lambda(eps_max)
    # <= (eps_max/eps_min)^2 * slack; skipped when there is no ratio to take
    e_min, e_max = min(cfg.eps_grid), max(cfg.eps_grid)
    i_min, i_max = cfg.eps_grid.index(e_min), cfg.eps_grid.index(e_max)
    for name, rs in packing.items():
        lam_min, lam_max = rs[i_min]["Lambda"], rs[i_max]["Lambda"]
        if e_min < e_max and lam_max > 0:
            ratio = report[f"eps_ratio_{name}"] = lam_min / lam_max
            bound = (e_max / e_min) ** 2 * budgets.eps_ratio_slack
            hard.append((f"eps_ratio_{name}", ratio <= bound))
    if len(c2s) >= 2:
        # growth-direction stability: no super-eps^{-2} growth of the lhs.
        # (the smallest passing C2 may honestly DECAY when the eps^{-2}
        # packing law is not saturated; only growth falsifies the bound)
        growth = report["C2_growth"] = max(
            c_b / c_a for (e_b, c_b) in c2s for (e_a, c_a) in c2s if e_b < e_a
        )
        hard.append(("C2_growth", growth <= budgets.carleson_c2_stability))

    apertures = report["apertures"] = {}
    for a in cfg.alpha_grid:
        row = apertures[f"{a}"] = {}
        for p in cfg.p_grid:
            r = row[f"{p}"] = compare_apertures(FS, a, p, certified=cert)
            hard.append((f"aperture_{a}_p{p}", 1.0 <= r <= budgets.aperture_k4))
    report["hard_checks"] = [[name, bool(ok)] for name, ok in hard]
    report["pass"] = all(ok for _, ok in hard)
    return report


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    def default(x):
        if isinstance(x, (np.floating,)):
            return float(x)
        if isinstance(x, (np.integer,)):
            return int(x)
        if isinstance(x, np.ndarray):
            return x.tolist()
        raise TypeError(f"not JSON-serializable: {type(x)}")

    return json.dumps(obj, sort_keys=True, indent=1, default=default)


def write_outputs(cfg: RunConfig, grid, approx, report):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(canonical_json(report))

    rows = ["eps,family,Lambda,bound,pass"]
    for e in cfg.eps_grid:
        d = report["eps"][f"{e}"]
        for fam in ("packing_R_union_B", "packing_Gstar"):
            r = d[fam]
            rows.append(
                f"{e!r},{fam.split('packing_')[1]},{r['Lambda']!r},{r['bound']!r},{int(r['pass'])}"
            )
    rows.append(f"0,principal,{report['principal']['Lambda']!r},,"
                f"{int(report['principal']['pass'])}")
    (out / "packing.csv").write_text("\n".join(rows) + "\n")

    FS = approx["FS"]
    E = grid["E"]
    first_eps = cfg.eps_grid[0]
    ns = FS.n_star(None)
    nsa = {a: FS.n_star(a) for a in cfg.alpha_grid}
    sq = FS.square_function()
    cd = report.cd
    header = (
        ["sample", "x0", "x1", "n_star"]
        + [f"n_star_a{a}" for a in cfg.alpha_grid]
        + ["square", f"cd_tv_eps{first_eps}"]
    )
    # column by column: `tolist` gives each float64 as the Python float whose
    # repr a per-value float() would give
    floats = [E.points[:, 0], E.points[:, 1], ns, *(nsa[a] for a in cfg.alpha_grid), sq, cd]
    cols = [map(str, range(E.n_samples)), *(map(repr, c.tolist()) for c in floats)]
    rows = [",".join(header), *map(",".join, zip(*cols))]
    (out / "functionals.csv").write_text("\n".join(rows) + "\n")

    rows = ["eps,box_a,box_b,axis,area,jump_mass"]
    for e in cfg.eps_grid:
        A = approx["per_eps"][e]["A"]
        for a, b, axis, area, mass in zip(*(x.tolist() for x in A.jump_facets)):
            rows.append(f"{e!r},{a},{b},{axis},{area!r},{mass!r}")
    (out / "tv.csv").write_text("\n".join(rows) + "\n")

    summary = {
        "pass": report["pass"],
        "hard_checks": report["hard_checks"],
        "first_failure": next(
            (name for name, ok in report["hard_checks"] if not ok), None
        ),
    }
    (out / "acceptance.json").write_text(canonical_json(summary))
    return summary
