"""Span tracer that wraps the package's public functions from outside.

Each wrapped function is replaced at every name a caller binds: the defining
module, every package module that imported it with ``from .x import f``, and
the class attribute for methods.  A span records (id, parent id, name, start,
end); self time is a span's duration minus the time its child spans cover.
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time

PACKAGE = "epsapprox"
MODULES = (
    "geometry",
    "dyadic",
    "carleson",
    "whitney",
    "harmonic",
    "functionals",
    "stopping",
    "approximator",
    "pipeline",
)

# metric stem -> (module, attribute path)
FUNCTIONS = {
    "pipeline.grid": ("pipeline", "stage_grid"),
    "pipeline.regions": ("pipeline", "stage_regions"),
    "pipeline.approximate": ("pipeline", "stage_approximate"),
    "pipeline.verify": ("pipeline", "stage_verify"),
    "pipeline.write": ("pipeline", "write_outputs"),
    "approximator.find_alpha0": ("approximator", "find_alpha0"),
    "approximator.build_global_approximant": ("approximator", "build_global_approximant"),
    "approximator.verify_approximation": ("approximator", "verify_approximation"),
    "whitney.whitney_decompose": ("whitney", "whitney_decompose"),
    "whitney.corona_provider": ("whitney", "corona_provider"),
    "whitney.build_regions": ("whitney", "build_regions"),
    "geometry.box_distance_many": ("geometry", "box_distance_many"),
    "geometry.build_boundary": ("geometry", "build_boundary"),
    "geometry.check_adr": ("geometry", "check_adr"),
    "functionals.owners": ("functionals", "FunctionalSuite.owners"),
    "functionals.aperture_neighbors": ("functionals", "FunctionalSuite.aperture_neighbors"),
    "functionals.n_star": ("functionals", "FunctionalSuite.n_star"),
    "functionals.cube_numbers": ("functionals", "FunctionalSuite.cube_numbers"),
    "functionals.carleson_ball": ("functionals", "FunctionalSuite.carleson_ball"),
    "functionals.compare_apertures": ("functionals", "compare_apertures"),
    "stopping.generation_cubes": ("stopping", "generation_cubes"),
    "stopping.oscillation_cubes": ("stopping", "oscillation_cubes"),
    "stopping.principal_cubes": ("stopping", "principal_cubes"),
    "stopping.verify_principal_packing": ("stopping", "verify_principal_packing"),
    "stopping.verify_eps_packing": ("stopping", "verify_eps_packing"),
    "carleson.sparse_witness": ("carleson", "sparse_witness"),
    "carleson.packing_constant": ("carleson", "packing_constant"),
    "carleson.carleson_embedding_check": ("carleson", "carleson_embedding_check"),
    "dyadic.build_cube_system": ("dyadic", "build_cube_system"),
}
# stems reported as inclusive wall time: a stage's own code is only glue
# between the layer functions it calls, so its self time says little
INCLUSIVE = (
    "pipeline.grid",
    "pipeline.regions",
    "pipeline.approximate",
    "pipeline.verify",
    "pipeline.write",
)
# stems whose call counts are reported as `<stem>_calls`
COUNTED = (
    "geometry.box_distance_many",
    "functionals.aperture_neighbors",
    "harmonic.eval",
    "carleson.sparse_witness",
)


# stem -> (counter, function of the return value giving the amount to add).
# Sizes are reported per object built; the feasible count is divided by the
# number of witnesses attempted.
RESULT_COUNTERS = {
    "approximator.build_global_approximant": ("approximator.n_cells", lambda a: len(a.cells)),
    "whitney.whitney_decompose": ("whitney.n_boxes", lambda w: w.n_boxes),
    "dyadic.build_cube_system": ("dyadic.n_cubes", lambda s: len(s.relevant_ids())),
    "carleson.sparse_witness": ("carleson.feasible_ratio", lambda r: int(r.feasible)),
}


class Tracer:
    """Wraps the FUNCTIONS targets on `install`; `active` gates recording."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # (id, parent, name, start, end)
        self.self_time: dict = {}
        self.total_time: dict = {}
        self.calls: dict = {}
        self.counters: dict = {}
        self._stack: list = []  # [span id, child seconds]
        self._restore: list = []

    # -- recording ------------------------------------------------------

    def _wrap(self, stem, fn):
        on_result = RESULT_COUNTERS.get(stem)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            self.spans.append(None)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[sid] = (sid, parent, stem, t0, t1)
                self.self_time[stem] = self.self_time.get(stem, 0.0) + dur - frame[1]
                self.total_time[stem] = self.total_time.get(stem, 0.0) + dur
                self.calls[stem] = self.calls.get(stem, 0) + 1
            if on_result is not None:
                key, amount = on_result
                self.counters[key] = self.counters.get(key, 0) + amount(out)
            return out

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        targets = dict(FUNCTIONS)
        # every concrete field's own `eval` counts as harmonic.eval
        base = mods["harmonic"].HarmonicField
        for name, obj in vars(mods["harmonic"]).items():
            if isinstance(obj, type) and issubclass(obj, base) and "eval" in vars(obj):
                targets[f"harmonic.eval:{name}"] = ("harmonic", f"{name}.eval")
        for key, (mod, path) in targets.items():
            stem = key.split(":")[0]
            owner = mods[mod]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            wrapped = self._wrap(stem, orig)
            self._set(owner, attr, orig, wrapped)
            if not cls_path:
                # rebind `from .mod import fn` copies in every package module
                for other in mods.values():
                    if other is not owner and vars(other).get(attr) is orig:
                        self._set(other, attr, orig, wrapped)
        return self

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def per_layer(self, n_ops: int) -> dict:
        """Per-layer metrics, name -> (value, unit).

        Seconds and calls are per op, with the traced set-up amortized over
        the ops; sizes are per object built.
        """
        out = {}
        for stem in sorted(set(FUNCTIONS) | {"harmonic.eval"}):
            spent = self.total_time if stem in INCLUSIVE else self.self_time
            out[f"{stem}_s"] = (spent.get(stem, 0.0) / n_ops, "s")
        for stem in COUNTED:
            out[f"{stem}_calls"] = (self.calls.get(stem, 0) / n_ops, "count")
        for stem, (key, _) in RESULT_COUNTERS.items():
            made = self.calls.get(stem, 0)
            unit = "ratio" if key == "carleson.feasible_ratio" else "count"
            out[key] = (self.counters.get(key, 0) / made if made else 0.0, unit)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{name},{t0!r},{t1!r}\n")

