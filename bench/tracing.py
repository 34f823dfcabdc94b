"""Per-layer tracing from outside the program.

The tracer wraps public matvol functions by rebinding each name in every
``matvol.*`` module namespace that holds it (the modules import each other
with ``from .x import y``, so patching the defining module alone would miss
most callers), and wraps ``Matroid.rank`` on the class.  Each wrapped call
records a span: name, start, end, the span that caused it, the job it ran
in, and its self time (duration minus the time its child spans cover).
``Matroid.rank`` is called millions of times per pass, so it records no
spans of its own; its calls and time are added to the enclosing span and
count as child time there.  Spans stay in memory until the worker writes
them out at exit; ``layer_totals`` turns them into the per-layer numbers.

Only the worker's main thread calls wrapped functions: the ``--threads``
pool inside ``signed_tuple_sum`` runs unwrapped internals.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric group -> (module, functions).  A group's ``.s`` is the inclusive
# time of its outermost spans (nested spans of the same group are not
# counted twice); ``.self_s`` is the summed self time.
GROUPS = {
    "cli.parse": ("matvol.cli", ("parse_matroid_file",)),
    "cli.main": ("matvol.cli", ("main",)),
    "matroid.build": (
        "matvol.matroid",
        ("from_bases", "graphic", "uniform", "truncate", "contract", "delete", "dual"),
    ),
    "matroid.connectivity": ("matvol.matroid", ("is_connected", "components", "coconnected_flats")),
    "invariants.tables": (
        "matvol.invariants",
        ("signed_beta_contractions", "signed_gamma_contractions"),
    ),
    "invariants.tutte": ("matvol.invariants", ("tutte",)),
    "decomposition.decompose": (
        "matvol.decomposition",
        ("decompose_base_polytope", "decompose_independent_polytope", "decompose_truncation_flag"),
    ),
    "decomposition.transform": (
        "matvol.decomposition",
        ("z_from_matroid", "z_from_matroid_indep", "y_from_z_gp", "y_from_z_q",
         "z_from_y_gp", "z_from_y_q", "zeta_subsets", "mobius_subsets"),
    ),
    "volume.engine": ("matvol.volume", ("signed_tuple_sum",)),
    "oracle.vertices": ("matvol.oracle", ("vertices_base", "vertices_indep", "vertices_flag")),
    "hull.facets": ("matvol.hull", ("dd_facets",)),
    "hull.volume": ("matvol.hull", ("normalized_volume",)),
    "verify.check.base": ("matvol.verify", ("check_base_polytope",)),
    "verify.check.indep": ("matvol.verify", ("check_independent_polytope",)),
    "verify.check.flag": ("matvol.verify", ("check_flag_polytope",)),
    "verify.matroid": ("matvol.verify", ("verify_matroid",)),
    "catalog.build": ("matvol.catalog", ("full_catalog",)),
}


def _count(name: str, args, kwargs, result) -> int:
    """The exact work count a span carries, by function."""
    if name in ("signed_beta_contractions", "signed_gamma_contractions"):
        return sum(1 for v in result if v)          # support size
    if name == "signed_tuple_sum":
        return args[1] if len(args) > 1 else kwargs["length"]  # tuple length
    if name.startswith("vertices_"):
        return len(result.points)
    if name == "dd_facets":
        return len(result)
    if name == "verify_matroid":
        return result[0]                            # check units run
    return 0


def _span_name(name: str, args, kwargs) -> str:
    if name == "signed_tuple_sum":
        strict = kwargs["strict"] if "strict" in kwargs else args[3]
        return name + (".strict" if strict else ".weak")
    return name


class Tracer:
    """Installs and removes the wrappers, and holds the spans they record.

    A span is ``[id, name, start, end, parent_id, job, self_s, count,
    rank_calls, rank_s]``; ``job`` is whatever the caller last assigned to
    ``self.job``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[list] = []   # open spans: [id, child_s, rank_calls, rank_s]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "matvol" or k.startswith("matvol.")]
        for module_name, functions in GROUPS.values():
            home = sys.modules[module_name]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(original, fname)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        matroid_cls = sys.modules["matvol.matroid"].Matroid
        self._patches.append((matroid_cls, "rank", matroid_cls.rank))
        matroid_cls.rank = self._wrap_rank(matroid_cls.rank)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, fname):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, 0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
            spans.append([
                span_id,
                _span_name(fname, args, kwargs),
                start,
                end,
                parent[0] if parent is not None else None,
                self.job,
                end - start - frame[1] - frame[3],
                _count(fname, args, kwargs, result),
                frame[2],
                frame[3],
            ])
            return result

        return traced

    def _wrap_rank(self, rank):
        stack = self._stack

        def traced_rank(matroid, subset):
            start = perf_counter()
            r = rank(matroid, subset)
            top = stack[-1]  # every call happens under cli.main or full_catalog
            top[2] += 1
            top[3] += perf_counter() - start
            return r

        return traced_rank


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans
# ---------------------------------------------------------------------------

def _group_of_span() -> dict[str, str]:
    out = {}
    for group, (_, functions) in GROUPS.items():
        for fname in functions:
            out[fname] = group
    out["signed_tuple_sum.strict"] = out["signed_tuple_sum.weak"] = "volume.engine"
    return out


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Sums over spans: ``<group>.s`` (inclusive, outermost spans only),
    ``<group>.self_s``, ``<group>.calls``, ``<group>.count``, plus
    ``matroid.rank.calls``/``.s`` and the weak-bound engine self time."""
    group_of = _group_of_span()
    by_id = {s[0]: s for s in spans}
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0) + value

    for span_id, name, start, end, parent, job, self_s, count, rank_calls, rank_s in spans:
        group = group_of[name]
        add(group + ".self_s", self_s)
        add(group + ".calls", 1)
        add(group + ".count", count)
        add("matroid.rank.calls", rank_calls)
        add("matroid.rank.s", rank_s)
        if name == "signed_tuple_sum.weak":
            add("volume.engine.weak_self_s", self_s)
        ancestor = parent
        while ancestor is not None and group_of[by_id[ancestor][1]] != group:
            ancestor = by_id[ancestor][4]
        if ancestor is None:
            add(group + ".s", end - start)
    return totals
