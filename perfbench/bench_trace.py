"""Span tracing at the scem_rd layer boundaries, installed from outside.

The package is not edited: :func:`install` replaces the public functions
that one layer calls in the next (module attributes and class methods)
with wrappers that record a span per call and count the work the call
carried, and :func:`uninstall` puts the originals back. Spans are kept in
memory as ``[name, start, end, parent]`` rows; a layer's self time is its
span duration minus the part of that interval covered by its child spans.

A span opened with ``attach=False`` (the SuperLU factor and back-solve)
is recorded for its own total but is not a child of the enclosing span,
so ``collocation.solve`` self time keeps the linear algebra, as intended:
it is the solve minus the rhs, Jacobian and boundary callbacks.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import scem_rd.analysis
import scem_rd.cli
import scem_rd.collocation
import scem_rd.config
import scem_rd.scem
import scem_rd.system


class Tracer:
    """In-memory span recorder with per-name work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.enabled = True
        self._paused_s = 0.0
        self._stack: list[int] = []
        self._jac_sizes: list[int] | None = None  # rhs_jac sizes of the open solve
        self.solve_stats: list[dict] = []

    def wrap(self, name: str, fn, attach: bool = True, points=None):
        """Return fn wrapped in a span; ``points(args)`` adds to ``name.points``."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if points is not None:
                self.counts[name + ".points"] += points(args)
            parent = self._stack[-1] if self._stack else None
            row = [name, self._now(), 0.0, parent if attach else None]
            self.spans.append(row)
            if attach:
                self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = self._now()
                if attach:
                    self._stack.pop()

        return traced

    def _now(self) -> float:
        """The span clock: wall time with the paused intervals taken out."""
        return perf_counter() - self._paused_s

    @contextmanager
    def paused(self):
        """Run benchmark-side checks unrecorded and off the span clock, so
        they add to no enclosing span."""
        was, self.enabled = self.enabled, False
        t0 = perf_counter()
        try:
            yield
        finally:
            if was:
                self._paused_s += perf_counter() - t0
            self.enabled = was

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (see :func:`self_times`)."""
        return self_times(self.spans)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Per name, the sum of span duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children.get(i, []), start, end)
    return out


# ---------------------------------------------------------------------------
# layer boundaries
# ---------------------------------------------------------------------------

def _npoints(arg) -> int:
    return int(getattr(arg, "size", 1))


class _TracedLu:
    """Stands in for the SuperLU object so its back-solves are timed too."""

    def __init__(self, lu, tracer: Tracer):
        self.solve = tracer.wrap("collocation.lu_solve", lu.solve, attach=False)


def _traced_layer(tracer: Tracer, build):
    """build_layer_problem that returns a problem with traced callbacks."""

    def rhs_jac_points(args):
        size = _npoints(args[0])
        if tracer._jac_sizes is not None:
            tracer._jac_sizes.append(size)
        return size

    def traced_build(*args, **kwargs):
        problem = build(*args, **kwargs)
        bvp = problem.bvp
        bvp = dataclasses.replace(
            bvp,
            rhs=tracer.wrap("scem.layer_rhs", bvp.rhs, points=lambda a: _npoints(a[0])),
            rhs_jac=tracer.wrap("scem.layer_jac", bvp.rhs_jac, points=rhs_jac_points),
            bc=tracer.wrap("scem.layer_bc", bvp.bc),
        )
        return dataclasses.replace(problem, bvp=bvp)

    return tracer.wrap("scem.build_layer", traced_build)


def _refinement_stats(jac_sizes: list[int], sol) -> dict:
    """Passes and Jacobian work of one collocation solve.

    Each Jacobian assembly calls rhs_jac on the N+1 nodes, then on the N
    midpoints, so the even-indexed calls carry the node counts.
    """
    node_sizes = jac_sizes[0::2]
    final = int(sol.mesh.nodes.size)
    final_points = sum(
        n + m for n, m in zip(node_sizes, jac_sizes[1::2]) if n == final
    )
    return {
        "passes": len(set(node_sizes)),
        "final_nodes": final,
        "newton_iterations": int(sol.newton_iterations),
        "jac_points": sum(jac_sizes),
        "final_jac_points": final_points,
    }


def _traced_collocation_solve(tracer: Tracer, solve):
    inner = tracer.wrap("collocation.solve", solve)

    def traced_solve(*args, **kwargs):
        if not tracer.enabled:
            return solve(*args, **kwargs)
        outer_sizes, tracer._jac_sizes = tracer._jac_sizes, []
        try:
            sol = inner(*args, **kwargs)
            tracer.solve_stats.append(_refinement_stats(tracer._jac_sizes, sol))
            return sol
        finally:
            tracer._jac_sizes = outer_sizes

    return traced_solve


def _traced_oracle(tracer: Tracer, oracle):
    def traced_oracle(*args, **kwargs):
        return tracer.wrap("analysis.oracle", oracle(*args, **kwargs))

    return tracer.wrap("analysis.oracle", traced_oracle)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every layer boundary; returns what :func:`uninstall` restores."""
    cli, scem, coll = scem_rd.cli, scem_rd.scem, scem_rd.collocation
    splu = coll.splu

    def pts(args):  # (self, xs) methods
        return _npoints(args[1])

    traced_hybrid = tracer.wrap("scem.hybrid_solve", scem.hybrid_solve)
    patches = [
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (cli, "convergence_table", tracer.wrap("analysis.convergence_table", cli.convergence_table)),
        (cli, "exact_constant_system", _traced_oracle(tracer, cli.exact_constant_system)),
        (cli, "hybrid_solve", traced_hybrid),
        (scem, "hybrid_solve", traced_hybrid),
        (scem_rd.analysis, "double_mesh_diff",
         tracer.wrap("analysis.double_mesh", scem_rd.analysis.double_mesh_diff)),
        (scem, "validate_assumptions", tracer.wrap("system.validate", scem.validate_assumptions)),
        (scem, "build_layer_problem", _traced_layer(tracer, scem.build_layer_problem)),
        (scem, "solve", _traced_collocation_solve(tracer, scem.solve)),
        (scem, "evaluate", tracer.wrap("collocation.evaluate", scem.evaluate, points=pts)),
        (coll, "splu", tracer.wrap(
            "collocation.lu", lambda J: _TracedLu(splu(J), tracer), attach=False)),
        (scem.OuterSolution, "eval_many",
         tracer.wrap("scem.outer_eval", scem.OuterSolution.eval_many, points=pts)),
        (scem.HybridApproximation, "eval_many",
         tracer.wrap("scem.composite_eval", scem.HybridApproximation.eval_many, points=pts)),
        (scem_rd.system.ReactionDiffusionSystem, "coeff_matrix",
         tracer.wrap("system.coeff_matrix",
                     scem_rd.system.ReactionDiffusionSystem.coeff_matrix, points=pts)),
        (scem_rd.config.ProblemConfig, "build_system",
         tracer.wrap("config.build_system", scem_rd.config.ProblemConfig.build_system)),
    ]
    return patch(patches)


def patch(patches: list[tuple[object, str, object]]) -> list[tuple[object, str, object]]:
    """Set each (owner, attribute, replacement); returns the originals."""
    undo = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
