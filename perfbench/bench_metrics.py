"""The benchmark's metrics: names, units, and what each should move.

``END_TO_END`` are what a user of scem-rd sees, measured with tracing
off. ``PER_LAYER`` come from the traced run; each names the end-to-end
metric and workload it should move, so a later change can cite it.
``BENCHMARK.json`` at the repository root lists the same names.

The rhs_jac point count is reported once, as ``collocation.jac_points``:
the layer problem's Jacobian callback and the engine's Jacobian assembly
see the same points. The ``collocation.lu`` metrics time the scipy
``splu`` the engine calls and read 0 once the engine no longer uses it.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# (name, unit, better, bound). On a shared 2-core machine the speed of
# the same code drifts by 10-25% over minutes, in CPU time as much as in
# wall time. Even in probe-scaled reference seconds, ten runs of a
# workload spread by 5-14% between quartiles, so the timings get the
# widest bound the harness allows; memory and error repeat almost exactly.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("solve_p50_ms", "ms", "lower", 0.25),
    ("solve_p90_ms", "ms", "lower", 0.25),
    ("err_max", "1", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better, should move)
PER_LAYER = (
    ("collocation.solve_s", "s", "lower",
     "wall_s and solve_p50_ms on paper_tables; little on figures"),
    ("collocation.self_s", "s", "lower",
     "wall_s and solve_p50_ms on paper_tables: assembly, LU and Newton algebra"),
    ("collocation.lu_s", "s", "lower",
     "wall_s on paper_tables; SuperLU factor and back-solve, 0 once the engine drops splu"),
    ("collocation.lu_calls", "count", "lower", "wall_s on paper_tables; SuperLU factorizations"),
    ("collocation.passes", "count", "lower",
     "wall_s and peak_rss_mb on deep_eps; one per layer solve on paper_tables"),
    ("collocation.passes_max", "count", "lower", "wall_s on deep_eps"),
    ("collocation.final_nodes_max", "count", "lower", "peak_rss_mb on deep_eps"),
    ("collocation.newton_iters", "count", "lower", "wall_s on deep_eps and paper_tables"),
    ("collocation.jac_points", "count", "lower",
     "wall_s on deep_eps; rhs_jac point evaluations, the same count as the layer jac points"),
    ("collocation.final_pass_share", "ratio", "higher",
     "wall_s on deep_eps; jac points on the final mesh over all jac points"),
    ("collocation.evaluate_s", "s", "lower", "wall_s on figures"),
    ("collocation.evaluate_points", "count", "lower", "wall_s on figures"),
    ("scem.hybrid_solves", "count", "lower", "fixed by the workload; divides the other counts"),
    ("scem.layer_solves", "count", "lower", "wall_s on every workload; two per hybrid solve today"),
    ("scem.layer_rhs_s", "s", "lower",
     "wall_s on paper_tables and deep_eps; rhs and rhs_jac callbacks, A(x) re-sampling"),
    ("scem.layer_rhs_points", "count", "lower", "wall_s on paper_tables and deep_eps"),
    ("scem.outer_eval_s", "s", "lower", "wall_s on figures"),
    ("scem.outer_eval_points", "count", "lower", "wall_s on figures"),
    ("scem.composite_eval_s", "s", "lower", "wall_s on figures"),
    ("scem.composite_eval_points", "count", "lower", "wall_s on figures"),
    ("system.validate_s", "s", "lower", "solve_p50_ms on paper_tables; paid on every solve"),
    ("system.validate_calls", "count", "lower", "solve_p50_ms on paper_tables"),
    ("system.coeff_matrix_s", "s", "lower", "wall_s on paper_tables and deep_eps"),
    ("system.coeff_matrix_points", "count", "lower", "wall_s on paper_tables and deep_eps"),
    ("config.build_system_s", "s", "lower",
     "solve_p50_ms on paper_tables; expression compile and the 101-point probe"),
    ("config.build_system_calls", "count", "lower", "solve_p50_ms on paper_tables"),
    ("analysis.convergence_table_self_s", "s", "lower", "wall_s on paper_tables"),
    ("analysis.double_mesh_s", "s", "lower", "wall_s on paper_tables"),
    ("analysis.oracle_s", "s", "lower", "wall_s on figures"),
    ("cli.main_s", "s", "lower", "wall_s on figures and paper_tables"),
    ("cli.output_s", "s", "lower",
     "wall_s on figures: parsing, CSV formatting and writes; 0 on deep_eps"),
    ("cli.bytes_written", "B", "lower", "wall_s on figures"),
    ("proc.cpu_s", "s", "lower", "diagnostic only: process CPU time of the untraced body"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
)


def layer_metrics(tracer, bytes_written: int, cpu_s: float, overhead_s: float) -> dict:
    """Per-layer values from one traced body."""
    total = tracer.totals()
    own = tracer.self_times()
    count = tracer.counts
    stats = tracer.solve_stats
    jac_points = sum(s["jac_points"] for s in stats)
    return {
        "collocation.solve_s": total["collocation.solve"],
        "collocation.self_s": own["collocation.solve"],
        "collocation.lu_s": total["collocation.lu"] + total["collocation.lu_solve"],
        "collocation.lu_calls": count["collocation.lu.calls"],
        "collocation.passes": sum(s["passes"] for s in stats),
        "collocation.passes_max": max((s["passes"] for s in stats), default=0),
        "collocation.final_nodes_max": max((s["final_nodes"] for s in stats), default=0),
        "collocation.newton_iters": sum(s["newton_iterations"] for s in stats),
        "collocation.jac_points": jac_points,
        "collocation.final_pass_share":
            sum(s["final_jac_points"] for s in stats) / jac_points if jac_points else 0.0,
        "collocation.evaluate_s": total["collocation.evaluate"],
        "collocation.evaluate_points": count["collocation.evaluate.points"],
        "scem.hybrid_solves": count["scem.hybrid_solve.calls"],
        "scem.layer_solves": count["collocation.solve.calls"],
        "scem.layer_rhs_s": total["scem.layer_rhs"] + total["scem.layer_jac"],
        "scem.layer_rhs_points": count["scem.layer_rhs.points"],
        "scem.outer_eval_s": total["scem.outer_eval"],
        "scem.outer_eval_points": count["scem.outer_eval.points"],
        "scem.composite_eval_s": total["scem.composite_eval"],
        "scem.composite_eval_points": count["scem.composite_eval.points"],
        "system.validate_s": total["system.validate"],
        "system.validate_calls": count["system.validate.calls"],
        "system.coeff_matrix_s": total["system.coeff_matrix"],
        "system.coeff_matrix_points": count["system.coeff_matrix.points"],
        "config.build_system_s": total["config.build_system"],
        "config.build_system_calls": count["config.build_system.calls"],
        "analysis.convergence_table_self_s": own["analysis.convergence_table"],
        "analysis.double_mesh_s": total["analysis.double_mesh"],
        "analysis.oracle_s": total["analysis.oracle"],
        "cli.main_s": total["cli.main"],
        "cli.output_s": own["cli.main"],
        "cli.bytes_written": bytes_written,
        "proc.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
    }
