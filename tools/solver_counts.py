"""Count the solver work of one noisy protocol run, per program.

Runs run_noisy_protocol(NoisyProtocolConfig(dim, n_targets, seed)), every
other field at its default, and prints for each program and in total: the
solves, their gradient steps, their face-polish attempts (_polish calls,
certified or failed), trace-min's mu searches (the _secant calls whose
points are polishes, and those that gave up), the Newton steps of the
attempts, the Newton systems they formed (dense Hessians, also by real
dimension n = 2dr of a rank-r face, and matrix-free ones) and solved, and
the stop reasons.  Gradient steps are a solve's
iterations less its Newton steps.  A dense system whose exact step is refused and solved again by CG
counts once.  Nothing in the package changes: the counters wrap the
estimator names that strictqst.experiments imports and the solver helpers
of strictqst.estimators, as perfbench/spans.py wraps its boundaries.

    python tools/solver_counts.py [dim [n_targets [seed]]]   (default 11 1 11)
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from strictqst import estimators, experiments  # noqa: E402

PROGRAMS = ("least_squares", "trace_min", "max_likelihood")
ROWS = ("solves", "gradient steps", "polish attempts", "  certified", "  failed", "mu searches",
        "  gave up", "Newton steps", "dense Hessians", "matrix-free Hessians", "Newton solves")


def count(dim: int, n_targets: int, seed: int) -> dict[str, Counter]:
    """Per program, a Counter keyed by ROWS, by "  n = <2dr>" (dense
    Hessians by real dimension) and by "stop: <reason>"."""
    counts = {name: Counter() for name in PROGRAMS}
    current = [None]  # the program whose solve is running
    nested = [0]  # depth inside _dense_newton, whose CG fallback is not a new system
    searches = []  # per open _secant call, the _polish calls made directly in it

    def solver(name, solve):
        def counted(*args, **kwargs):
            current[0] = counts[name]
            res = solve(*args, **kwargs)
            current[0].update({"solves": 1, "iterations": res.iterations, f"stop: {res.stop_reason}": 1})
            return res
        return counted

    def tally(key, fn):
        def counted(*args):
            current[0][key] += 1
            return fn(*args)
        return counted

    hess_matrix = estimators._hess_matrix

    def counted_matrix(ut, w, *args):
        current[0].update({"dense Hessians": 1, f"  n = {2 * ut.shape[1] * w.shape[1]}": 1})
        return hess_matrix(ut, w, *args)

    polish, dense_newton, newton_cg = estimators._polish, estimators._dense_newton, estimators._newton_cg
    secant = estimators._secant

    def counted_secant(g_at, t):
        searches.append(0)
        root = secant(g_at, t)
        if searches.pop():  # its points were polishes: a mu search, not the shift search
            current[0].update({"mu searches": 1, "  gave up": root is None})
        return root

    def counted_polish(*args):
        if searches:
            searches[-1] += 1
        point, steps = polish(*args)
        current[0].update({"polish attempts": 1, "  certified" if point else "  failed": 1,
                           "Newton steps": steps})
        return point, steps

    def counted_dense(h, g):
        current[0]["Newton solves"] += 1
        nested[0] += 1
        try:
            return dense_newton(h, g)
        finally:
            nested[0] -= 1

    def counted_cg(hess, g):
        if not nested[0]:
            current[0]["Newton solves"] += 1
        return newton_cg(hess, g)

    wraps = [(experiments, f"estimate_{name}", solver(name, getattr(experiments, f"estimate_{name}")))
             for name in PROGRAMS]
    wraps += [
        (estimators, "_polish", counted_polish),
        (estimators, "_secant", counted_secant),
        (estimators, "_dense_newton", counted_dense),
        (estimators, "_newton_cg", counted_cg),
        (estimators, "_hess_matrix", counted_matrix),
        (estimators, "_hess_product", tally("matrix-free Hessians", estimators._hess_product)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in wraps]
    for module, name, fn in wraps:
        setattr(module, name, fn)
    try:
        experiments.run_noisy_protocol(
            experiments.NoisyProtocolConfig(dim=dim, n_targets=n_targets, seed=seed))
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    for c in counts.values():
        c["gradient steps"] = c.pop("iterations", 0) - c["Newton steps"]
    return counts


def main(argv: list[str]) -> int:
    dim, n_targets, seed = (int(a) for a in (argv + ["11", "1", "11"][len(argv):]))
    counts = count(dim, n_targets, seed)
    total = sum(counts.values(), Counter())
    stops = sorted(key for key in total if key.startswith("stop: "))
    sizes = sorted((key for key in total if key.startswith("  n = ")), key=lambda key: int(key[6:]))
    at = ROWS.index("dense Hessians") + 1
    rows = (*ROWS[:at], *sizes, *ROWS[at:], *stops)
    columns = [*PROGRAMS, "total"]
    width = max(len(row) for row in rows)
    print(f"d={dim}, {n_targets} target(s), seed {seed}")
    print(f"{'':<{width}}" + "".join(f"{name:>16}" for name in columns))
    for row in rows:
        print(f"{row:<{width}}" + "".join(f"{(total if name == 'total' else counts[name])[row]:>16,}"
                                         for name in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
