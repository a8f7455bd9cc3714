"""Benchmark of the iwqm package: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30          # every workload, one after another

Run from a checkout; the package is imported from its ``src`` directory.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  The lines before it give the environment and
each metric by name and unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Trace files and other run output, inside the checkout.
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("verify", "operators", "basis")
#: Fresh processes that each set up the workload; setup_s is their median.
SETUP_REPEATS = 5
#: Share of a traced run spent on untraced rounds, the base of trace.overhead.
UNTRACED_SHARE = 1 / 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cold_cli_ref": "ref",
    "round_ref": "ref",
    "grid_rel_err": "1",
    "gram_defect": "1",
}

_SUITES = {"algebra": "algebra_suite", "spectrum": "spectrum_suite",
           "eigenfunctions": "eigenfunction_suite", "normalization": "normalization_suite",
           "nonlocalization": "nonlocalization_suite", "coherent": "coherent_suite",
           "decay": "decay_suite", "correspondence": "correspondence_suite"}
_MATRIX_BUILDERS = ("build_lowering", "build_raising", "build_number", "build_hamiltonian",
                    "build_position", "build_momentum", "build_su11")

_CLI = ("main", "build_parser", "config_from_args", "cmd_verify", "cmd_op_check",
        "cmd_dump_eigenfunction", "cmd_dump_gram", "cmd_dump_coherent", "cmd_dump_evolve",
        "cmd_dump_decay")

#: Per-layer self times: metric -> span names whose self time it sums.  A
#: metric takes in the helpers that serve only its function, such as the
#: raising chain behind ``eigenfunction`` or the rule sum behind
#: ``pairing_integral``, so that their time is not left out.
SELF_TIMES = {
    "import.s": ("import",),
    "cli.main.s": tuple(f"cli.{fn}" for fn in _CLI),
    **{f"verify.{suite}.s": (f"verify.{fn}",) for suite, fn in _SUITES.items()},
    "verify.conventions.s": ("verify.conventions", "verify.determine_bra_phase"),
    "verify.report.s": ("verify.report_dict", "verify.report_csv_lines"),
    "dynamics.grid_split_step.s": ("dynamics.grid_split_step",),
    "dynamics.integrate_alpha.s": ("dynamics.integrate_alpha",),
    "dynamics.gaussian_packet.s": ("dynamics.gaussian_packet",),
    "kernels.grid_observables.s": ("kernels.grid_observables",),
    "kernels.rk4_trajectory.s": ("kernels.rk4_trajectory",),
    "kernels.eval_poly.s": ("kernels.eval_poly",),
    "coherent.build_coherent.s": ("coherent.build_coherent", "coherent.tail_bound"),
    "coherent.expectation.s": ("coherent.expectation",),
    "coherent.uncertainty_product.s": ("coherent.uncertainty_product",),
    "coherent.eigen_residual.s": ("coherent.eigen_residual",),
    "coherent.mutual_pairing.s": ("coherent.mutual_pairing", "algebra.dual_pairing"),
    "algebra.matrix_build.s": tuple(f"algebra.{fn}" for fn in _MATRIX_BUILDERS),
    "algebra.commutator.s": ("algebra.commutator",),
    "algebra.generator_action.s": ("algebra.generator_action",),
    "expressions.parse_equation.s": ("expressions.parse_equation", "expressions.parse_expression",
                                     "expressions.scaled", "expressions.op_sum",
                                     "expressions.op_product", "expressions.number_expression",
                                     "expressions.hamiltonian_expression",
                                     "expressions.su11_expressions"),
    "expressions.adjoint.s": ("expressions.adjoint",),
    "expressions.to_matrix.s": ("expressions.to_matrix",),
    "eigenfunctions.eigenfunction.s": ("eigenfunctions.eigenfunction", "eigenfunctions.raise_once",
                                       "eigenfunctions.apply_raising",
                                       "eigenfunctions.generating_function"),
    "eigenfunctions.evaluate.s": ("eigenfunctions.evaluate",),
    "quadrature.gram_matrix.s": ("quadrature.gram_matrix",),
    "quadrature.pairing_integral.s": ("quadrature.pairing_integral", "quadrature.integrate"),
    "quadrature.pairing_integral_by_moments.s": ("quadrature.pairing_integral_by_moments",
                                                 "quadrature.integrate_by_moments"),
    "quadrature.rule_build.s": ("quadrature.rule_build",),
    "quadrature.density_interval_integral.s": ("quadrature.density_interval_integral",
                                               "quadrature.adaptive_simpson"),
}
#: Per-layer call counts of single functions.
CALLS = ("kernels.grid_observables", "kernels.eval_poly", "coherent.build_coherent",
         "coherent.expectation", "algebra.build_position", "algebra.build_momentum",
         "eigenfunctions.eigenfunction", "eigenfunctions.raise_once", "eigenfunctions.evaluate",
         "quadrature.pairing_integral")
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALLS},
    "dynamics.split_steps": "count",
    "quadrature.integrand_evals": "count",
    "coherent.builds_per_label": "ratio",
    "eigenfunctions.raises_per_level": "ratio",
    "trace.overhead": "ratio",
}


def cap_blas_threads() -> tuple[int, int]:
    """Limit the BLAS thread count to the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def setup(name: str, seed: int):
    """Import, input generation and one warm-up of each operation kind."""
    start = time.perf_counter()
    import numpy as np

    import workloads

    cli = workloads.Cli(dict(os.environ), OUT)
    workload = workloads.WORKLOADS[name](np.random.default_rng(seed), cli)
    warm = workload.warm_up()
    return workload, time.perf_counter() - start, warm.errors


def run_rounds(workload, deadline: float, first: int, trace_round=None) -> list:
    """Whole rounds until the deadline has passed, at least one.

    Both references are timed before the first round and after every
    round; a round's ``ref_s`` and ``ref_process_s`` are the means of the
    two timings beside it.
    """
    import workloads

    def references():
        return workloads.reference_seconds(), workload.cli.reference()

    rounds = []
    index = first
    before = references()
    while True:
        result = workload.round(index) if trace_round is None else trace_round(index)
        after = references()
        result.ref_s = (before[0] + after[0]) / 2
        result.ref_process_s = (before[1] + after[1]) / 2
        rounds.append(result)
        before = after
        index += 1
        if time.perf_counter() >= deadline:
            return rounds


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, setup_s: float, seconds: float) -> tuple[dict, list, list[str]]:
    import workloads

    probes, errors = workloads.accuracy_probes()
    rounds = run_rounds(workload, time.perf_counter() + seconds, 0)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
        "cold_cli_ref": statistics.median(d / r.ref_process_s
                                          for r in rounds for d in r.durations["cold"]),
        "round_ref": statistics.median(r.inproc_s / r.ref_s for r in rounds),
        **probes,
    }
    return metrics, rounds, errors


def figures(workload, rounds: list) -> list[tuple[str, float, str]]:
    """Wall-clock figures printed before the result line: medians in seconds
    of the fresh process, the in-process round and the reference work, and
    the workload's own medians and rates."""
    out = [("cold_cli_s", statistics.median(d for r in rounds for d in r.durations["cold"]), "s"),
           ("round_s", statistics.median(r.inproc_s for r in rounds), "s"),
           ("ref_s", statistics.median(r.ref_s for r in rounds), "s"),
           ("ref_process_s", statistics.median(r.ref_process_s for r in rounds), "s")]
    out += [(name, statistics.median(d for r in rounds for d in r.durations[kind]), "s")
            for name, kind in workload.medians.items()]
    out += [(name, statistics.median(r.work[kind] / r.busy[kind] for r in rounds), "1/s")
            for name, kind in workload.rates.items()]
    return out


def layer_metrics(tracer, lo: int, hi: int, counters: Counter, labels: int) -> dict:
    self_s, calls, edges = tracer.summarize(lo, hi)
    out = {metric: sum(self_s.get(n, 0.0) for n in names) for metric, names in SELF_TIMES.items()}
    out.update({f"{name}.calls": calls[name] for name in CALLS})
    out["dynamics.split_steps"] = counters["dynamics.split_steps"]
    out["quadrature.integrand_evals"] = edges[("quadrature.adaptive_simpson",
                                               "eigenfunctions.evaluate")]
    out["coherent.builds_per_label"] = calls["coherent.build_coherent"] / labels if labels else 0.0
    eigen = calls["eigenfunctions.eigenfunction"]
    out["eigenfunctions.raises_per_level"] = (calls["eigenfunctions.raise_once"] / eigen
                                              if eigen else 0.0)
    return out


def measure_traced(workload, seconds: float, name: str) -> tuple[dict, list]:
    """Untraced rounds, then traced rounds; per-layer figures are medians per round."""
    from tracer import Tracer

    start = time.perf_counter()
    untraced = run_rounds(workload, start + UNTRACED_SHARE * seconds, 0)
    tracer = Tracer()
    per_round = []

    def trace_round(index):
        lo, before = len(tracer.spans), Counter(tracer.counters)
        result = workload.round(index)
        counters = Counter(tracer.counters)
        counters.subtract(before)
        per_round.append(layer_metrics(tracer, lo, len(tracer.spans), counters,
                                       workload.labels_per_round))
        return result

    workload.cli.tracer = tracer
    tracer.install()
    try:
        traced = run_rounds(workload, start + seconds, len(untraced), trace_round)
    finally:
        tracer.uninstall()
        workload.cli.tracer = None
    tracer.write(OUT / f"trace-{name}.json")
    metrics = {m: statistics.median(r[m] for r in per_round) for m in per_round[0]}
    def cost(rounds):
        return statistics.median(r.inproc_s / r.ref_s + r.cold_s / r.ref_process_s
                                 for r in rounds)

    metrics["trace.overhead"] = cost(traced) / cost(untraced)
    return metrics, untraced + traced


def setup_in_fresh_processes(name: str, seed: int) -> tuple[list[float], list[str]]:
    times, errors = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--setup-only"], capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.splitlines()[-1])
        times.append(result["setup_s"])
        errors += result["errors"]
    return times, errors


def environment(args, nproc: int, blas: int) -> dict:
    import numpy as np

    import iwqm
    from iwqm import kernels

    return {"iwqm": iwqm.__version__, "numpy": np.__version__,
            "python": platform.python_version(), "numba_enabled": kernels.NUMBA_ENABLED,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "blas_threads": blas}


def run_workload(args, nproc: int, blas: int) -> int:
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        _, setup_s, errors = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "errors": errors}))
        return 0
    setup_times, errors = ([], []) if args.trace else setup_in_fresh_processes(args.workload,
                                                                                args.seed)
    workload, _, warm_errors = setup(args.workload, args.seed)
    errors += warm_errors
    print("environment " + json.dumps(environment(args, nproc, blas)))
    if args.trace:
        metrics, rounds = measure_traced(workload, args.seconds, args.workload)
        units = PER_LAYER
    else:
        metrics, rounds, probe_errors = measure(workload, statistics.median(setup_times),
                                                args.seconds)
        errors += probe_errors
        units = END_TO_END
        for name, value, unit in figures(workload, rounds):
            print(f"figure {name} {value!r} {unit}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    errors += [e for r in rounds for e in r.errors]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {args.workload} rounds {len(rounds)} attempted {attempted} failed {failed}")
    for message in errors[:20]:
        print(f"error {message}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def run_every_workload(args) -> int:
    """Each workload in its own process; prints their lines and a closing table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'workload':<10} {'correct':<8} {'attempted':>9} {'failed':>7}")
    for name, result in results.items():
        print(f"{name:<10} {str(result['correct']):<8} {result['attempted']:>9} "
              f"{result['failed']:>7}")
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload; every workload when left out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "iwqm" / "__init__.py").is_file():
        print(f"perfbench: no iwqm package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    nproc, blas = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    if args.workload is None:
        return run_every_workload(args)
    return run_workload(args, nproc, blas)


if __name__ == "__main__":
    sys.exit(main())
