"""Command-line surface: verification suites, operator checks, data dumps.

Subcommands, with the shared options each reads
-----------------------------------------------
verify [--nmax] [--omega] [--format]
                                  run every suite and emit a machine-readable report
op-check EXPR [--nmax] [--omega] [--tol] [--format]
                                  evaluate ``LHS == RHS`` over the operator grammar
dump eigenfunction                sampled wave function as CSV
dump gram [--nmax]                dual-family Gram matrix as CSV plus a JSON defect line
dump coherent [--nmax]            coherent-state observables as JSON
dump evolve [--omega]             label trajectory (or grid expectation) vs classical orbit
dump decay [--omega]              growth factor and mixed pairing over time

Each also takes ``--out FILE`` and its own options (see ``--help``); a
shared option a command does not read is a usage error.
Exit codes: 0 success, 1 failed checks or runtime failure, 2 usage error.
Output is deterministic for a fixed configuration, apart from the
suites' wall times (``"seconds"``) in a JSON report; the environment
variable ``IWQM_SEED`` (default 0), read by ``verify`` and ``op-check``
only, seeds the sampled label grid.

Each handler imports the modules it runs when it runs, and looks their
functions up then: ``dump eigenfunction`` loads ``algebra`` and
``eigenfunctions`` of the package, and nothing of ``verify``.  The help
of ``verify`` and ``op-check`` quotes limits of ``verify`` and
``expressions``, so it is written when it is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from .algebra import BRA, KET, _require_positive

if TYPE_CHECKING:
    from .verify import RunConfig, SuiteReport


#: Largest level ``dump eigenfunction`` evaluates: each recurrence step costs
#: about 4 us even at two samples, so the cap is about 0.4 s.  It is also the
#: largest ``--nmax`` of ``dump coherent``, which builds its pair in O(nmax).
MAX_DUMP_LEVEL = 100_000

#: Largest level * samples ``dump eigenfunction`` evaluates, with level 0
#: counted as one level: each recurrence step costs about 4.5 ns per sample,
#: so the cap is well under a second, and the samples of any level need
#: a few GiB at most.
MAX_DUMP_LEVEL_SAMPLES = 10 ** 8


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_rows(header: str | None, rows, out_path: str | None) -> None:
    """A CSV table: the header line, if any, then one line per row of Python
    floats, each written as its shortest round-trip ``repr``."""
    lines = [",".join(map(repr, row)) for row in rows]
    _emit("\n".join(lines if header is None else [header, *lines]), out_path)


#: The options several commands share, by name: each command takes the ones
#: its handler reads, and ``--out``.
_COMMON = {
    "nmax": dict(type=int, default=64, help="Fock truncation (default 64)"),
    "omega": dict(type=float, default=1.0, help="well curvature (default 1.0)"),
    "tol": dict(type=float, default=1e-10, help="op-check's tolerance (default 1e-10)"),
    "format": dict(dest="fmt", choices=("json", "csv"), default="json"),
    "out": dict(type=str, default=None, help="write the payload to a file"),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose description may be a function, called when the help is
    printed: parsing a command's arguments loads no module to describe another."""

    def format_help(self) -> str:
        if callable(self.description):
            self.description = self.description()
        return super().format_help()


def _region() -> str:
    """The help of the two commands that build a ``RunConfig``."""
    from .verify import REGION

    return f"Outside the region {REGION}, where every check of verify holds, it exits 2."


def _verify_description() -> str:
    return f"Run every suite and report each check.  {_region()}"


def _op_check_description() -> str:
    from .expressions import MAX_DEGREE, MAX_NESTING

    return (f"Check LHS == RHS in normal order on the leading nmax block.  A product may "
            f"reach degree {MAX_DEGREE} in a- and a+; a larger one is a usage error.  "
            f"Parentheses, adj and comm arguments and unary signs may nest {MAX_NESTING} "
            f"deep; deeper is a parse error.  H and the configuration are verify's.  "
            f"{_region()}")


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in (*names, "out"):
        parser.add_argument(f"--{name}", **_COMMON[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iwqm", description="inverted-well quantum mechanics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all verification suites",
                              description=_verify_description)
    _add_common(p_verify, "nmax", "omega", "format")
    p_verify.set_defaults(handler=cmd_verify)

    p_op = sub.add_parser("op-check", help="check an operator identity LHS == RHS",
                          description=_op_check_description)
    p_op.add_argument("expression", type=str)
    _add_common(p_op, "nmax", "omega", "tol", "format")
    p_op.set_defaults(handler=cmd_op_check)

    p_dump = sub.add_parser("dump", help="emit plot-ready data")
    dump_sub = p_dump.add_subparsers(dest="what", required=True)

    p_eig = dump_sub.add_parser("eigenfunction")
    p_eig.add_argument("--set", dest="family", choices=(KET, BRA), default=KET)
    p_eig.add_argument("--n", type=int, default=0)
    p_eig.add_argument("--xmin", type=float, default=-5.0)
    p_eig.add_argument("--xmax", type=float, default=5.0)
    p_eig.add_argument("--samples", type=int, default=1001)
    _add_common(p_eig)
    p_eig.set_defaults(handler=cmd_dump_eigenfunction)

    p_gram = dump_sub.add_parser("gram")
    _add_common(p_gram, "nmax")
    p_gram.set_defaults(handler=cmd_dump_gram)

    p_coh = dump_sub.add_parser("coherent")
    p_coh.add_argument("--alpha-re", type=float, default=1.0)
    p_coh.add_argument("--alpha-im", type=float, default=0.0)
    _add_common(p_coh, "nmax")
    p_coh.set_defaults(handler=cmd_dump_coherent)

    p_evolve = dump_sub.add_parser("evolve")
    p_evolve.add_argument("--v", type=float, default=0.5, help="initial velocity")
    p_evolve.add_argument("--tfinal", type=float, default=1.5)
    p_evolve.add_argument("--dt", type=float, default=None)
    p_evolve.add_argument("--grid", action="store_true",
                          help="use the spectral grid oracle instead of the label equation")
    _add_common(p_evolve, "omega")
    p_evolve.set_defaults(handler=cmd_dump_evolve)

    p_decay = dump_sub.add_parser("decay")
    p_decay.add_argument("--n", type=int, default=0)
    p_decay.add_argument("--set", dest="family", choices=(KET, BRA), default=KET)
    p_decay.add_argument("--tfinal", type=float, default=1.0)
    p_decay.add_argument("--dt", type=float, default=0.01)
    _add_common(p_decay, "omega")
    p_decay.set_defaults(handler=cmd_dump_decay)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The suites' configuration: the report options and ``IWQM_SEED``."""
    from .verify import RunConfig

    text = os.environ.get("IWQM_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"IWQM_SEED must be a non-negative integer, got {text!r}")
    return RunConfig(nmax=args.nmax, omega=args.omega, seed=seed)


def _render_report(args: argparse.Namespace, cfg: RunConfig, suites: list[SuiteReport]) -> int:
    from .verify import conventions, report_csv_lines, report_dict, run_passed

    conv = conventions()  # a convention that reads "none" fails the run in either format
    if args.fmt == "json":
        _emit(json.dumps(report_dict(cfg, suites, conv), indent=2), args.out)
    else:
        _emit("\n".join(report_csv_lines(suites, conv)), args.out)
    return 0 if run_passed(suites, conv) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all

    cfg = config_from_args(args)
    return _render_report(args, cfg, run_all(cfg))


def cmd_op_check(args: argparse.Namespace) -> int:
    from .expressions import equation_residual
    from .verify import SuiteReport

    cfg = config_from_args(args)
    tol = _require_positive("tol", args.tol)
    start = time.perf_counter()
    residual = equation_residual(args.expression, cfg.nmax, omega=cfg.omega)
    report = SuiteReport("op-check", seconds=time.perf_counter() - start)
    report.add("expression", args.expression, residual, tol)
    return _render_report(args, cfg, [report])


def cmd_dump_eigenfunction(args: argparse.Namespace) -> int:
    from .eigenfunctions import eigenfunction, evaluate

    if not math.isfinite(args.xmax - args.xmin):
        raise ValueError(f"need finite xmin, xmax and xmax - xmin, "
                         f"got {args.xmin!r}, {args.xmax!r}")
    if args.samples < 2 or args.xmax <= args.xmin:
        raise ValueError("need samples >= 2 and xmax > xmin")
    if args.n > MAX_DUMP_LEVEL:
        raise ValueError(f"level {args.n} exceeds the cap of {MAX_DUMP_LEVEL}")
    if max(args.n, 1) * args.samples > MAX_DUMP_LEVEL_SAMPLES:
        size = f"n * samples = {args.n * args.samples}" if args.n else f"samples = {args.samples}"
        raise ValueError(f"{size} exceeds the cap of {MAX_DUMP_LEVEL_SAMPLES}")
    f = eigenfunction(args.family, args.n)
    x = np.linspace(args.xmin, args.xmax, args.samples)
    # Python's complex abs is libm hypot, as numpy's scalar abs is; its array abs
    # differs in the last bit at some points
    _emit_rows("x,re_psi,im_psi,abs2_psi",
               ((xi, v.real, v.imag, abs(v) ** 2)
                for xi, v in zip(x.tolist(), evaluate(f, x).tolist())), args.out)
    return 0


def cmd_dump_gram(args: argparse.Namespace) -> int:
    from .quadrature import GRAM_TOLERANCE, default_node_count, gram_matrix

    gram = gram_matrix(args.nmax)
    _emit_rows(None, gram.view(float).tolist(), args.out)  # re, im of each entry in turn
    defect = float(np.max(np.abs(gram - np.eye(args.nmax + 1))))
    passed = defect <= GRAM_TOLERANCE
    print(json.dumps({"nmax": args.nmax, "nodes": default_node_count(args.nmax),
                      "max_defect": defect, "passed": passed}))
    return 0 if passed else 1


def cmd_dump_coherent(args: argparse.Namespace) -> int:
    from .coherent import (STATE_TOLERANCE, TAIL_TOLERANCE, Uncertainty, build_coherent,
                           determine_bra_phase, eigen_residual, moments, mutual_pairing,
                           tail_bound)

    if args.nmax > MAX_DUMP_LEVEL:
        raise ValueError(f"--nmax must be at most {MAX_DUMP_LEVEL}, got {args.nmax}")
    alpha = complex(args.alpha_re, args.alpha_im)
    ket = build_coherent(KET, alpha, args.nmax)
    bra = build_coherent(BRA, alpha, args.nmax)
    m = moments(bra, ket)
    unc = Uncertainty.from_moments(m)
    pairing = mutual_pairing(bra, ket)
    residual = float(np.max([eigen_residual(ket), eigen_residual(bra)]))  # NaN if either is NaN
    tail = tail_bound(alpha, args.nmax)
    finite = bool(np.all(np.isfinite([*m.values(), unc.dx2, unc.dp2, unc.product])))
    payload = {
        "alpha": _complex_pair(alpha),
        "nmax": args.nmax,
        "bra_phase": determine_bra_phase(),
        "pairing": _complex_pair(pairing),
        "eigen_residual": residual,
        **{name: _complex_pair(value) for name, value in m.items()},
        "dx2": _complex_pair(unc.dx2),
        "dp2": _complex_pair(unc.dp2),
        "product": unc.product,
        "tail_bound": tail,
        "passed": (finite and tail <= TAIL_TOLERANCE and abs(pairing - 1.0) <= STATE_TOLERANCE
                   and residual <= STATE_TOLERANCE),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if payload["passed"] else 1


def cmd_dump_evolve(args: argparse.Namespace) -> int:
    from .dynamics import (classical_orbit, gaussian_packet, grid_split_step, integrate_alpha,
                           step_count)

    omega = _require_positive("omega", args.omega)  # before the default dt divides by it
    dt = args.dt if args.dt is not None else 1e-3 / omega
    if args.grid:
        steps = step_count(args.tfinal, dt)
        packet = gaussian_packet(args.v, omega, t_final=steps * dt)
        trajectory = grid_split_step(packet, dt, steps)
    else:
        trajectory = integrate_alpha(args.v, omega, args.tfinal, dt)
    classical = classical_orbit(args.v, omega, 1, trajectory.times)
    rows = zip(trajectory.times.tolist(), trajectory.values.tolist(), classical.tolist())
    _emit_rows("t,re_x,im_x,classical_x,abs_error",
               ((t, z.real, z.imag, c, abs(z - c)) for t, z, c in rows), args.out)
    return 0


def cmd_dump_decay(args: argparse.Namespace) -> int:
    from .dynamics import EXP_GUARD, _growth_exponent, propagate_fock, step_count

    if abs(args.n) > sys.float_info.max:  # before (n + 1/2) is taken as a float
        raise ValueError(f"--n must be at most {sys.float_info.max:.4g} in magnitude, "
                         f"got an integer of {len(str(abs(args.n)))} digits")
    steps = step_count(args.tfinal, args.dt)
    # as propagate_fock's exponent; a NaN or a negative level is refused there
    exponent, _ = _growth_exponent(args.n + 0.5, args.omega, steps * args.dt)
    if exponent > EXP_GUARD:
        raise ValueError(f"(n+1/2) omega tfinal = {exponent:.3g} exceeds the overflow guard "
                         f"{EXP_GUARD:g}")
    # level n alone is occupied, so the dual pairing of the propagated pair is
    # the product of their level-n factors: O(1) work per step
    times = args.dt * np.arange(steps + 1)
    grown = propagate_fock(KET, args.n, args.omega, times)
    decayed = propagate_fock(BRA, args.n, args.omega, times)
    factors = grown if args.family == KET else decayed
    _emit_rows("t,factor,mixed_pairing",
               zip(times.tolist(), factors.tolist(), (decayed * grown).tolist()), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as err:
        # an ExpressionParseError exists only once its module is loaded
        expressions = sys.modules.get(f"{__package__}.expressions")
        parse = expressions is not None and isinstance(err, expressions.ExpressionParseError)
        print(f"{'parse' if parse else 'usage'} error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError, MemoryError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
