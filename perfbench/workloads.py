"""The three workloads: ``verify``, ``operators`` and ``basis``.

Each workload is a closed loop: one caller in one process sends an
operation, waits for its result, checks it, and only then sends the
next.  A run repeats whole rounds; every round attempts the same
operations on inputs drawn from the workload seed, so the share of
failed operations is the same in every run.  Only the calls into iwqm
(and the fresh ``iwqm`` processes) are timed; input generation and the
checks against ``oracles`` are not.

Every call into iwqm goes through a module attribute looked up at call
time (``coherent.build_coherent``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from iwqm import algebra, coherent, dynamics, eigenfunctions, expressions, quadrature, verify

KET, BRA = algebra.KET, algebra.BRA
HERE = Path(__file__).resolve().parent
#: What the ``iwqm`` console script runs.
CLI_ENTRY = "import sys; from iwqm.cli import main; sys.exit(main())"
#: Rounds of inputs generated in set-up; longer runs reuse them in order.
POOL = 64


@dataclass
class Round:
    """Outcome and timings of one round."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    busy: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    work: Counter = field(default_factory=Counter)
    durations: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    #: Reference timings beside the round: the in-process reference work,
    #: and a fresh ``python3 -c "import numpy"`` process.
    ref_s: float = 0.0
    ref_process_s: float = 0.0

    @property
    def inproc_s(self) -> float:
        return sum(t for kind, t in self.busy.items() if kind != "cold")

    @property
    def cold_s(self) -> float:
        return self.busy.get("cold", 0.0)

    def op(self, kind: str, units: int, call, check, known_fault: bool = False):
        """Time ``call()``, check its result, and count the operation.

        ``check`` returns an error message or None.  A failure of an
        operation marked ``known_fault`` counts as failed; any other
        failure also makes the run incorrect.
        """
        start = time.perf_counter()
        try:
            result = call()
        except Exception as err:  # a program fault is a failed operation
            elapsed = time.perf_counter() - start
            message = f"{kind}: {type(err).__name__}: {err}"
        else:
            elapsed = time.perf_counter() - start
            try:
                message = check(result)
            except (ValueError, KeyError, TypeError, IndexError) as err:  # malformed output
                message = f"{kind}: unreadable result: {type(err).__name__}: {err}"
        self.busy[kind] += elapsed
        self.work[kind] += units
        self.durations[kind].append(elapsed)
        self.attempted += 1
        if message:
            self.failed += 1
            if not known_fault:
                self.errors.append(message)


class Cli:
    """Fresh ``iwqm`` processes, traced when a tracer is given."""

    def __init__(self, env: dict[str, str], scratch: Path, tracer=None):
        self.env = env
        self.scratch = scratch
        self.tracer = tracer

    def __call__(self, argv: list[str], seed: int = 0) -> tuple[int, str]:
        env = dict(self.env, IWQM_SEED=str(seed))
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            spans = self.scratch / "cli-spans.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            self.tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        return proc.returncode, proc.stdout

    def reference(self) -> float:
        """Wall time of a fresh interpreter that imports numpy and exits.

        Start-up of a fresh process (interpreter, shared libraries,
        numpy's import) drifts with the host's load apart from its
        arithmetic speed; fresh ``iwqm`` processes are timed in units of
        this process.  Over 20-second windows that cut the spread of
        their medians from 7.5 % in seconds and 4.3 % in units of the
        in-process reference work to 1.6 %.
        """
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True,
                       capture_output=True, timeout=120)
        return time.perf_counter() - start


def _json_output(kind: str, check):
    def run(outcome):
        code, stdout = outcome
        if code != 0:
            return f"{kind}: exit code {code}"
        return check(json.loads(stdout))
    return run


# ---------------------------------------------------------------------------
# verify: the full verification run, cold and in process
# ---------------------------------------------------------------------------

def check_verify_rows(rows: list[tuple[str, str, float, float, bool]]) -> str | None:
    """All eight suites, at least 42 uniquely named checks, each passed flag
    equal to residual <= tolerance, and every check passed."""
    suites = {r[0] for r in rows}
    names = {(r[0], r[1]) for r in rows}
    if len(rows) < 42 or len(names) != len(rows) or len(suites) != 8:
        return f"verify: {len(rows)} checks, {len(names)} distinct, {len(suites)} suites"
    for suite, name, residual, tolerance, passed in rows:
        if passed != (residual <= tolerance):
            return f"verify: {suite}.{name} passed={passed} but residual {residual} vs {tolerance}"
        if not passed:
            return f"verify: {suite}.{name} failed: residual {residual} > {tolerance}"
    return None


class VerifyWorkload:
    """One fresh ``iwqm verify`` process and two in-process ``run_all`` per round."""

    name = "verify"
    labels_per_round = 3 * 25
    medians = {"verify_cold_s": "cold", "run_all_s": "run_all"}
    rates: dict[str, str] = {}

    def __init__(self, rng: np.random.Generator, cli: Cli):
        self.cli = cli
        self.seeds = rng.integers(0, 2 ** 31 - 1, size=(POOL, 3)).tolist()
        self.names: set | None = None

    def _check_cold(self, report: dict) -> str | None:
        rows = [(s["suite"], c["name"], c["residual"], c["tolerance"], c["passed"])
                for s in report["suites"] for c in s["checks"]]
        return check_verify_rows(rows) or self._same_checks(rows)

    def _check_run_all(self, suites) -> str | None:
        rows = [(s.suite, c.name, c.residual, c.tolerance, c.passed)
                for s in suites for c in s.checks]
        return check_verify_rows(rows) or self._same_checks(rows)

    def _same_checks(self, rows) -> str | None:
        names = {(r[0], r[1]) for r in rows}
        if self.names is None:
            self.names = names
        elif names != self.names:
            return f"verify: check set differs: {sorted(names ^ self.names)}"
        return None

    def warm_up(self) -> Round:
        res = Round()
        self._cold(res, 0)
        self._run_all(res, 0)
        return res

    def _cold(self, res: Round, seed: int) -> None:
        res.op("cold", 1, lambda: self.cli(["verify"], seed),
               _json_output("iwqm verify", self._check_cold))

    def _run_all(self, res: Round, seed: int) -> None:
        res.op("run_all", 1, lambda: verify.run_all(verify.RunConfig(seed=seed)),
               self._check_run_all)

    def round(self, index: int) -> Round:
        res = Round()
        cold_seed, *seeds = self.seeds[index % POOL]
        self._cold(res, cold_seed)
        for seed in seeds:
            self._run_all(res, seed)
        return res


# ---------------------------------------------------------------------------
# operators: coherent states and operator identities
# ---------------------------------------------------------------------------

#: Truncations of the coherent labels; 160 stays below 171, where
#: ``tail_bound`` overflows.
DIMS = (64, 128, 160)
LABELS_PER_DIM = 16
#: Identities of the operator grammar that hold exactly.
IDENTITIES = (
    "comm(a-, a+) == I",
    "adj(n) == -(n + I)",
    "adj(H) == H",
    "H == 2i*Sz",
    "n == a+*a-",
    "adj(Sz) == -Sz",
    "adj(Sx) == -Sx",
    "adj(Sy) == Sy",
    "comm(Sx, Sy) == i*Sz",
    "comm(Sz, S+) == S+",
    "comm(Sz, S-) == -S-",
    "comm(S+, S-) == -2*Sz",
    "adj(adj(a-)) == a-",
)
#: The Sy sign flipped: must come out far above tolerance.
FALSE_IDENTITY = "comm(Sx, Sy) == -i*Sz"
IDENTITY_NMAX = (64, 128)
OBSERVABLES = ("x", "p", "x2", "p2")


def _label(rng: np.random.Generator) -> complex:
    return complex(2.0 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


def _label_op(alpha: complex, dim: int):
    ket = coherent.build_coherent(KET, alpha, dim)
    bra = coherent.build_coherent(BRA, alpha, dim)
    pairing = coherent.mutual_pairing(bra, ket)
    residual = max(coherent.eigen_residual(ket), coherent.eigen_residual(bra))
    moments = {o: coherent.expectation(o, alpha, dim) for o in OBSERVABLES}
    return pairing, residual, moments, coherent.uncertainty_product(alpha, dim)


def _check_label(alpha: complex):
    def check(result):
        pairing, residual, moments, unc = result
        return (oracles.check_close("<alpha|alpha>", pairing, 1.0, oracles.ALGEBRA_TOL)
                or oracles.check_close("eigen residual", residual, 0.0, oracles.ALGEBRA_TOL)
                or oracles.check_coherent(alpha, moments, unc.dx2, unc.dp2, unc.product))
    return check


def _check_identity(text: str, holds: bool):
    def check(residual: float):
        if (residual <= oracles.ALGEBRA_TOL) != holds:
            return f"identity {text!r}: residual {residual:.3e}, expected to hold: {holds}"
        return None
    return check


def _check_dump_coherent(alpha: complex):
    def check(payload: dict):
        def z(key):
            return complex(*payload[key])
        if payload["bra_phase"] != "+i":
            return f"dump coherent: bra phase {payload['bra_phase']!r}"
        return (oracles.check_close("dump pairing", z("pairing"), 1.0, oracles.ALGEBRA_TOL)
                or oracles.check_close("dump eigen residual", payload["eigen_residual"], 0.0,
                                       oracles.ALGEBRA_TOL)
                or oracles.check_coherent(alpha, {o: z(o) for o in OBSERVABLES},
                                          z("dx2"), z("dp2"), payload["product"]))
    return check


class OperatorsWorkload:
    """Seeded coherent labels at three truncations, the identity list at two
    sizes, and one fresh ``iwqm dump coherent`` process per round."""

    name = "operators"
    labels_per_round = len(DIMS) * LABELS_PER_DIM + 1
    medians: dict[str, str] = {}
    rates = {"labels_per_s": "label", "identities_per_s": "identity"}

    def __init__(self, rng: np.random.Generator, cli: Cli):
        self.cli = cli
        self.inputs = [([[_label(rng) for _ in range(LABELS_PER_DIM)] for _ in DIMS], _label(rng))
                       for _ in range(POOL)]

    def _label(self, res: Round, alpha: complex, dim: int) -> None:
        res.op("label", 1, lambda: _label_op(alpha, dim), _check_label(alpha))

    def _identity(self, res: Round, text: str, nmax: int, holds: bool) -> None:
        res.op("identity", 1, lambda: expressions.equation_residual(text, nmax),
               _check_identity(text, holds))

    def _cold(self, res: Round, alpha: complex) -> None:
        # "--flag=value" keeps argparse from reading "-1e-05" as an option
        argv = ["dump", "coherent", f"--alpha-re={alpha.real!r}", f"--alpha-im={alpha.imag!r}",
                f"--nmax={DIMS[-1]}"]
        res.op("cold", 1, lambda: self.cli(argv),
               _json_output("iwqm dump coherent", _check_dump_coherent(alpha)))

    def warm_up(self) -> Round:
        res = Round()
        labels, cold_label = self.inputs[0]
        for dim, alphas in zip(DIMS, labels):
            self._label(res, alphas[0], dim)
        for nmax in IDENTITY_NMAX:
            self._identity(res, IDENTITIES[0], nmax, True)
        self._cold(res, cold_label)
        return res

    def round(self, index: int) -> Round:
        res = Round()
        labels, cold_label = self.inputs[index % POOL]
        self._cold(res, cold_label)
        for dim, alphas in zip(DIMS, labels):
            for alpha in alphas:
                self._label(res, alpha, dim)
        for nmax in IDENTITY_NMAX:
            for text in IDENTITIES:
                self._identity(res, text, nmax, True)
            self._identity(res, FALSE_IDENTITY, nmax, False)
        return res


# ---------------------------------------------------------------------------
# basis: eigenfunctions and quadrature
# ---------------------------------------------------------------------------

LEVELS = range(33)
SAMPLES = 20001
#: Gram sizes, each by the rotated rule and by the moment oracle.
GRAM_NMAX = (8, 12, 16, 20, 24, 32)
#: The monomial eigenfunctions lose precision by cancellation, so the Gram
#: identity fails from nmax 24 on (5e-7 at 24, 5e-3 at 32, against 1e-8).
KNOWN_FAULT_NMAX = {24, 32}
#: (level, L): interval masses on [-L, L], fixed so that adaptive Simpson
#: evaluates the integrand the same number of times in every round.
NORMS = ((2, 3.5), (3, 2.5))
#: Level sampled by the fresh ``iwqm dump eigenfunction`` process; fixed, so
#: that every round raises the same number of levels.
CLI_LEVEL = 16
CLI_SAMPLES = 2001


def _interval(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(-4.0, -1.0)), float(rng.uniform(1.0, 4.0))


def _check_dump_eigenfunction(family: str, n: int):
    def check(outcome):
        code, stdout = outcome
        if code != 0:
            return f"iwqm dump eigenfunction: exit code {code}"
        table = np.loadtxt(stdout.splitlines()[1:], delimiter=",")
        return oracles.check_psi(family, n, table[:, 0], table[:, 1] + 1j * table[:, 2])
    return check


class BasisWorkload:
    """Eigenfunctions of levels 0 to 32 of both families on seeded grids,
    Gram matrices by both paths, two interval masses, and two fresh
    ``iwqm dump eigenfunction`` processes (one per family) per round."""

    name = "basis"
    labels_per_round = 0
    medians: dict[str, str] = {}
    rates = {"samples_per_s": "evaluate", "pairings_per_s": "gram", "norms_per_s": "norm"}

    def __init__(self, rng: np.random.Generator, cli: Cli):
        self.cli = cli
        self.inputs = []
        for _ in range(POOL):
            grids = [[_interval(rng) for _ in (KET, BRA)] for _ in LEVELS]
            colds = [(family, CLI_LEVEL, *_interval(rng)) for family in (KET, BRA)]
            self.inputs.append((grids, colds))

    def _evaluate(self, res: Round, family: str, n: int, lo: float, hi: float) -> None:
        x = np.linspace(lo, hi, SAMPLES)
        res.op("evaluate", SAMPLES,
               lambda: eigenfunctions.evaluate(eigenfunctions.eigenfunction(family, n), x),
               lambda values: oracles.check_psi(family, n, x, values))

    def _gram(self, res: Round, nmax: int, use_moments: bool) -> None:
        res.op("gram", (nmax + 1) ** 2,
               lambda: quadrature.gram_matrix(nmax, use_moments=use_moments),
               oracles.check_gram, known_fault=nmax in KNOWN_FAULT_NMAX)

    def _norm(self, res: Round, n: int, half_width: float) -> None:
        res.op("norm", 1,
               lambda: quadrature.density_interval_integral(
                   eigenfunctions.eigenfunction(KET, n), -half_width, half_width),
               lambda mass: oracles.check_mass(n, -half_width, half_width, mass))

    def _cold(self, res: Round, family: str, n: int, lo: float, hi: float) -> None:
        argv = ["dump", "eigenfunction", f"--set={family}", f"--n={n}", f"--xmin={lo!r}",
                f"--xmax={hi!r}", f"--samples={CLI_SAMPLES}"]
        res.op("cold", 1, lambda: self.cli(argv), _check_dump_eigenfunction(family, n))

    def warm_up(self) -> Round:
        res = Round()
        grids, colds = self.inputs[0]
        self._evaluate(res, KET, LEVELS[-1], *grids[-1][0])
        self._gram(res, 20, False)
        self._gram(res, 20, True)
        self._norm(res, *NORMS[0])
        self._cold(res, *colds[0])
        return res

    def round(self, index: int) -> Round:
        res = Round()
        grids, colds = self.inputs[index % POOL]
        for cold in colds:
            self._cold(res, *cold)
        for n in LEVELS:
            for family, (lo, hi) in zip((KET, BRA), grids[n]):
                self._evaluate(res, family, n, lo, hi)
        for nmax in GRAM_NMAX:
            for use_moments in (False, True):
                self._gram(res, nmax, use_moments)
        for n, half_width in NORMS:
            self._norm(res, n, half_width)
        return res


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that does not touch iwqm.

    On a host shared with other tenants, CPU speed drifts by tens of
    percent over tens of seconds.  Timing this work beside every round and
    dividing by it takes most of that drift out: over 20-second windows
    the medians of iwqm operations spread (interquartile range over
    median) by 13 to 34 % in seconds and by 2 to 6 % in units of this
    reference.  Its four parts, about equal in time, follow the program's
    mix: interpreted arithmetic, numpy calls on tiny arrays, FFT round
    trips on 4096 points and elementwise complex arithmetic on 20001
    points.  Any one part alone tracked some operation kinds worse.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.ones(16)
    for _ in range(3000):
        a = a * 1.0001 + 0.5
    z = np.exp(1j * np.linspace(0.0, 10.0, 4096))
    for _ in range(90):
        z = np.fft.ifft(np.fft.fft(z))
    w = np.exp(1j * np.linspace(0.0, 10.0, 20001))
    for _ in range(40):
        w = np.abs(w) ** 2 * np.exp(0.5j * w)
    return time.perf_counter() - start


WORKLOADS = {w.name: w for w in (VerifyWorkload, OperatorsWorkload, BasisWorkload)}


# ---------------------------------------------------------------------------
# accuracy probes, taken once per run outside the timed rounds
# ---------------------------------------------------------------------------

#: The split-step run of the ``correspondence`` suite: v = 0.5, omega = 1,
#: dt = 1e-3, 1500 steps, compared for t >= 0.1.
GRID_V, GRID_DT, GRID_STEPS, GRID_T_MIN = 0.5, 1e-3, 1500, 0.1
#: Largest Gram size whose identity holds today.
DEFECT_NMAX = 20


def accuracy_probes() -> tuple[dict[str, float], list[str]]:
    """``grid_rel_err`` against (v/omega) sinh(omega t) and ``gram_defect`` at nmax 20."""
    packet = dynamics.gaussian_packet(GRID_V, 1.0)
    trajectory = dynamics.grid_split_step(packet, GRID_DT, GRID_STEPS)
    grid_rel_err = oracles.orbit_rel_err(trajectory.times, trajectory.values, GRID_V, 1.0,
                                         GRID_T_MIN)
    gram = quadrature.gram_matrix(DEFECT_NMAX)
    errors = [m for m in (oracles.check_gram(gram),
                          oracles.check_close("grid <x>(t)", grid_rel_err, 0.0, 1e-4)) if m]
    return {"grid_rel_err": grid_rel_err, "gram_defect": oracles.gram_defect(gram)}, errors
