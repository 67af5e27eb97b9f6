"""The four workloads: seeded inputs, one operation each, and answer checks.

Every workload is a closed loop: one caller in one process issues the next
operation only after the previous one returned. Inputs come in rounds; a
round is drawn from the seeded ``random.Random`` the runner passes in, so
the same seed gives the same inputs, and the program only ever sees them.
Checks run after an operation's clock has stopped and use arithmetic
written here, plus the frozen answers in ``reference``.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from math import isqrt
from types import SimpleNamespace

import reference as ref

MODULES = ("pell", "surface", "isometry", "links", "exclusion", "verify", "cli")


def load_modules() -> SimpleNamespace:
    """Import every layer of the package; the workloads call through these
    module objects so that the traced run's wrappers are seen."""
    return SimpleNamespace(**{
        name: importlib.import_module("quartaut." + name) for name in MODULES
    })


class WrongAnswer(Exception):
    """An operation returned, but its answer is wrong."""


class OpFailed(Exception):
    """A CLI call printed a traceback or used an undocumented exit code."""


@dataclass
class Context:
    root: str
    env: dict
    in_process: bool  # cli only: call cli.main here instead of a subprocess


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# --- 2x2 integer arithmetic, independent of the package -------------------

def mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def det(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def transpose(m):
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def inverse(m):
    d = det(m)
    expect(d in (1, -1), f"matrix {m} is not unimodular")
    return ((m[1][1] * d, -m[0][1] * d), (-m[1][0] * d, m[0][0] * d))


def gram(b: int, c: int):
    return ((4, b), (b, 2 * c))


def as_tuple(m):
    return tuple(tuple(row) for row in m)


def word_composite(word):
    """Product of the conjugated link matrices ((a, (ac-1)/b), (-b, -c))."""
    acc = ((1, 0), (0, 1))
    for step in word.steps:
        a, b, c = step.record.a, step.record.b, step.record.c
        expect((a * c - 1) % b == 0, f"link {(a, b, c)} is not integral")
        link = ((a, (a * c - 1) // b), (-b, -c))
        B = as_tuple(step.change)
        acc = mul(acc, mul(mul(B, link), inverse(B)))
    return acc


def check_generator(b: int, c: int, g, m) -> None:
    """A generator must be an isometry of determinant +-1 that glues over
    the transcendental lattice and sends H to an ample class."""
    Q = gram(b, c)
    expect(det(g) in (1, -1), f"generator {g} has determinant {det(g)}")
    expect(mul(transpose(g), mul(Q, g)) == Q, f"generator {g} is not an isometry of {Q}")
    dq = det(Q)
    adj = ((Q[1][1], -Q[0][1]), (-Q[1][0], Q[0][0]))
    glues = any(
        all(e % dq == 0 for row in mul(((g[0][0] + s, g[0][1]), (g[1][0], g[1][1] + s)), adj)
            for e in row)
        for s in (1, -1)
    )
    expect(glues, f"generator {g} does not glue on (b, c) = {(b, c)}")
    L = m.surface.QuarticLattice(b, c)
    expect(m.isometry.torelli_ok(L, g), f"generator {g} does not send H to an ample class")


def check_word(word, g) -> None:
    expect(len(word.steps) <= 2, f"word of length {len(word.steps)} for {g}")
    got = word_composite(word)
    expect(got == as_tuple(g), f"word composes to {got}, generator is {g}")


# --- workloads -------------------------------------------------------------

class Workload:
    name: str
    why: str
    # Fixed per workload so the metric means the same on every commit: the
    # highest of p90/p99/p99.9 with at least ten samples beyond it at the
    # op count a default run reaches today.
    tail_percentile: float
    # The traced run does this many rounds, so its counts repeat exactly.
    trace_rounds: int

    def round(self, rng) -> list[tuple]:
        raise NotImplementedError

    def warmup(self) -> list[tuple]:
        raise NotImplementedError

    def run(self, op: tuple, m, ctx: Context):
        raise NotImplementedError

    def check(self, op: tuple, result, m) -> None:
        raise NotImplementedError

    def finish(self, m) -> dict:
        """Checks deferred to the end of the run; returns notes to record."""
        return {}


class Paper(Workload):
    """Every public entry point on the paper's range, each with a published
    answer."""

    name = "paper"
    why = ("What a reader of the paper runs: every layer does small work on r <= 57 with "
           "published answers; the conic and Pell changes should leave it flat")
    tail_percentile = 99.9
    trace_rounds = 10

    OPS = tuple(
        [("classify", r) for r in ref.ADMISSIBLE]
        + [("classify_model", r) for r in sorted(ref.CURVE_MODELS)]
        + [("curve_class", r) for r in sorted(ref.CURVE_MODELS)]
        + [("realize", r, i) for r in sorted(ref.GENERATORS) for i in range(len(ref.GENERATORS[r]))]
        + [("admissible",), ("antiflip",), ("run_all",)]
    )

    def round(self, rng):
        ops = list(self.OPS)
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return list(self.OPS)

    def run(self, op, m, ctx):
        kind = op[0]
        if kind == "classify":
            return m.surface.classify_aut(m.surface.QuarticLattice.from_disc(op[1]))
        if kind == "classify_model":
            return m.surface.classify_aut(m.surface.QuarticLattice(*ref.CURVE_MODELS[op[1]][0]))
        if kind == "curve_class":
            (b, c), gd = ref.CURVE_MODELS[op[1]]
            return m.surface.find_curve_class(m.surface.QuarticLattice(b, c), gd)
        if kind == "realize":
            r, i = op[1], op[2]
            L = m.surface.QuarticLattice(*ref.CURVE_MODELS[r][0])
            return m.links.realize_generator(L, ref.GENERATORS[r][i])
        if kind == "admissible":
            return m.exclusion.admissible_discriminants()
        if kind == "antiflip":
            return m.exclusion.antiflip_report()
        return m.verify.run_all()

    def check(self, op, res, m):
        kind = op[0]
        if kind == "classify":
            r = op[1]
            expect(res.tag == ref.PARTITION[r], f"r={r}: tag {res.tag}")
            L = m.surface.QuarticLattice.from_disc(r)
            for g in res.generators:
                check_generator(L.b, L.c, g, m)
        elif kind == "classify_model":
            r = op[1]
            expect(res.tag == ref.PARTITION[r], f"r={r}: tag {res.tag}")
            expect(tuple(map(as_tuple, res.generators)) == ref.GENERATORS[r],
                   f"r={r}: generators {res.generators}")
        elif kind == "curve_class":
            (b, c), (g, d) = ref.CURVE_MODELS[op[1]]
            expect(res is not None, f"r={op[1]}: no class of (g, d) = {(g, d)}")
            x, y = res
            deg = 4 * x + b * y
            sq = 4 * x * x + 2 * b * x * y + 2 * c * y * y
            expect((deg, sq) == (d, 2 * g - 2) and abs(y) == 1,
                   f"r={op[1]}: class {res} has degree {deg}, square {sq}")
        elif kind == "realize":
            g = ref.GENERATORS[op[1]][op[2]]
            expect(res is not None, f"r={op[1]}: no word for {g}")
            check_word(res, g)
        elif kind == "admissible":
            expect(tuple(sorted(res.admissible)) == ref.ADMISSIBLE, "admissible set")
            expect(tuple(sorted(res.excluded_leq57)) == ref.EXCLUDED_BELOW_BOUND, "excluded set")
        elif kind == "antiflip":
            expect(set(res.solvable) == ref.ANTIFLIP_SOLVABLE, f"anti-flip solvable {res.solvable}")
        else:
            expect((res["checks"], res["failures"]) == (ref.VERIFY_CHECKS, ref.VERIFY_FAILURES),
                   f"run_all: {res['checks']} checks, {res['failures']} failures")


SWEEP_RANGE = [r for r in range(58, 1001) if r % 8 in (0, 1, 4)]


class Sweep(Workload):
    """Beyond the paper's range: classify and realize on canonical models."""

    name = "sweep"
    why = ("Lattices with 57 < r <= 1000: the conic scan in isometry dominates, 25 of 353 "
           "raise today, and most link searches run to exhaustion")
    tail_percentile = 90
    trace_rounds = 1

    def round(self, rng):
        # Each round is a seeded permutation of all 353 residues, so every
        # run sees the same population and the failed share is exact.
        ops = [("sweep", r) for r in SWEEP_RANGE]
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return [("sweep", r) for r in SWEEP_RANGE[:16]]

    def run(self, op, m, ctx):
        L = m.surface.QuarticLattice.from_disc(op[1])
        kind = m.surface.classify_aut(L)
        return kind, [m.links.realize_generator(L, g) for g in kind.generators]

    def check(self, op, res, m):
        kind, words = res
        b, c = m.surface.canonical_bc(op[1])
        expect(kind.tag in ref.AUT_TAGS, f"r={op[1]}: tag {kind.tag}")
        for g, word in zip(kind.generators, words):
            check_generator(b, c, g, m)
            if word is not None:
                check_word(word, g)


PELL_STRATA = 32
PELL_MAX_N = 10**6
PELL_BRUTE_BOUND = 2000
SYMPY_CHECKS = 8
SYMPY_MAX_N = 10**4


class Pell(Workload):
    """Generalized Pell equations with right-hand sides up to 10^6."""

    name = "pell"
    why = ("x^2 - r y^2 = n with r <= 2000 and |n| log-uniform up to 10^6: the O(|n|) "
           "residue scan in pell dominates")
    tail_percentile = 90
    trace_rounds = 4

    def __init__(self):
        self.deferred: list[tuple[int, int, bool]] = []  # sympy cross-checks

    def round(self, rng):
        # log10|n| is stratified over [0, 6) so that every round carries the
        # same spread of sizes; a plain log-uniform draw made a run's cost
        # swing with how many large |n| it happened to get.
        ops = []
        for i in range(PELL_STRATA):
            n = min(PELL_MAX_N, int(10 ** (6 * (i + rng.random()) / PELL_STRATA)))
            n = n if rng.random() < 0.5 else -n
            if i % 8 == 3:
                r = rng.randint(2, 44) ** 2
            else:
                r = rng.randint(2, 2000)
                while isqrt(r) ** 2 == r:
                    r = rng.randint(2, 2000)
            ops.append(("pell", r, n))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return [("pell", 17, -8), ("pell", 41, -8), ("pell", 1999, 1000),
                ("pell", 1024, -999), ("pell", 61, 7)]

    def run(self, op, m, ctx):
        _, r, n = op
        return m.pell.solve(r, n), m.pell.solution_class_reps(r, n)

    def check(self, op, res, m):
        _, r, n = op
        w, reps = res
        if w is not None:
            expect(w[0] ** 2 - r * w[1] ** 2 == n, f"witness {w} for x^2 - {r} y^2 = {n}")
        for x, y in reps:
            expect(x * x - r * y * y == n, f"class rep {(x, y)} for x^2 - {r} y^2 = {n}")
        expect((w is None) == (not reps), f"r={r} n={n}: witness {w} but {len(reps)} reps")
        if w is None:
            sols = m.pell.solutions_up_to(r, n, PELL_BRUTE_BOUND)
            expect(not sols, f"r={r} n={n}: no solution claimed, brute force finds {sols[:1]}")
        if abs(n) <= SYMPY_MAX_N and len(self.deferred) < SYMPY_CHECKS:
            self.deferred.append((r, n, w is not None))

    def finish(self, m):
        try:
            from sympy.solvers.diophantine.diophantine import diop_DN
        except ImportError:
            self.deferred.clear()
            return {"sympy_checks": "skipped: sympy is not installed"}
        done = 0
        for r, n, solvable in self.deferred:
            expect(bool(diop_DN(r, n)) == solvable,
                   f"r={r} n={n}: solvable={solvable} disagrees with sympy diop_DN")
            done += 1
        self.deferred.clear()
        return {"sympy_checks": done}


CLI_EXIT_CODES = (0, 1, 2, 3)
OUT_OF_RANGE_R = 265


class Cli(Workload):
    """One ``python -m quartaut.cli`` call per operation."""

    name = "cli"
    why = ("One CLI subprocess per op over all eight subcommands and the documented "
           "refusals: interpreter start-up and import dominate")
    tail_percentile = 90
    trace_rounds = 10

    def round(self, rng):
        r_any = rng.choice(ref.ADMISSIBLE)
        r_curve = rng.choice(sorted(ref.CURVE_MODELS))
        g, d = ref.CURVE_MODELS[r_curve][1]
        r_gen = rng.choice(sorted(ref.GENERATORS))
        n = rng.randint(1, 64) * rng.choice((1, -1))
        if rng.random() < 0.5:
            link = ("link",)
        else:
            lg, ld = rng.choice(ref.LINK_ROWS)
            link = ("link", "--genus", str(lg), "--degree", str(ld))
        ops = [
            ("classify", "--r", str(r_any)),
            ("pell", "--r", str(rng.choice(ref.ADMISSIBLE)), "--n", str(n)),
            ("curve-class", "--r", str(r_curve), "--genus", str(g), "--degree", str(d)),
            link,
            ("realize", "--r", str(r_gen)),
            ("exclusion",),
            ("antiflip-check",),
            ("verify-paper",),
            # documented refusals, and one input that crashes today
            ("classify", "--r", "8"),
            ("classify", "--r", "52"),
            ("classify", "--r", str(OUT_OF_RANGE_R)),
        ]
        rng.shuffle(ops)
        return [("cli",) + op for op in ops]

    def warmup(self):
        return [("cli", "link"), ("cli", "classify", "--r", "41")]

    def run(self, op, m, ctx):
        argv = list(op[1:]) + ["--json", "--no-timestamp"]
        if ctx.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = m.cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "quartaut.cli", *argv],
            cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode not in CLI_EXIT_CODES or "Traceback (most recent call last)" in proc.stderr:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}")
        return proc.returncode, proc.stdout

    def check(self, op, res, m):
        code, out = res
        argv = op[1:]
        rep = json.loads(out)
        results = rep["results"]
        cmd = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        if cmd == "classify":
            r = int(opts["--r"])
            if r == 8:
                expect(code == 2 and "witness" in results, f"classify r=8: exit {code}")
            elif r not in ref.PARTITION:
                expect(code in (2, 3) and ("caveat" in results or "error" in results),
                       f"classify r={r}: exit {code} without a caveat")
            else:
                expect(code == 0 and results["tag"] == ref.PARTITION[r],
                       f"classify r={r}: exit {code}, tag {results.get('tag')}")
                gens = tuple(as_tuple(g) for g in results["generators"])
                expect(gens == ref.GENERATORS.get(r, ()), f"classify r={r}: generators {gens}")
        elif cmd == "pell":
            r, n = int(opts["--r"]), int(opts["--n"])
            w = results["witness"]
            expect(code == 0 and results["solvable"] == (w is not None), f"pell r={r} n={n}")
            for x, y in ([w] if w else []) + results["orbit_representatives"]:
                expect(x * x - r * y * y == n, f"pell r={r} n={n}: {(x, y)}")
        elif cmd == "curve-class":
            expect(code == 0 and results["exists"], f"curve-class {opts}: exit {code}")
            (b, c), (g, d) = ref.CURVE_MODELS[int(opts["--r"])]
            x, y = results["class"]
            expect(4 * x + b * y == d and 4 * x * x + 2 * b * x * y + 2 * c * y * y == 2 * g - 2,
                   f"curve-class {opts}: class {(x, y)}")
        elif cmd == "link":
            rows = results.get("rows") or [results["row"]]
            want = ref.LINK_ROWS if "--genus" not in opts else (
                (int(opts["--genus"]), int(opts["--degree"])),)
            expect(code == 0 and tuple(tuple(row["gd"]) for row in rows) == want, f"link {opts}")
            for row in rows:
                expect(det(as_tuple(row["matrix"])) == -1, f"link row {row['gd']}: determinant")
        elif cmd == "realize":
            r = int(opts["--r"])
            items = results["realizations"]
            gens = tuple(as_tuple(item["generator"]) for item in items)
            expect(code == 0 and gens == ref.GENERATORS[r], f"realize r={r}: exit {code}")
            for item in items:
                expect(as_tuple(item["composite"]) == as_tuple(item["generator"]),
                       f"realize r={r}: composite {item['composite']}")
        elif cmd == "exclusion":
            expect(code == 0 and tuple(results["admissible"]) == ref.ADMISSIBLE, "exclusion")
        elif cmd == "antiflip-check":
            expect(code == 0 and {tuple(p) for p in results["solvable"]} == ref.ANTIFLIP_SOLVABLE,
                   f"antiflip-check: {results['solvable']}")
        else:
            expect(code == 0 and (results["checks"], results["failures"])
                   == (ref.VERIFY_CHECKS, ref.VERIFY_FAILURES),
                   f"verify-paper: exit {code}, {results['checks']} checks")


WORKLOADS = {w.name: w for w in (Paper, Sweep, Pell, Cli)}
