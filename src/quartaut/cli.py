"""Command-line front end emitting machine-readable reports.

Each command computes its results and exit code; main builds every report
in one place (command, inputs, results, assumptions, paper_refs) and
renders it as text or, with --json, as JSON. One table, _COMMANDS, gives
each command's help, handler, options, assumptions and paper_refs; the
parser and the reports are both built from it. The inputs echo every
option given. Reports are deterministic; the timestamp and the results'
duration_s are omitted with --no-timestamp so identical inputs give
byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 invalid or out-of-scope
input, 3 search exhausted. A ValueError or RuntimeError from a math layer
becomes a report whose results name the error and the raising layer, with
exit 2 or 3 respectively.

Each command imports only the layers it uses, so a call pays for compiling
those alone.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

_AUT_ASSUMPTION = "Aut-general surface assumed"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SEARCH_EXHAUSTED = 3


def _mat(m) -> list[list[int]]:
    return [list(m[0]), list(m[1])]


def _render_lines(obj: dict, prefix: str) -> None:
    for k, v in obj.items():
        if isinstance(v, dict):
            print(f"{prefix}{k}:")
            _render_lines(v, prefix + "  ")
        elif isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
            print(f"{prefix}{k}:")
            for i, x in enumerate(v):
                print(f"{prefix}  [{i}]")
                _render_lines(x, prefix + "    ")
        else:
            print(f"{prefix}{k}: {json.dumps(v)}")


def _emit(rep: dict) -> None:
    print(f"command: {rep['command']}")
    if rep["inputs"]:
        pairs = " ".join(f"{k}={v}" for k, v in rep["inputs"].items())
        print(f"inputs: {pairs}")
    for a in rep["assumptions"]:
        print(f"assumption: {a}")
    _render_lines(rep["results"], "  ")
    if "timestamp" in rep:
        print(f"timestamp: {rep['timestamp']}")


def _disc(args) -> tuple[int | None, str | None]:
    """(r, None) with r the discriminant that --r or --b/--c name (None when
    neither is given), or (None, why) when they name no single one: --b and
    --c come together, and a --r given with them must equal b^2 - 8c."""
    b, c, r = args.b, args.c, args.r
    if (b is None) != (c is None):
        return None, "--b and --c must be given together"
    if b is None:
        return r, None
    disc = b * b - 8 * c
    if r not in (None, disc):
        return None, f"--r {r} disagrees with --b {b} --c {c}, whose discriminant is {disc}"
    return disc, None


def _resolve_model(args):
    """(lattice, error_results) from --r or --b/--c; the lattice is None when
    the inputs name no admissible model, with the reason (and the
    small-discriminant witness when one exists) in error_results."""
    from . import surface as surf

    r, err = _disc(args)
    if err:
        return None, {"error": err}
    if r is None:
        return None, {"error": "give --r or both --b and --c"}
    b, c = args.b, args.c
    if b is None:
        if r in surf.CURVE_MODELS:
            return surf.curve_model(r)[0], None
        try:
            b, c = surf.canonical_bc(r)
        except ValueError as e:
            return None, {"error": str(e)}
    if r <= 0:
        return None, {"error": f"discriminant {r} is not positive"}
    if r in surf.FORBIDDEN_DISCS:
        E, (sq, deg) = surf.forbidden_small_disc(b, c)
        return None, {
            "error": f"discriminant {r} is incompatible with a very ample "
                     "degree-4 class",
            "witness": {"class": list(E), "pairing": [sq, deg]},
        }
    return surf.QuarticLattice(b, c), None


def cmd_classify(args) -> tuple[dict, int]:
    from . import surface as surf

    L, err = _resolve_model(args)
    if L is None:
        return err, EXIT_BAD_INPUT
    kind = surf.classify_aut(L)
    results = {
        "r": L.r,
        "model": [L.b, L.c],
        "tag": kind.tag,
        "generators": [_mat(g) for g in kind.generators],
        "witnesses": {
            "obstruction": list(kind.obstruction) if kind.obstruction else None,
            "ample_square2_axes": [list(a) for a in kind.axes],
        },
    }
    if L.r in surf.CURVE_MODELS:
        gd = surf.CURVE_MODELS[L.r][1]
        C = surf.find_curve_class(L, gd)
        results["curve"] = {"gd": list(gd), "class": list(C) if C else None}
    else:
        results["curve"] = None
    return _with_caveat(results, EXIT_OK)


def _with_caveat(results: dict, code: int) -> tuple[dict, int]:
    """(results, code), or a caveat and exit 2 when results["r"] is not admissible."""
    from . import exclusion

    r = results["r"]
    if r in exclusion.admissible_discriminants().admissible:
        return results, code
    results["caveat"] = (
        f"discriminant {r} is not realized by any rank-2 quartic in the "
        f"classification (admissible range: 8 < r <= {exclusion.DISC_BOUND} "
        "dividing a curve discriminant); classification computed for reference"
    )
    return results, EXIT_BAD_INPUT


def cmd_pell(args) -> tuple[dict, int]:
    from . import pell

    r, err = _disc(args)
    if err:
        return {"error": err}, EXIT_BAD_INPUT
    if r is None or r <= 0:
        return {"error": "a positive discriminant is required"}, EXIT_BAD_INPUT
    if args.bound is not None and args.bound < 1:
        return {"error": "--bound must be at least 1"}, EXIT_BAD_INPUT
    reps = pell.solution_class_reps(r, args.n) if args.n != 0 else None
    witness = pell.least_witness(reps) if reps is not None else pell.solve(r, 0)
    results = {
        "equation": f"x^2 - {r} y^2 = {args.n}",
        "solvable": witness is not None,
        "witness": list(witness) if witness else None,
    }
    if reps is not None:
        results["orbit_representatives"] = [list(s) for s in reps]
    if args.bound is not None:
        # the trivial (0, 0) of n = 0 is no solution, as in pell.solve
        results["solutions_up_to_bound"] = [
            list(s) for s in pell.solutions_up_to(r, args.n, args.bound) if any(s)
        ]
    return results, EXIT_OK


def cmd_curve_class(args) -> tuple[dict, int]:
    from . import surface as surf

    L, err = _resolve_model(args)
    if L is None:
        return err, EXIT_BAD_INPUT
    g, d = args.genus, args.degree
    if not surf.realizable_gd(g, d):
        return {"error": f"no smooth curve of genus {g} and degree {d} lies "
                         "on a smooth quartic"}, EXIT_BAD_INPUT
    C = surf.find_curve_class(L, (g, d))
    results = {
        "r": L.r,
        "model": [L.b, L.c],
        "gd": [g, d],
        "exists": C is not None,
        "class": list(C) if C else None,
    }
    if C is not None:
        disc = L.dot(surf.H, C) ** 2 - L.dot(surf.H, surf.H) * L.dot(C, C)
        results["span_disc"] = disc
        results["index"] = abs(C[1])
    return results, EXIT_OK


def _row_payload(rec) -> dict:
    from . import links

    return {
        "gd": list(rec.gd),
        "target": rec.target,
        "gd_plus": list(rec.gd_plus),
        "abc": [rec.a, rec.b, rec.c],
        "matrix": _mat(links.link_matrix(rec)),
    }


def cmd_link(args) -> tuple[dict, int]:
    from . import links

    if (args.genus is None) != (args.degree is None):
        return {"error": "--genus and --degree must be given together"}, EXIT_BAD_INPUT
    if args.genus is None:
        return {"rows": [_row_payload(rec) for rec in links.catalog()]}, EXIT_OK
    rec = links.lookup((args.genus, args.degree))
    if rec is None:
        return {"error": f"no catalog link for (g, d) = "
                         f"({args.genus}, {args.degree})"}, EXIT_BAD_INPUT
    return {"row": _row_payload(rec)}, EXIT_OK


def cmd_realize(args) -> tuple[dict, int]:
    from . import links
    from . import surface as surf

    L, err = _resolve_model(args)
    if L is None:
        return err, EXIT_BAD_INPUT
    kind = surf.classify_aut(L)
    if kind.tag == "Trivial":
        return _with_caveat({"r": L.r, "model": [L.b, L.c], "tag": kind.tag,
                             "error": "the automorphism group is trivial; nothing to realize"},
                            EXIT_BAD_INPUT)
    items = []
    code = EXIT_OK
    for g in kind.generators:
        word = links.realize_generator(L, g)
        if word is None:
            items.append({"generator": _mat(g), "word": None,
                          "error": "no word of length <= 2 found"})
            code = EXIT_SEARCH_EXHAUSTED
            continue
        items.append({"generator": _mat(g), **links.word_to_json(word, g)})
    return _with_caveat(
        {"r": L.r, "model": [L.b, L.c], "tag": kind.tag, "realizations": items}, code)


def cmd_exclusion(args) -> tuple[dict, int]:
    from . import exclusion

    report = exclusion.admissible_discriminants()
    results = report.to_json()
    results["pair_count"] = len(exclusion.CURVE_PAIRS)
    results["admissible_count"] = len(report.admissible)
    return results, EXIT_OK


def cmd_antiflip(args) -> tuple[dict, int]:
    from . import exclusion

    report = exclusion.antiflip_report()
    return {
        "solvable": sorted(list(p) for p in report.solvable),
        "configurations": report.configurations,
        "witnesses": [
            {**w._asdict(), "frame_class": list(fc) if (fc := w.frame_class()) else None}
            for w in report.witnesses
        ],
    }, EXIT_OK


def cmd_verify_paper(args) -> tuple[dict, int]:
    from . import verify

    summary = verify.run_all()
    return summary, EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


def _emit_verify_text(rep: dict) -> None:
    results = rep["results"]
    first_fail = None
    for suite in results["suites"]:
        for check in suite["checks"]:
            mark = "pass" if check["ok"] else "FAIL"
            line = f"[{mark}] {suite['name']}: {check['name']}"
            if not check["ok"] and check.get("detail"):
                line += f" ({check['detail']})"
            if not check["ok"] and first_fail is None:
                first_fail = line
            print(line)
    print(f"checks: {results['checks']}  failures: {results['failures']}")
    if first_fail:
        print(f"first counterexample: {first_fail}")


# name: (help, handler, takes --r/--b/--c, its own --flag/required/help
# triples, assumptions, paper_refs); every option is an int
_COMMANDS = {
    "classify": ("automorphism group of a model", cmd_classify, True, (),
                 [_AUT_ASSUMPTION], ["builtin:partition-table", "builtin:generator-table"]),
    "pell": ("solve x^2 - r y^2 = n", cmd_pell, True,
             (("--n", True, "right-hand side"), ("--bound", False, "also enumerate |y| <= bound")),
             [], ["builtin:pell-witness-table"]),
    "curve-class": ("class of a (genus, degree) curve", cmd_curve_class, True,
                    (("--genus", True, None), ("--degree", True, None)),
                    [], ["builtin:curve-models"]),
    "link": ("show the link catalog", cmd_link, False,
             (("--genus", False, None), ("--degree", False, None)), [], ["builtin:link-catalog"]),
    "realize": ("link words realizing the generators", cmd_realize, True, (),
                [_AUT_ASSUMPTION], ["builtin:link-catalog", "builtin:generator-table"]),
    "exclusion": ("discriminant divisibility exclusion", cmd_exclusion, False, (),
                  [], ["builtin:curve-pair-list"]),
    "antiflip-check": ("exhaust the anti-flip system", cmd_antiflip, False, (),
                       [], ["builtin:antiflip-system"]),
    "verify-paper": ("run all golden suites", cmd_verify_paper, False, (),
                     [_AUT_ASSUMPTION], ["builtin:golden-suites"]),
}

_MODEL_OPTIONS = (("--r", False, "lattice discriminant"), ("--b", False, "pairing H.W"),
                  ("--c", False, "half of W^2"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartaut",
        description="Automorphisms of rank-2 quartic lattices: classification, "
                    "Pell witnesses, link words, and exhaustive checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, model, options, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for flag, required, flag_help in (_MODEL_OPTIONS if model else ()) + options:
            sp.add_argument(flag, type=int, required=required, help=flag_help)
        sp.add_argument("--json", action="store_true", help="emit the report as JSON")
        sp.add_argument("--no-timestamp", dest="stamp", action="store_false",
                        help="omit timestamp and timing fields")
    return parser


def _failure(err: Exception) -> tuple[dict, int]:
    """Results for an exception a layer raised: its message (which names the
    bound that stopped it) and the module.function that raised it."""
    tb = err.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    layer = f"{frame.f_globals['__name__'].rpartition('.')[2]}.{frame.f_code.co_name}"
    return ({"error": str(err), "layer": layer},
            EXIT_BAD_INPUT if isinstance(err, ValueError) else EXIT_SEARCH_EXHAUSTED)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, run, _, _, assumptions, refs = _COMMANDS[args.command]
    t0 = time.monotonic()
    try:
        results, code = run(args)
    except (ValueError, RuntimeError) as err:
        (results, code), assumptions, refs = _failure(err), [], []
    else:
        if args.stamp:
            results["duration_s"] = round(time.monotonic() - t0, 3)
    rep = {
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items()
                   if k not in ("command", "json", "stamp") and v is not None},
        "results": results,
        "assumptions": assumptions,
        "paper_refs": refs,
    }
    if args.stamp:
        from datetime import datetime, timezone

        rep["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        if args.json:
            print(json.dumps(rep, indent=2))
        elif args.command == "verify-paper":
            _emit_verify_text(rep)
        else:
            _emit(rep)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: quiet the flush at exit, keep the command's code
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
