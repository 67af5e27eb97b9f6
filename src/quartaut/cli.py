"""Command-line front end emitting machine-readable reports.

Every command builds one Report (command, inputs, results, assumptions,
paper_refs) and renders it as text or, with --json, as JSON. Reports are
deterministic; the trailing timestamp and timing fields are omitted with
--no-timestamp so identical inputs give byte-identical output.

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
import sys
import time

_AUT_ASSUMPTION = "Aut-general surface assumed"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SEARCH_EXHAUSTED = 3


def _report(command: str, inputs: dict, results: dict, assumptions: list[str],
            refs: list[str], stamp: bool) -> dict:
    rep = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "assumptions": assumptions,
        "paper_refs": refs,
    }
    if stamp:
        from datetime import datetime, timezone

        rep["timestamp"] = datetime.now(timezone.utc).isoformat()
    return rep


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


def _emit(rep: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep, indent=2))
        return
    print(f"command: {rep['command']}")
    if rep["inputs"]:
        pairs = " ".join(f"{k}={v}" for k, v in rep["inputs"].items())
        print(f"inputs: {pairs}")
    for a in rep["assumptions"]:
        print(f"assumption: {a}")
    _render_lines(rep["results"], "  ")
    if "timestamp" in rep:
        print(f"timestamp: {rep['timestamp']}")


def _model_inputs(args) -> dict:
    inputs = {}
    if args.r is not None:
        inputs["r"] = args.r
    if getattr(args, "b", None) is not None:
        inputs["b"] = args.b
    if getattr(args, "c", None) is not None:
        inputs["c"] = args.c
    return inputs


def _resolve_model(args):
    """(lattice, inputs, error_results) from --r or --b/--c; the lattice is
    None when the inputs name no admissible model, with the reason (and the
    small-discriminant witness when one exists) in error_results."""
    from . import surface as surf

    inputs = _model_inputs(args)
    b, c = getattr(args, "b", None), getattr(args, "c", None)
    if (b is None) != (c is None):
        return None, inputs, {"error": "--b and --c must be given together"}
    if b is None:
        if args.r is None:
            return None, inputs, {"error": "give --r or both --b and --c"}
        if args.r in surf.CURVE_MODELS:
            return surf.curve_model(args.r)[0], inputs, None
        try:
            b, c = surf.canonical_bc(args.r)
        except ValueError as e:
            return None, inputs, {"error": str(e)}
    r = b * b - 8 * c
    if r <= 0:
        return None, inputs, {"error": f"discriminant {r} is not positive"}
    if r in surf.FORBIDDEN_DISCS:
        E, (sq, deg) = surf.forbidden_small_disc(b, c)
        return None, inputs, {
            "error": f"discriminant {r} is incompatible with a very ample "
                     "degree-4 class",
            "witness": {"class": list(E), "pairing": [sq, deg]},
        }
    return surf.QuarticLattice(b, c), inputs, None


def cmd_classify(args) -> tuple[dict, int]:
    from . import exclusion
    from . import surface as surf

    L, inputs, err = _resolve_model(args)
    refs = ["builtin:partition-table", "builtin:generator-table"]
    if L is None:
        rep = _report("classify", inputs, err, [_AUT_ASSUMPTION], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
    kind = surf.classify_aut(L)
    obstruction = surf.class_with_square_exists(L, 0, nonzero=True) \
        or surf.class_with_square_exists(L, -2)
    axes = surf.ample_square2_axes(L)
    results = {
        "r": L.r,
        "model": [L.b, L.c],
        "tag": kind.tag,
        "generators": [_mat(g) for g in kind.generators],
        "witnesses": {
            "obstruction": list(obstruction) if obstruction else None,
            "ample_square2_axes": [list(a) for a in axes],
        },
    }
    if L.r in surf.CURVE_MODELS:
        gd = surf.CURVE_MODELS[L.r][1]
        C = surf.find_curve_class(L, gd)
        results["curve"] = {"gd": list(gd), "class": list(C) if C else None}
    else:
        results["curve"] = None
    code = EXIT_OK
    if L.r not in exclusion.admissible_discriminants().admissible:
        results["caveat"] = (
            f"discriminant {L.r} is not realized by any rank-2 quartic in the "
            "classification (admissible range: 8 < r <= 57 dividing a curve "
            "discriminant); classification computed for reference"
        )
        code = EXIT_BAD_INPUT
    rep = _report("classify", inputs, results, [_AUT_ASSUMPTION], refs, args.stamp)
    return rep, code


def cmd_pell(args) -> tuple[dict, int]:
    from . import pell

    inputs = _model_inputs(args)
    inputs["n"] = args.n
    if args.bound is not None:
        inputs["bound"] = args.bound
    refs = ["builtin:pell-witness-table"]
    b, c = args.b, args.c
    if (b is None) != (c is None):
        rep = _report("pell", inputs, {"error": "--b and --c must be given together"},
                      [], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
    r = b * b - 8 * c if b is not None else args.r
    if r is None or r <= 0:
        rep = _report("pell", inputs, {"error": "a positive discriminant is required"},
                      [], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
    witness = pell.solve(r, args.n)
    results = {
        "equation": f"x^2 - {r} y^2 = {args.n}",
        "solvable": witness is not None,
        "witness": list(witness) if witness else None,
    }
    if args.n != 0:
        results["orbit_representatives"] = [list(s) for s in pell.solution_class_reps(r, args.n)]
    if args.bound is not None:
        if args.bound < 1:
            rep = _report("pell", inputs, {"error": "--bound must be at least 1"},
                          [], refs, args.stamp)
            return rep, EXIT_BAD_INPUT
        results["solutions_up_to_bound"] = [
            list(s) for s in pell.solutions_up_to(r, args.n, args.bound)
        ]
    rep = _report("pell", inputs, results, [], refs, args.stamp)
    return rep, EXIT_OK


def cmd_curve_class(args) -> tuple[dict, int]:
    from . import surface as surf

    L, inputs, err = _resolve_model(args)
    inputs["genus"], inputs["degree"] = args.genus, args.degree
    refs = ["builtin:curve-models"]
    if L is None:
        rep = _report("curve-class", inputs, err, [], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
    g, d = args.genus, args.degree
    if not surf.realizable_gd(g, d):
        results = {"error": f"no smooth curve of genus {g} and degree {d} lies "
                            "on a smooth quartic"}
        rep = _report("curve-class", inputs, results, [], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
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
    rep = _report("curve-class", inputs, results, [], refs, args.stamp)
    return rep, EXIT_OK


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

    inputs = {}
    refs = ["builtin:link-catalog"]
    if (args.genus is None) != (args.degree is None):
        rep = _report("link", inputs, {"error": "--genus and --degree must be "
                                                "given together"}, [], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
    if args.genus is not None:
        inputs["genus"], inputs["degree"] = args.genus, args.degree
        rec = links.lookup((args.genus, args.degree))
        if rec is None:
            results = {"error": f"no catalog link for (g, d) = "
                                f"({args.genus}, {args.degree})"}
            rep = _report("link", inputs, results, [], refs, args.stamp)
            return rep, EXIT_BAD_INPUT
        rep = _report("link", inputs, {"row": _row_payload(rec)}, [], refs, args.stamp)
        return rep, EXIT_OK
    results = {"rows": [_row_payload(rec) for rec in links.catalog()]}
    rep = _report("link", inputs, results, [], refs, args.stamp)
    return rep, EXIT_OK


def cmd_realize(args) -> tuple[dict, int]:
    from . import links
    from . import surface as surf

    L, inputs, err = _resolve_model(args)
    refs = ["builtin:link-catalog", "builtin:generator-table"]
    if L is None:
        rep = _report("realize", inputs, err, [_AUT_ASSUMPTION], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
    kind = surf.classify_aut(L)
    if kind.tag == "Trivial":
        results = {"r": L.r, "model": [L.b, L.c], "tag": kind.tag,
                   "error": "the automorphism group is trivial; nothing to realize"}
        rep = _report("realize", inputs, results, [_AUT_ASSUMPTION], refs, args.stamp)
        return rep, EXIT_BAD_INPUT
    items = []
    code = EXIT_OK
    for g in kind.generators:
        word = links.realize_generator(L, g)
        if word is None:
            items.append({"generator": _mat(g), "word": None,
                          "error": "no word of length <= 2 found"})
            code = EXIT_SEARCH_EXHAUSTED
            continue
        payload = links.word_to_json(word, g)
        payload["word"] = [
            dict(step, abc=[s.record.a, s.record.b, s.record.c])
            for step, s in zip(payload["word"], word.steps)
        ]
        items.append({"generator": _mat(g), **payload})
    results = {"r": L.r, "model": [L.b, L.c], "tag": kind.tag, "realizations": items}
    rep = _report("realize", inputs, results, [_AUT_ASSUMPTION], refs, args.stamp)
    return rep, code


def cmd_exclusion(args) -> tuple[dict, int]:
    from . import exclusion

    t0 = time.monotonic()
    report = exclusion.admissible_discriminants()
    dt = time.monotonic() - t0
    results = report.to_json()
    results["pair_count"] = len(exclusion.CURVE_PAIRS)
    results["admissible_count"] = len(report.admissible)
    if args.stamp:
        results["duration_s"] = round(dt, 3)
    rep = _report("exclusion", {}, results, [], ["builtin:curve-pair-list"], args.stamp)
    return rep, EXIT_OK


def cmd_antiflip(args) -> tuple[dict, int]:
    from . import exclusion

    t0 = time.monotonic()
    report = exclusion.antiflip_report()
    dt = time.monotonic() - t0
    results = {
        "solvable": sorted(list(p) for p in report.solvable),
        "configurations": report.configurations,
        "witnesses": [
            {
                "pa": w.pa, "d": w.d, "b": w.b, "c": w.c,
                "gamma": w.gamma, "delta": w.delta,
                "alpha": w.alpha, "beta": w.beta,
                "frame_class": list(w.frame_class()) if w.frame_class() else None,
            }
            for w in report.witnesses
        ],
    }
    if args.stamp:
        results["duration_s"] = round(dt, 3)
    rep = _report("antiflip-check", {}, results, [], ["builtin:antiflip-system"],
                  args.stamp)
    return rep, EXIT_OK


def cmd_verify_paper(args) -> tuple[dict, int]:
    from . import verify

    t0 = time.monotonic()
    summary = verify.run_all()
    dt = time.monotonic() - t0
    if args.stamp:
        summary["duration_s"] = round(dt, 3)
    rep = _report("verify-paper", {}, summary, [_AUT_ASSUMPTION],
                  ["builtin:golden-suites"], args.stamp)
    code = EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED
    return rep, code


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartaut",
        description="Automorphisms of rank-2 quartic lattices: classification, "
                    "Pell witnesses, link words, and exhaustive checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit the report as JSON")
        sp.add_argument("--no-timestamp", dest="stamp", action="store_false",
                        help="omit timestamp and timing fields")

    def model(sp):
        sp.add_argument("--r", type=int, help="lattice discriminant")
        sp.add_argument("--b", type=int, help="pairing H.W")
        sp.add_argument("--c", type=int, help="half of W^2")

    sp = sub.add_parser("classify", help="automorphism group of a model")
    model(sp); common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("pell", help="solve x^2 - r y^2 = n")
    model(sp)
    sp.add_argument("--n", type=int, required=True, help="right-hand side")
    sp.add_argument("--bound", type=int, help="also enumerate |y| <= bound")
    common(sp)
    sp.set_defaults(fn=cmd_pell)

    sp = sub.add_parser("curve-class", help="class of a (genus, degree) curve")
    model(sp)
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_curve_class)

    sp = sub.add_parser("link", help="show the link catalog")
    sp.add_argument("--genus", type=int)
    sp.add_argument("--degree", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_link)

    sp = sub.add_parser("realize", help="link words realizing the generators")
    model(sp); common(sp)
    sp.set_defaults(fn=cmd_realize)

    sp = sub.add_parser("exclusion", help="discriminant divisibility exclusion")
    common(sp)
    sp.set_defaults(fn=cmd_exclusion)

    sp = sub.add_parser("antiflip-check", help="exhaust the anti-flip system")
    common(sp)
    sp.set_defaults(fn=cmd_antiflip)

    sp = sub.add_parser("verify-paper", help="run all golden suites")
    common(sp)
    sp.set_defaults(fn=cmd_verify_paper)

    return parser


def _failure(args, err: Exception) -> tuple[dict, int]:
    """Report for an exception a layer raised: its message (which names the
    bound that stopped it) and the module.function that raised it."""
    tb = err.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    layer = f"{frame.f_globals['__name__'].rpartition('.')[2]}.{frame.f_code.co_name}"
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "fn", "json", "stamp") and v is not None}
    rep = _report(args.command, inputs, {"error": str(err), "layer": layer}, [], [],
                  args.stamp)
    return rep, EXIT_BAD_INPUT if isinstance(err, ValueError) else EXIT_SEARCH_EXHAUSTED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rep, code = args.fn(args)
    except (ValueError, RuntimeError) as err:
        rep, code = _failure(args, err)
    if args.json:
        print(json.dumps(rep, indent=2))
    elif rep["command"] == "verify-paper":
        _emit_verify_text(rep)
    else:
        _emit(rep, as_json=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
