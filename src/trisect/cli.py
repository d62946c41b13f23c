"""Command-line front end.

One verb per library capability: diagram validation, homology and handle
counts, Farey classification and the atlas table, parameter arithmetic
(pasting, fiber sums, destabilization, poking, curve complements),
surgery plans, and the genus-one slide reducer.

Exit codes: 0 success, 1 invalid input (parse or validation failures)
or a stdout closed early, 2 operation precondition failures (not
unimodular, cannot destabilize, form undefined, and so on).  Output is
plain text by default and JSON with --json; both are deterministic for a
given input.
"""

import argparse
import io
import os
import re  # loaded by argparse already
import sys
from typing import List, Optional

from . import slides
from .calculus import (
    BoundaryCircles,
    ClosedPage,
    PastingInput,
    curve_complement,
    destabilize,
    fiber_sum,
    log_transform_plan,
    luttinger_plan,
    paste,
    poke,
    serialize_plan,
    surgery_plan_general,
)
from .diagram import (
    TrisectionParams,
    diagram_ok,
    format_params,
    parse_diagram,
    parse_fraction,
    parse_params,
    serialize_diagram,
    validate_diagram,
)
from .errors import DiagramError, MalformedWord, TrisectError
from .farey import FareyTriple, atlas_rows, classify, qx
from .invariants import euler_char, first_homology, handle_counts

ATLAS_COLUMNS = ("triple", "kind", "manifold", "refined", "rank", "signature", "parity", "det")


class _Parser(argparse.ArgumentParser):
    """Usage errors surface as invalid input (exit 1), not argparse's own exit.

    An `intermixed` parser takes options anywhere among its positionals, so
    `plan general --json 1 0 ...` parses as `plan --json general 1 0 ...`
    does; a plain parser ends a nargs="*" list at the first option."""

    def __init__(self, *args, intermixed: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self._intermixed = intermixed

    def error(self, message):
        raise DiagramError(message)

    def parse_known_args(self, args=None, namespace=None):
        if not self._intermixed:
            return super().parse_known_args(args, namespace)
        self._intermixed = False  # parse_known_intermixed_args calls back in here
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixed = True


def _emit(args, lines: List[str], payload) -> None:
    if getattr(args, "json", False):
        import json  # on first use, as in diagram

        print(json.dumps(payload, indent=1))
    else:
        for line in lines:
            print(line)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DiagramError(f"cannot read {path}: {e}")


def _triple_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise DiagramError(f"{text!r}: need three comma-separated integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DiagramError(f"{text!r}: entries must be integers")


def _params_payload(p: TrisectionParams) -> dict:
    return {
        "params": format_params(p) if p.k is not None else None,
        "genus": p.genus,
        "k": list(p.k) if p.k is not None else None,
        "boundary": p.boundary,
    }


def _params_lines(p: TrisectionParams) -> List[str]:
    if p.k is not None:
        return [format_params(p)]
    return [f"genus={p.genus} k=? boundary={p.boundary}"]


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    d = parse_diagram(_read(args.file))
    vs = validate_diagram(d)
    ok = diagram_ok(vs)
    lines = [
        f"{'advisory' if v.advisory else 'violation'} {v.kind}: {v.message}" for v in vs
    ]
    lines.append("OK" if ok else "INVALID")
    _emit(args, lines, {
        "ok": ok,
        "violations": [
            {"kind": v.kind, "message": v.message, "advisory": v.advisory} for v in vs
        ],
    })
    return 0 if ok else 1


def _cmd_invariants(args) -> int:
    if (args.file is None) == (args.params is None):
        raise DiagramError("give a diagram file or --params, not both")
    if args.file is not None:
        rep = first_homology(parse_diagram(_read(args.file)))
        _emit(args, [f"H1 = {rep.h1_str()}"], {
            "h1": rep.h1_str(),
            "free_rank": rep.h1_free_rank,
            "torsion": list(rep.h1_torsion),
        })
        return 0
    p = parse_params(args.params)
    chi = euler_char(p)
    handles = handle_counts(p)
    _emit(args, [f"euler = {chi}", f"handles = {handles}"], {
        "params": format_params(p),
        "euler": chi,
        "handles": list(handles),
    })
    return 0


def _cmd_farey_classify(args) -> int:
    t = FareyTriple(*(parse_fraction(x) for x in (args.x, args.y, args.z)))
    cls = classify(t)
    lines = [f"kind: {cls.kind}"]
    payload = {"triple": str(t), "kind": cls.kind, "manifold": None, "refined": None,
               "form": None}
    if cls.manifold is not None:
        lines.append(f"manifold: {cls.manifold}")
        payload["manifold"] = str(cls.manifold)
    if cls.refined is not None:
        refined = "#".join(cls.refined)
        lines.append(f"refined: {refined}")
        payload["refined"] = refined
    if cls.form is not None:
        lines.append(f"form: {cls.form.kind} {tuple(cls.form.params)}")
        payload["form"] = {"kind": cls.form.kind, "params": list(cls.form.params)}
    if args.qx:
        m = qx(t)  # FormUndefined for kinds without a printed form
        lines.append(f"qx: {m}")
        payload["qx"] = m
    _emit(args, lines, payload)
    return 0


def _cmd_farey_atlas(args) -> int:
    max_den = args.max_den
    if max_den is None:
        env = os.environ.get("TRISECT_MAX_DEN", "10")
        try:
            max_den = int(env)
        except ValueError:
            raise DiagramError(f"TRISECT_MAX_DEN={env!r}: expected an integer") from None
    if max_den < 0:
        raise DiagramError("max denominator must be >= 0")
    if args.json and not args.out:
        _emit(args, [], {"max_den": max_den, "rows": list(atlas_rows(max_den))})
        return 0
    import csv  # on first use, so that the other verbs start without it

    def write_csv(fh) -> int:
        # rows go out in blocks of about 64 kB as they are produced, not in
        # one write (a syscall, on an unbuffered stdout) each; returns the
        # row count.  atlas_rows gives its keys in ATLAS_COLUMNS order, so
        # the values are the columns
        block = io.StringIO()
        writer = csv.writer(block, lineterminator="\n")
        writer.writerow(ATLAS_COLUMNS)
        count = 0
        for row in atlas_rows(max_den):
            writer.writerow(row.values())
            count += 1
            if block.tell() >= 1 << 16:
                fh.write(block.getvalue())
                block.seek(0)
                block.truncate()
        fh.write(block.getvalue())
        return count

    if not args.out:
        write_csv(sys.stdout)  # a closed pipe ends in main, as for any verb
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            count = write_csv(fh)
    except OSError as e:
        raise DiagramError(f"cannot write {args.out}: {e}") from None
    _emit(args, [f"wrote {count} rows to {args.out}"],
          {"max_den": max_den, "rows": count, "out": args.out})
    return 0


def _mode_from_args(args):
    if (args.closed_page is None) == (args.circles is None):
        raise DiagramError("give exactly one of --closed-page or --circles")
    if args.closed_page is not None:
        return ClosedPage(args.closed_page)
    return BoundaryCircles(args.circles)


def _cmd_paste(args) -> int:
    left = parse_params(args.left)
    right = parse_params(args.right)
    common = _triple_arg(args.common) if args.common else None
    result = paste(PastingInput(left, right, _mode_from_args(args), common))
    _emit(args, _params_lines(result), _params_payload(result))
    return 0


def _cmd_fiber_sum(args) -> int:
    common = _triple_arg(args.common)
    left = parse_params(args.left).with_bridge(args.bridge, common)
    right = parse_params(args.right).with_bridge(args.bridge, common)
    result = fiber_sum(left, right)
    _emit(args, _params_lines(result), _params_payload(result))
    return 0


def _cmd_destab(args) -> int:
    result = destabilize(parse_params(args.params), args.sector, args.times)
    _emit(args, _params_lines(result), _params_payload(result))
    return 0


def _cmd_poke(args) -> int:
    d = parse_diagram(_read(args.file))
    out = poke(d, _triple_arg(args.counts))
    text = serialize_diagram(out)
    # the canonical form is already JSON, so both modes print it verbatim
    sys.stdout.write(text)
    return 0


def _cmd_complement(args) -> int:
    if "," in args.arcs:
        arcs = _triple_arg(args.arcs)
    else:
        try:
            a = int(args.arcs)
        except ValueError:
            raise DiagramError(f"--arcs {args.arcs!r}: need an integer or triple")
        arcs = (a, a, a)
    res = curve_complement(parse_params(args.params), arcs)
    lines = _params_lines(res.params) + [
        f"punctures = {res.punctures}",
        f"curves added = {res.curves_added}",
        f"closure genus = {res.closure_genus}",
    ]
    _emit(args, lines, {
        "result": _params_payload(res.params),
        "punctures": res.punctures,
        "curves_added": list(res.curves_added),
        "closure_genus": res.closure_genus,
    })
    return 0


def _cmd_plan(args) -> int:
    entries = args.entries
    if args.kind == "luttinger":
        if args.m is None or args.n is None or entries:
            raise DiagramError("plan luttinger takes --m and --n only")
        plan = luttinger_plan(args.m, args.n)
    elif args.kind == "log":
        if args.m is not None or args.n is not None or len(entries) != 4:
            raise DiagramError("plan log takes four matrix entries a11 a12 a21 a22")
        plan = log_transform_plan(((entries[0], entries[1]), (entries[2], entries[3])))
    else:  # general
        if args.m is not None or args.n is not None or len(entries) != 9:
            raise DiagramError("plan general takes nine matrix entries, row by row")
        plan = surgery_plan_general([entries[0:3], entries[3:6], entries[6:9]])
    text = serialize_plan(plan)
    blocks = [
        {"kind": b.kind, "shear": [list(r) for r in b.shear] if b.shear else None}
        for b in plan.blocks
    ]
    _emit(args, text.splitlines(), {
        "blocks": blocks,
        "composite": plan.composite,
    })
    return 0


def _cmd_slide(args) -> int:
    try:
        state = slides.initial_state(args.w3)
    except MalformedWord as e:
        raise DiagramError(str(e))
    fn = slides.reduce_mu if args.mode == "reduce-mu" else slides.reduce_full
    final, trace = fn(state)
    trace_out = slides.trace_lines(state, trace) if args.trace else []
    lines = trace_out + [slides.format_state(final), f"moves: {len(trace)}"]
    payload = {
        "final": {
            "w1": slides.render_word(final.w1),
            "w2": slides.render_word(final.w2),
            "w3": slides.render_word(final.w3),
            "t3": final.t3,
            "t1": final.t1,
        },
        "moves": [str(mv) for mv in trace],
    }
    if args.trace:
        payload["trace"] = trace_out
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    top = _Parser(prog="trisect", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", parents=[common], help="check a diagram file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("invariants", parents=[common],
                       help="homology of a diagram file, or Euler/handle data of params")
    p.add_argument("file", nargs="?")
    p.add_argument("--params", help='parameter literal "g;k1,k2,k3[;b]"')
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("farey-classify", parents=[common],
                       help="classify a triple of slopes")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.add_argument("--qx", action="store_true", help="also print the intersection form")
    # argparse takes -1 and -1.5 for numbers, not options, but -1/1 for an
    # option; here a dash and a digit start a slope, as no option does
    p._negative_number_matcher = re.compile(r"-\d")
    p.set_defaults(fn=_cmd_farey_classify)

    p = sub.add_parser("farey-atlas", parents=[common],
                       help="CSV table of all classified triples up to a denominator cap")
    p.add_argument("--max-den", type=int, default=None,
                   help="denominator cap (default: env TRISECT_MAX_DEN or 10)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_farey_atlas)

    p = sub.add_parser("paste", parents=[common], help="glue two relative trisections")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--closed-page", type=int, help="page genus for the closed-page gluing")
    p.add_argument("--circles", type=int, help="shared boundary-circle count")
    p.add_argument("--common", help="common curve counts c1,c2,c3")
    p.set_defaults(fn=_cmd_paste)

    p = sub.add_parser("fiber-sum", parents=[common],
                       help="sum two closed trisections along a bridge surface")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--bridge", type=int, required=True, help="bridge genus")
    p.add_argument("--common", required=True, help="common curve counts c1,c2,c3")
    p.set_defaults(fn=_cmd_fiber_sum)

    p = sub.add_parser("destab", parents=[common], help="destabilize a sector")
    p.add_argument("params")
    p.add_argument("--sector", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--times", type=int, default=1)
    p.set_defaults(fn=_cmd_destab)

    p = sub.add_parser("poke", parents=[common],
                       help="puncture a diagram file, printing the new diagram")
    p.add_argument("file")
    p.add_argument("--counts", required=True, help="punctures per sector a,b,c")
    p.set_defaults(fn=_cmd_poke)

    p = sub.add_parser("complement", parents=[common],
                       help="parameters of a sliced-curve complement")
    p.add_argument("params")
    p.add_argument("--arcs", required=True, help="arcs per sector (one integer, or a,b,c)")
    p.set_defaults(fn=_cmd_complement)

    p = sub.add_parser("plan", parents=[common], intermixed=True,
                       help="emit a torus-surgery block plan")
    p.add_argument("kind", choices=("luttinger", "log", "general"))
    p.add_argument("entries", nargs="*", type=int, help="matrix entries (log: 4, general: 9)")
    p.add_argument("--m", type=int, help="luttinger twisting along the first curve")
    p.add_argument("--n", type=int, help="luttinger twisting along the second curve")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("slide", parents=[common], help="run the genus-one slide reducer")
    p.add_argument("mode", choices=("reduce-mu", "reduce-full"))
    p.add_argument("--w3", required=True, help="curve word over mu/lambda (M/L accepted)")
    p.add_argument("--trace", action="store_true", help="print every move")
    p.set_defaults(fn=_cmd_slide)

    return top


def _error_line(e: TrisectError) -> str:
    # messages may quote input that holds line breaks; stderr gets one line
    return "error: " + "\\n".join(str(e).splitlines())


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except DiagramError as e:
        print(_error_line(e), file=sys.stderr)
        return 1
    except TrisectError as e:
        print(_error_line(e), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`trisect ... | head -1`); what is
        # still buffered goes to devnull, or the flush at exit raises again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
