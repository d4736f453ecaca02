"""Command-line interface.

All subcommands take --q (an odd prime) and print JSON by default;
`repset` and `verify` alone take --budget and --format (lines, tsv).
Polynomials use the grammar `coeff ['*' t ['^' exp]]` joined by '+'/'-';
binary forms are `(a, b, c)` literals and rank-3 forms
`(a11,a22,a33;a12,a13,a23)`.

Exit codes: 0 success (and no violations), 1 a verification check found
violations, 2 usage, parse, or budget errors, 3 an internal error (the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import partial

from .classify import class_number, class_table
from .errors import DEFAULT_BUDGET, BudgetError, CapabilityError
from .ffpoly import Field, poly_from_string, poly_to_string
from .localgenus import (
    INFINITY,
    genus_symbols,
    hilbert_symbol,
)
from .picard import pic_group, pic_order_with_conductor
from .qform import (
    equivalent,
    form_from_string,
    form_to_string,
    properly_equivalent,
    reduce,
    successive_minima,
)
from .repset import rep_numbers, repset_upto
from .verify import CHECKS, SweepConfig, run_check


def _field(args):
    return Field(args.q, delta=args.delta)


def _transformation_rows(tr):
    return [[poly_to_string(e) for e in row] for row in tr.matrix]


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_reduce(args):
    F = _field(args)
    form = form_from_string(F, args.form)
    red, tr = reduce(form)
    _emit(
        {
            "reduced": form_to_string(red),
            "transformation": _transformation_rows(tr),
            "det": tr.det,
        },
    )
    return 0


def _cmd_disc(args):
    F = _field(args)
    form = form_from_string(F, args.form)
    d = form.discriminant()
    _emit(
        {
            "disc": poly_to_string(d),
            "disc_class": poly_to_string(form.disc_class().rep),
            "definite": form.is_definite(),
        },
    )
    return 0


def _cmd_minima(args):
    F = _field(args)
    form = form_from_string(F, args.form)
    _emit({"minima": list(successive_minima(form))})
    return 0


def _cmd_repset(args):
    F = _field(args)
    form = form_from_string(F, args.form)
    if args.counts:
        counts = rep_numbers(form, args.max_degree, budget=args.budget)
        payload = {poly_to_string(p): n for p, n in counts.items()}
        if args.format == "lines":
            for s, n in payload.items():
                print(f"{s}\t{n}")
        else:
            _emit({"k": args.max_degree, "counts": payload})
        return 0
    rs = repset_upto(form, args.max_degree, budget=args.budget)
    polys = [poly_to_string(p) for p in rs.polys()]
    if args.format == "lines":
        for s in polys:
            print(s)
    else:
        _emit({"k": args.max_degree, "values": polys})
    return 0


def _two_forms(args):
    F = _field(args)
    if len(args.form) != 2:
        raise ValueError("exactly two --form literals are required")
    return [form_from_string(F, literal) for literal in args.form]


def _cmd_equal(finder, args):
    w = finder(*_two_forms(args))
    payload = {"equivalent": w is not None}
    if w is not None:
        payload["transformation"] = _transformation_rows(w)
        payload["det"] = w.det
    _emit(payload)
    return 0


def _symbol_payload(sym):
    return {
        "disc": sym.disc_key,
        "finite": [
            {
                "place_key": place_key,
                "blocks": [list(b) for b in invariant.blocks],
            }
            for place_key, invariant in sym.finite
        ],
        "infinity": {
            "disc_degree_parity": sym.infinity[0],
            "disc_lead_char": sym.infinity[1],
            "hasse": sym.infinity[2],
        },
    }


def _cmd_genus(args):
    q1, q2 = _two_forms(args)
    symbols = genus_symbols(q1, q2)
    _emit(
        {
            # a genus symbol holds the exact discriminant: this is `same_genus`
            "same_genus": q1.n == q2.n and symbols[0] == symbols[1],
            "symbols": [_symbol_payload(sym) for sym in symbols],
        },
    )
    return 0


def _cmd_symbol(args):
    F = _field(args)
    f = poly_from_string(F, args.f)
    g = poly_from_string(F, args.g)
    place = INFINITY if args.place == "inf" else poly_from_string(F, args.place)
    _emit({"symbol": hilbert_symbol(f, g, place)})
    return 0


def _cmd_classify(args):
    F = _field(args)
    disc = poly_from_string(F, args.disc)
    table = class_table(F, disc, primitive_only=args.primitive)
    payload = {
        "disc": poly_to_string(disc),
        "forms": [form_to_string(f) for f in table.forms],
        "classes": table.classes,
        "proper_classes": table.proper_classes,
        "genera": table.genera,
        "class_counts_per_genus": [len(g) for g in table.genera],
        "proper_counts_per_genus": table.proper_counts_per_genus(),
        "genus_symbols": [_symbol_payload(sym) for sym in table.genus_symbols()],
    }
    _emit(payload)
    return 0


def _cmd_classnumber(args):
    F = _field(args)
    form = form_from_string(F, args.form)
    print(class_number(form))
    return 0


def _cmd_picard(args):
    F = _field(args)
    d0 = poly_from_string(F, args.d0)
    payload = {"d0": poly_to_string(d0)}
    if args.conductor:
        conductor = poly_from_string(F, args.conductor)
        payload["conductor"] = poly_to_string(conductor)
        payload["order"] = pic_order_with_conductor(d0, conductor)
    else:
        group = pic_group(d0)
        top = max(group.structure.factors, default=1)
        payload["order"] = group.order
        payload["structure"] = list(group.structure.factors)
        payload["sample_generators"] = [
            {"u": poly_to_string(p.u), "v": poly_to_string(p.v)}
            for p, n in zip(group.elements, group.orders)
            if not p.is_identity() and n == top
        ][:2]
    _emit(payload)
    return 0


def _cmd_verify(args):
    cfg = SweepConfig(
        q=args.q,
        max_disc_degree=args.max_degree,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
    )
    report = run_check(args.check, cfg)
    if args.format == "tsv":
        print("theorem\tq\tinstances\tviolations\texpected_exceptions\tpassed")
        print(
            f"{report.check}\t{cfg.q}\t{report.instances_checked}"
            f"\t{len(report.violations)}\t{len(report.expected_exceptions)}"
            f"\t{report.passed}"
        )
        for v in report.violations:
            print(f"violation\t{json.dumps(v.as_dict(), sort_keys=True)}")
    else:
        _emit(report.as_dict())
    return 0 if report.passed else 1


def _form_options(p):
    p.add_argument("--form", required=True, help="form literal, e.g. '(t, 0, t^3)'")


def _forms_options(p):
    p.add_argument("--form", action="append", required=True, help="repeatable form literal")


def _output_options(p, formats):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=formats, default="json")


def _repset_options(p):
    _form_options(p)
    _output_options(p, ("json", "lines"))
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--counts", action="store_true")


def _symbol_options(p):
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--place", required=True, help="a monic irreducible, or 'inf'")


def _classify_options(p):
    p.add_argument("--disc", required=True)
    p.add_argument("--primitive", action="store_true")


def _picard_options(p):
    p.add_argument("--d0", required=True, help="square-free curve polynomial")
    p.add_argument("--conductor", help="monic conductor polynomial")


def _verify_options(p):
    p.add_argument("check", choices=CHECKS)
    _output_options(p, ("json", "tsv"))
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="accepted for interface "
                   "compatibility; execution is sequential and output identical")


# name: (help, adds its arguments, handler) of each subcommand
COMMANDS = {
    "reduce": ("reduce a form", _form_options, _cmd_reduce),
    "disc": ("discriminant and its square class", _form_options, _cmd_disc),
    "minima": ("successive minima", _form_options, _cmd_minima),
    "repset": ("representation set up to a degree", _repset_options, _cmd_repset),
    "equal": ("equivalence witness search", _forms_options, partial(_cmd_equal, equivalent)),
    "proper-equal": (
        "determinant-1 equivalence search",
        _forms_options,
        partial(_cmd_equal, properly_equivalent),
    ),
    "genus": ("genus symbols and same-genus test", _forms_options, _cmd_genus),
    "symbol": ("Hilbert symbol at a place", _symbol_options, _cmd_symbol),
    "classify": ("class table of a discriminant", _classify_options, _cmd_classify),
    "classnumber": ("classes in the genus of a form", _form_options, _cmd_classnumber),
    "picard": ("Picard group data", _picard_options, _cmd_picard),
    "verify": ("run a verification sweep", _verify_options, _cmd_verify),
}


def build_parser(command=None):
    """The parser of every subcommand, or of `command` alone: its usage
    still names every subcommand, as only `command` can be parsed."""
    parser = argparse.ArgumentParser(
        prog="fqforms",
        description="definite quadratic forms over F_q[t]",
    )
    names = "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=names if command else None
    )
    for name in COMMANDS if command is None else [command]:
        summary, add_options, handler = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.add_argument("--q", type=int, required=True, help="odd prime field size")
        if name != "verify":  # sweeps use the default non-square
            p.add_argument("--delta", type=int, help="non-square override")
        add_options(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as "violations found" (exit 1)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
