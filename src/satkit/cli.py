"""Command-line interface.

Every subcommand prints a schema-versioned report on standard output
(plain text by default, JSON with ``--format structured``) and uses exit
code 0 for success, 1 for domain errors, 2 for parse and usage errors
and 3 for internal errors (a broken invariant inside satkit, not a fault
of the input).  Reports are deterministic for fixed inputs and flags; the timing
field is excluded from the report digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

from . import formats
from .diagram import Diagram
from .errors import DomainError, InternalError, ParseError, SatkitError
from .groups import strong_winding_check
from .invariants import alexander_poly, determinant, satellite_formula_report
from .patterns import (
    Pattern,
    compose,
    difference_pattern,
    from_link,
    satellite,
    to_link,
    winding_number,
)
from .stringlinks import (
    InfectionOperator,
    StringLink,
    closure,
    fuse,
    infect,
    parallel,
    reduce_to_pattern,
    stack,
    winding_gcd,
    winding_vector,
)
from .surgery import build_pipeline, zero_surgery
from . import suites as suites_mod

SCHEMA = "satkit-report/1"


def _digest_file(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()[:16]


def _report(args, inputs, outputs, stats=None):
    rep = {
        "schema": SCHEMA,
        "command": args._argv,
        "inputs": {str(p): _digest_file(p) for p in inputs},
        "outputs": outputs,
        "stats": stats or {},
    }
    body = json.dumps(rep, sort_keys=True)
    rep["digest"] = hashlib.sha256(body.encode()).hexdigest()[:16]
    return rep


def _emit(rep, args):
    rep = dict(rep)
    rep["timing_ms"] = int((time.perf_counter() - args._t0) * 1000)
    if args.format == "structured":
        print(json.dumps(rep, sort_keys=True, indent=2))
    else:
        for key, value in rep["outputs"].items():
            print(f"{key}: {value}")
        if rep["stats"]:
            for key, value in sorted(rep["stats"].items()):
                print(f"# {key}: {value}")


def _load(path, want=None):
    obj = formats.load_path(path)
    if want is not None and not isinstance(obj, want):
        names = want.__name__ if isinstance(want, type) else "/".join(t.__name__ for t in want)
        raise DomainError(f"{path} holds {type(obj).__name__}, expected {names}")
    return obj


def _write_out(obj, path):
    if path is None:
        return
    if str(path).endswith(".json"):
        text = json.dumps(formats.to_obj(obj), sort_keys=True, indent=2)
    else:
        text = formats.serialize(obj)
    pathlib.Path(path).write_text(text + "\n")


# -- subcommand handlers ---------------------------------------------------------


def cmd_satellite(args):
    p = _load(args.pattern, Pattern)
    k = _load(args.companion, Diagram)
    out = satellite(p, k)
    _write_out(out, args.output)
    return _report(args, [args.pattern, args.companion], {
        "satellite": formats.serialize_diagram(out),
        "crossings": out.crossing_count,
    })


def cmd_compose(args):
    p = _load(args.pattern, Pattern)
    k = _load(args.companion, Diagram)
    out = compose(p, k)
    _write_out(out, args.output)
    return _report(args, [args.pattern, args.companion], {
        "pattern": formats.serialize_pattern(out),
        "winding": winding_number(out),
    })


def cmd_winding(args):
    p = _load(args.pattern, Pattern)
    return _report(args, [args.pattern], {
        "winding": winding_number(p),
        "strands": p.strand_count,
    })


def cmd_pattern_r(args):
    p = _load(args.pattern, Pattern)
    k = _load(args.companion, Diagram)
    out = difference_pattern(p, k)
    _write_out(out, args.output)
    return _report(args, [args.pattern, args.companion], {
        "pattern": formats.serialize_pattern(out),
        "winding": winding_number(out),
    })


def cmd_to_link(args):
    p = _load(args.pattern, Pattern)
    out = to_link(p)
    _write_out(out, args.output)
    return _report(args, [args.pattern], {"link": formats.serialize_diagram(out)})


def cmd_from_link(args):
    d = _load(args.link, Diagram)
    out = from_link(d, args.circle)
    _write_out(out, args.output)
    return _report(args, [args.link], {
        "pattern": formats.serialize_pattern(out),
        "winding": winding_number(out),
    })


def cmd_strong_winding(args):
    from .groups import cut_loop_word, word_to_text

    p = _load(args.pattern, Pattern)
    res = strong_winding_check(p, limit=args.limit)
    pres = res.wirtinger_presentation
    return _report(args, [args.pattern], {
        "outcome": res.outcome,
        "cut_word": word_to_text(cut_loop_word(p)),
    }, stats={
        "cosets_used": res.enumeration.cosets_used,
        "limit": res.enumeration.limit,
        "enumeration": res.enumeration.outcome,
        "generators": pres.generator_count,
        "relators": len(pres.relators),
        "enumerated_generators": res.presentation.generator_count,
        "enumerated_relators": len(res.presentation.relators),
    })


def cmd_invariants(args):
    d = _load(args.diagram, Diagram)
    if not d.is_knot():
        raise DomainError("invariants are computed for knot diagrams")
    poly = alexander_poly(d)
    return _report(args, [args.diagram], {
        "alexander": repr(poly),
        "determinant": determinant(d),
        "crossings": d.crossing_count,
    })


def cmd_check_satellite_formula(args):
    p = _load(args.pattern, Pattern)
    k = _load(args.companion, Diagram)
    rep = satellite_formula_report(p, k)
    out = _report(args, [args.pattern, args.companion], {
        "equal_up_to_units": rep["equal_up_to_units"],
        "lhs": repr(rep["lhs"]),
        "rhs": repr(rep["rhs"]),
    })
    out["_exit"] = 0 if rep["equal_up_to_units"] else 1
    return out


def cmd_surgery_zero(args):
    k = _load(args.knot, Diagram)
    fl = zero_surgery(k)
    _write_out(fl, args.output)
    from .surgery import h1

    return _report(args, [args.knot], {
        "framed_link": formats.serialize_framed_link(fl),
        "h1": str(h1(fl)),
    })


def cmd_surgery_pipeline(args):
    p = _load(args.pattern, Pattern)
    k = _load(args.companion, Diagram)
    trace = build_pipeline(p, k)
    outputs = {
        "final": formats.serialize_framed_link(trace.final),
        "diagram_certificate": trace.diagram_certificate,
        "alexander_certificate": trace.alexander_certificate,
        "stages": [name for name, _, _ in trace.stages],
        "stage_h1": [str(g) for _, _, g in trace.stages],
        "moves": list(trace.moves),
    }
    if args.emit_trace:
        outputs["trace"] = [
            {"name": name, "framed_link": formats.framed_link_to_obj(fl), "h1": str(g)}
            for name, fl, g in trace.stages
        ]
    rep = _report(args, [args.pattern, args.companion], outputs)
    rep["_exit"] = 0 if (trace.diagram_certificate and trace.alexander_certificate) else 1
    return rep


class _UsageError(Exception):
    """A subcommand given too few inputs or a malformed option (exit 2)."""


def _copy_vector(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        return None


def cmd_slink(args):
    sub = args.slink_command
    takes_copies = sub in ("parallel", "reduce")
    need = 2 if sub in ("stack", "infect") else 1
    kvec = _copy_vector(args.copies) if takes_copies else ()
    if len(args.inputs) < need or kvec is None:
        copies = " --copies K1,K2,..." if takes_copies else ""
        raise _UsageError(f"satkit slink {sub} {' '.join(['INPUT'] * need)}{copies}")
    if sub == "stack":
        s1 = _load(args.inputs[0], (StringLink, InfectionOperator))
        s2 = _load(args.inputs[1], (StringLink, InfectionOperator))
        s1 = s1.link if isinstance(s1, InfectionOperator) else s1
        s2 = s2.link if isinstance(s2, InfectionOperator) else s2
        out = stack(s1, s2)
        _write_out(out, args.output)
        return _report(args, args.inputs, {"string_link": formats.serialize_string_link(out)})
    if sub == "closure":
        s = _load(args.inputs[0], (StringLink, InfectionOperator))
        s = s.link if isinstance(s, InfectionOperator) else s
        out = closure(s)
        _write_out(out, args.output)
        return _report(args, args.inputs, {"link": formats.serialize_diagram(out)})
    if sub == "infect":
        op = _load(args.inputs[0], InfectionOperator)
        k = _load(args.inputs[1], Diagram)
        out = infect(op, k)
        _write_out(out, args.output)
        return _report(args, args.inputs, {"operator": formats.serialize_string_link(out)})
    if sub == "winding":
        op = _load(args.inputs[0], InfectionOperator)
        return _report(args, args.inputs, {
            "winding_vector": list(winding_vector(op)),
            "winding_gcd": winding_gcd(op),
        })
    if sub == "parallel":
        op = _load(args.inputs[0], InfectionOperator)
        out = parallel(op, kvec)
        _write_out(out, args.output)
        return _report(args, args.inputs, {
            "operator": formats.serialize_string_link(out),
            "winding_vector": list(winding_vector(out)),
        })
    if sub == "fuse":
        op = _load(args.inputs[0], InfectionOperator)
        out = fuse(op)
        _write_out(out, args.output)
        return _report(args, args.inputs, {
            "pattern": formats.serialize_pattern(out),
            "winding": winding_number(out),
        })
    if sub == "reduce":
        op = _load(args.inputs[0], InfectionOperator)
        out = reduce_to_pattern(op, kvec)
        _write_out(out, args.output)
        return _report(args, args.inputs, {
            "pattern": formats.serialize_pattern(out),
            "winding": winding_number(out),
        })
    raise DomainError(f"unknown slink subcommand {sub}")


def _corpus_load(directory):
    knots, patterns, fixtures, skipped = [], [], [], []
    root = pathlib.Path(directory)
    if root.exists() and not root.is_dir():
        raise DomainError(f"{directory} is not a directory")
    for path in sorted(root.iterdir()):
        if path.is_dir() or path.suffix not in (".json", ".pd", ".pat", ".fl", ".sl"):
            continue
        try:
            loaded = formats.load_path(path)
        except SatkitError as exc:
            skipped.append((path.name, str(exc)))
            continue
        if isinstance(loaded, tuple):  # a satellite fixture
            fixtures.append((path.name, *loaded))
        elif isinstance(loaded, Diagram) and loaded.is_knot():
            knots.append((path.name, loaded))
        elif isinstance(loaded, Pattern):
            patterns.append((path.name, loaded))
    return knots, patterns, fixtures, skipped


def cmd_corpus(args):
    wanted = set((args.suites or "satellite-formula,meridian,pipeline").split(","))
    knots, patterns, fixtures, skipped = _corpus_load(args.directory)
    results = {}
    if "satellite-formula" in wanted:
        pairs = [(f"{pn}*{kn}", p, k) for pn, p in patterns for kn, k in knots]
        results["satellite-formula"] = (suites_mod.satellite_formula_suite(pairs)
                                        + suites_mod.declared_satellite_suite(fixtures))
    if "meridian" in wanted:
        results["meridian"] = suites_mod.meridian_suite(knots, limit=args.limit)
    if "pipeline" in wanted:
        cases = [
            (f"{pn}*{kn}", p, k)
            for pn, p in patterns
            if winding_number(p) in (1, -1)
            for kn, k in knots
        ]
        results["pipeline"] = suites_mod.pipeline_suite(cases)

    outputs = {}
    ok = True
    for suite, cases in results.items():
        outputs[suite] = suites_mod.summarize(cases)
        ok = ok and suites_mod.suite_ok(cases)
        for c in cases:
            if not c["ok"]:
                outputs[f"{suite}:{c['name']}"] = c["detail"]
    stats = {
        "knots": len(knots),
        "patterns": len(patterns),
        "fixtures": len(fixtures),
        "skipped": len(skipped),
    }
    for name, why in skipped:
        print(f"warning: skipped {name}: {why}", file=sys.stderr)
    rep = _report(args, [], outputs, stats)
    rep["_exit"] = 0 if ok else 1
    return rep


# -- argument parsing --------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(prog="satkit", description=__doc__)
    top.add_argument("--limit", type=int, default=10**6, help="coset enumeration limit")
    top.add_argument("--format", choices=("text", "structured"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, *specs, **kw):
        p = sub.add_parser(name, **kw)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        p.set_defaults(handler=handler)
        return p

    out_spec = (("-o", "--output"), {"default": None, "help": "write the primary output here"})
    add("satellite", cmd_satellite, (("pattern",), {}), (("companion",), {}), out_spec)
    add("compose", cmd_compose, (("pattern",), {}), (("companion",), {}), out_spec)
    add("winding", cmd_winding, (("pattern",), {}))
    add("pattern-r", cmd_pattern_r, (("pattern",), {}), (("companion",), {}), out_spec)
    add("to-link", cmd_to_link, (("pattern",), {}), out_spec)
    add("from-link", cmd_from_link, (("link",), {}),
        (("--circle",), {"type": int, "default": 1}), out_spec)
    add("strong-winding", cmd_strong_winding, (("pattern",), {}))
    add("invariants", cmd_invariants, (("diagram",), {}))
    add("check-satellite-formula", cmd_check_satellite_formula,
        (("pattern",), {}), (("companion",), {}))

    surgery = sub.add_parser("surgery")
    ssub = surgery.add_subparsers(dest="surgery_command", required=True)
    pz = ssub.add_parser("zero")
    pz.add_argument("knot")
    pz.add_argument("-o", "--output", default=None)
    pz.set_defaults(handler=cmd_surgery_zero)
    pp = ssub.add_parser("pipeline")
    pp.add_argument("pattern")
    pp.add_argument("companion")
    pp.add_argument("--emit-trace", action="store_true")
    pp.set_defaults(handler=cmd_surgery_pipeline)

    slink = sub.add_parser("slink")
    slink.add_argument("slink_command",
                       choices=("stack", "closure", "infect", "winding", "parallel", "fuse", "reduce"))
    slink.add_argument("inputs", nargs="+")
    slink.add_argument("--copies", default="", help="comma-separated copy vector")
    slink.add_argument("-o", "--output", default=None)
    slink.set_defaults(handler=cmd_slink)

    corpus = sub.add_parser("corpus")
    corpus.add_argument("directory")
    corpus.add_argument("--suites", default=None,
                        help="comma list: satellite-formula,meridian,pipeline")
    corpus.set_defaults(handler=cmd_corpus)
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = list(argv)
    args._t0 = time.perf_counter()
    try:
        rep = args.handler(args)
    except _UsageError as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, SatkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    exit_code = rep.pop("_exit", 0)
    _emit(rep, args)
    return exit_code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
