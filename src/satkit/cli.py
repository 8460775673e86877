"""Command-line interface.

Every subcommand prints a schema-versioned report on standard output
(plain text by default, JSON with ``--format structured``) and uses exit
code 0 for success, 1 for domain errors and unreadable paths, 2 for parse
and usage errors and 3 for internal errors (a broken invariant inside
satkit, not a fault of the input).  Reports are deterministic for fixed
inputs and flags; the timing field is excluded from the report digest.

Each subcommand is one ``Command``: its input files, its operation and
its report fields.  ``_execute`` is the one path they all take: it loads
the inputs, runs the operation, writes ``-o`` and builds the report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import pathlib
import sys
import time
from collections.abc import Callable

from . import formats
from .diagram import Diagram
from .errors import DomainError, InternalError, ParseError, Record, SatkitError
from .groups import cut_loop_word, strong_winding_check, word_to_text
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
from .surgery import build_pipeline, h1, zero_surgery
from . import suites as suites_mod

SCHEMA = "satkit-report/1"


class Command(Record):
    """A subcommand.  ``run`` takes the parsed arguments and the loaded
    inputs.  With ``output`` or ``fields`` set, it returns one object: the
    report holds that object serialized under ``output`` (which ``-o``
    writes), then ``fields(object)``.  With neither, ``run`` returns the
    report's (outputs, stats, exit code) itself."""

    inputs: tuple  # (positional name, accepted type or types), one per input file
    run: Callable
    output: str | None = None
    fields: Callable | None = None
    options: tuple = ()  # further (flags, keywords) for argparse


def _digest_file(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()[:16]


def _report(args, inputs, outputs, stats):
    rep = {
        "schema": SCHEMA,
        "command": args._argv,
        "inputs": {str(p): _digest_file(p) for p in inputs},
        "outputs": outputs,
        "stats": stats,
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
        for key, value in sorted(rep["stats"].items()):
            print(f"# {key}: {value}")


def _load(path, want):
    obj = formats.load_path(path)
    if not isinstance(obj, want):
        names = want.__name__ if isinstance(want, type) else "/".join(t.__name__ for t in want)
        raise DomainError(f"{path} holds {type(obj).__name__}, expected {names}")
    return obj


def _execute(args, command, paths=None):
    """Load the inputs, run the command, write ``-o``; return the report
    and the exit code."""
    if paths is None:
        paths = [getattr(args, name) for name, _ in command.inputs]
    loaded = [_load(path, want) for path, (_, want) in zip(paths, command.inputs)]
    result = command.run(args, *loaded)
    if command.output is None and command.fields is None:
        outputs, stats, code = result
    else:
        outputs, stats, code = {}, {}, 0
        if command.output:
            outputs[command.output] = text = formats.serialize(result)
            if args.output is not None:
                if str(args.output).endswith(".json"):
                    text = json.dumps(formats.to_obj(result), sort_keys=True, indent=2)
                pathlib.Path(args.output).write_text(text + "\n")
        if command.fields:
            outputs.update(command.fields(result))
    return _report(args, paths, outputs, stats), code


# -- subcommands -------------------------------------------------------------------


def _pattern_fields(p):
    return {"winding": winding_number(p)}


def _link(s):
    return s.link if isinstance(s, InfectionOperator) else s


def cmd_strong_winding(args, p):
    res = strong_winding_check(p, limit=args.limit)
    pres = res.wirtinger_presentation
    stats = {
        "cosets_used": res.enumeration.cosets_used,
        "limit": res.enumeration.limit,
        "enumeration": res.enumeration.outcome,
        "generators": pres.generator_count,
        "relators": len(pres.relators),
        "enumerated_generators": res.presentation.generator_count,
        "enumerated_relators": len(res.presentation.relators),
        "route": res.route,
        "tietze_steps": len(res.tietze_log),
    }
    # the refutation's certificate: the Smith form, or the closed table's order
    if not res.abelianization.is_trivial:
        stats["abelianization"] = str(res.abelianization)
    elif res.enumeration.outcome == "finite":
        stats["order"] = res.enumeration.order
    return {"outcome": res.outcome, "cut_word": word_to_text(cut_loop_word(p))}, stats, 0


def cmd_invariants(args, d):
    if not d.is_knot():
        raise DomainError("invariants are computed for knot diagrams")
    poly = alexander_poly(d)
    return {"alexander": repr(poly), "determinant": determinant(d), "crossings": d.crossing_count}, {}, 0


def cmd_check_satellite_formula(args, p, k):
    rep = satellite_formula_report(p, k)
    ok = rep["equal_up_to_units"]
    return {"equal_up_to_units": ok, "lhs": repr(rep["lhs"]), "rhs": repr(rep["rhs"])}, {}, 0 if ok else 1


def cmd_surgery_pipeline(args, p, k):
    trace = build_pipeline(p, k)
    outputs = {
        "final": formats.serialize(trace.final),
        "diagram_certificate": trace.diagram_certificate,
        "alexander_certificate": trace.alexander_certificate,
        "stages": [name for name, _, _ in trace.stages],
        "stage_h1": [str(g) for _, _, g in trace.stages],
        "moves": list(trace.moves),
    }
    if args.emit_trace:
        outputs["trace"] = [
            {"name": name, "framed_link": formats.to_obj(fl), "h1": str(g)}
            for name, fl, g in trace.stages
        ]
    return outputs, {}, 0 if (trace.diagram_certificate and trace.alexander_certificate) else 1


def _corpus_load(directory):
    knots, patterns, fixtures, skipped = [], [], [], []
    root = pathlib.Path(directory)
    if root.exists() and not root.is_dir():
        raise DomainError(f"{directory} is not a directory")
    for path in sorted(root.iterdir()):
        if path.is_dir() or path.suffix not in formats._SUFFIXES:
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


class _UsageError(Exception):
    """A subcommand given a wrong input count or a malformed option (exit 2)."""


_SUITES = ("satellite-formula", "meridian", "pipeline")


def cmd_corpus(args):
    wanted = set((",".join(_SUITES) if args.suites is None else args.suites).split(","))
    if not wanted <= set(_SUITES):
        raise _UsageError(f"satkit corpus DIR --suites=NAME,... with each NAME one of {', '.join(_SUITES)}")
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
    return outputs, stats, 0 if ok else 1


_PATTERN, _COMPANION = ("pattern", Pattern), ("companion", Diagram)
_LINK, _OPERATOR = ("input", (StringLink, InfectionOperator)), ("input", InfectionOperator)
_OUT = (("-o", "--output"), {"default": None, "help": "write the primary output here"})

SLINK = {
    "stack": Command((_LINK, _LINK), lambda a, s1, s2: stack(_link(s1), _link(s2)), "string_link"),
    "closure": Command((_LINK,), lambda a, s: closure(_link(s)), "link"),
    "infect": Command((_OPERATOR, ("input", Diagram)), lambda a, op, k: infect(op, k), "operator"),
    "winding": Command((_OPERATOR,), lambda a, op: op, None, lambda op: {
        "winding_vector": list(winding_vector(op)), "winding_gcd": winding_gcd(op)}),
    "parallel": Command((_OPERATOR,), lambda a, op: parallel(op, a.copy_vector), "operator",
                        lambda op: {"winding_vector": list(winding_vector(op))}),
    "fuse": Command((_OPERATOR,), lambda a, op: fuse(op), "pattern", _pattern_fields),
    "reduce": Command((_OPERATOR,), lambda a, op: reduce_to_pattern(op, a.copy_vector), "pattern",
                      _pattern_fields),
}


def cmd_slink(args):
    """Check the arity and ``--copies`` of the SLINK command named by the
    first positional (parallel and reduce need ``--copies``; the others
    refuse it, even empty), then execute it."""
    sub = args.slink_command
    command = SLINK[sub]
    takes_copies = sub in ("parallel", "reduce")
    try:
        args.copy_vector = tuple(int(x) for x in (args.copies or "").split(",")) if takes_copies else ()
    except ValueError:
        args.copy_vector = None
    if len(args.inputs) != len(command.inputs) or args.copy_vector is None or (args.copies is not None) != takes_copies:
        copies = " --copies=K1,K2,..." if takes_copies else ""
        raise _UsageError(f"satkit slink {sub} {' '.join(['INPUT'] * len(command.inputs))}{copies}")
    return _execute(args, command, args.inputs)


# "surgery zero" is the subcommand "zero" of "surgery"
COMMANDS = {
    "satellite": Command((_PATTERN, _COMPANION), lambda a, p, k: satellite(p, k), "satellite",
                         lambda d: {"crossings": d.crossing_count}),
    "compose": Command((_PATTERN, _COMPANION), lambda a, p, k: compose(p, k), "pattern", _pattern_fields),
    "winding": Command((_PATTERN,), lambda a, p: p, None,
                       lambda p: {"winding": winding_number(p), "strands": p.strand_count}),
    "pattern-r": Command((_PATTERN, _COMPANION), lambda a, p, k: difference_pattern(p, k), "pattern",
                         _pattern_fields),
    "to-link": Command((_PATTERN,), lambda a, p: to_link(p), "link"),
    "from-link": Command((("link", Diagram),), lambda a, d: from_link(d, a.circle), "pattern",
                         _pattern_fields, ((("--circle",), {"type": int, "default": 1}),)),
    "strong-winding": Command((_PATTERN,), cmd_strong_winding),
    "invariants": Command((("diagram", Diagram),), cmd_invariants),
    "check-satellite-formula": Command((_PATTERN, _COMPANION), cmd_check_satellite_formula),
    "surgery zero": Command((("knot", Diagram),), lambda a, k: zero_surgery(k), "framed_link",
                            lambda fl: {"h1": str(h1(fl))}),
    "surgery pipeline": Command((_PATTERN, _COMPANION), cmd_surgery_pipeline,
                                options=((("--emit-trace",), {"action": "store_true"}),)),
    "slink": Command((), cmd_slink, options=(
        (("slink_command",), {"choices": tuple(SLINK)}),
        (("inputs",), {"nargs": "+"}),
        (("--copies",), {"default": None, "help": "comma-separated copy vector"}),
        _OUT)),
    "corpus": Command((), cmd_corpus, options=(
        (("directory",), {}),
        (("--suites",), {"default": None, "help": "comma list of " + ",".join(_SUITES)}))),
}


# -- argument parsing --------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_parser():
    top = argparse.ArgumentParser(prog="satkit", description=__doc__)
    top.add_argument("--limit", type=int, default=10**6,
                     help="coset budget, used only when Tietze elimination stalls")
    top.add_argument("--format", choices=("text", "structured"), default="text")
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for path, command in COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group not in groups:
            parent = groups[""].add_parser(group)
            groups[group] = parent.add_subparsers(dest=f"{group}_command", required=True)
        p = groups[group].add_parser(name)
        for arg, _ in command.inputs:
            p.add_argument(arg)
        for flags, kw in command.options + ((_OUT,) if command.output else ()):
            p.add_argument(*flags, **kw)
        # slink executes the command it picks from SLINK itself
        handler = cmd_slink if command.run is cmd_slink else functools.partial(_execute, command=command)
        p.set_defaults(handler=handler)
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
        rep, exit_code = args.handler(args)
    except _UsageError as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (SatkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(rep, args)
    return exit_code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
