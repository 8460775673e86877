"""Text and structured-document formats for diagrams, patterns, framed
links and string links.

Each object type has one structured form: the dict its ``*_to_obj``
function returns, which JSON documents carry as is.  Text writes the same
dict as one block per field (``_BLOCKS``: ``X[a,b,c,d]`` per crossing,
``C[(1,2,...),...]`` components, ``CUT[(e,+1),...]`` the cut, ...) in a
fixed order; ``_TYPES`` lists the blocks each type may and must carry.
Text may omit ``C`` when the standard consecutive numbering makes the
partition unambiguous, and omits ``DIR`` when every strand runs upward.

Diagrams, patterns and framed links are relabelled through the canonical
form, so emitted text is deterministic and parse(serialize(d))
reproduces the canonical representative.
"""

from __future__ import annotations

import json
import pathlib
import re
from urllib.parse import unquote

from .diagram import Diagram, canonical
from .errors import DomainError, ParseError
from .patterns import Pattern, _pattern_key
from .stringlinks import InfectionOperator, StringLink
from .surgery import FramedLink

_TOKEN = re.compile(r"([A-Z]+)\[([^\]]*)\]")
_TUPLE = re.compile(r"\(([^()]*)\)")


def _blocks(text):
    out = []
    pos = 0
    for m in _TOKEN.finditer(text):
        between = text[pos:m.start()]
        if between.strip():
            raise ParseError(f"unexpected text {between.strip()!r}", position=pos)
        out.append((m.group(1), m.group(2), m.start()))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected trailing text {text[pos:].strip()!r}", position=pos)
    return out


# -- block bodies: read text, write values, check decoded shapes ---------------------


def _ints(body, position):
    if not body.strip():
        return []
    try:
        return [int(tok) for tok in body.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"expected integers, got {body!r}", position=position) from exc


def _one_int(body, position):
    vals = _ints(body, position)
    if len(vals) != 1:
        raise ParseError(f"expected one integer, got {body!r}", position=position)
    return vals[0]


def _crossing(body, position):
    vals = _ints(body, position)
    if len(vals) != 4:
        raise ParseError("crossings take four edge labels", position=position)
    return tuple(vals)


def _tuples(body, position):
    out = [tuple(_ints(m.group(1), position)) for m in _TUPLE.finditer(body)]
    if _TUPLE.sub("", body).replace(",", "").strip():
        raise ParseError(f"malformed tuple block {body!r}", position=position)
    return out


# characters a name or role cannot carry raw inside N[...] or R[...]; they
# are written as %XX escapes of their UTF-8 bytes
_RESERVED = frozenset("%,[]()")


def _escape(word):
    return "".join("".join(f"%{b:02X}" for b in ch.encode()) if ch in _RESERVED or ch.isspace() else ch
                   for ch in word)


def _write_words(words):
    return ",".join(map(_escape, words))


# a "%" that does not begin a two-hex-digit escape
_BAD_ESCAPE = re.compile(r"%(?![0-9A-Fa-f]{2})")


def _words(body, position):
    # an empty body is one empty word: N[...] and R[...] are written only
    # when there are names or roles, so a lone "" reads back as ("",)
    if not _BAD_ESCAPE.search(body):
        try:
            return tuple(unquote(t.strip(), errors="strict") for t in body.split(","))
        except UnicodeDecodeError:
            pass
    raise ParseError(f"malformed %-escape in {body!r}", position=position)


def _arrows(body, position):
    try:
        return tuple({"+": 1, "-": -1}[t.strip()] for t in body.split(","))
    except KeyError as exc:
        raise ParseError(f"directions are + or -, got {body!r}", position=position) from exc


def _signed(s):
    return f"+{s}" if s > 0 else str(s)


def _write_tuples(rows):
    return ",".join("(" + ",".join(map(str, row)) + ")" for row in rows)


def _int(v):
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _str(v):
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def _each(check):
    return lambda values: tuple(check(v) for v in values)


def _rows(width=None):
    def check(rows):
        out = tuple(_each(_int)(row) for row in rows)
        if any(not row or (width and len(row) != width) for row in out):
            raise ValueError(f"expected rows of {width or 'one or more'} integers")
        return out

    return check


# block tag -> (field, read its text body, write the field's value, check a
# decoded value), in emitted order
_BLOCKS = {
    "SL": ("strand_count", _one_int, str, _int),
    "X": ("crossings", _crossing, None, _rows(4)),  # written one block per crossing
    "P": ("strands", _tuples, _write_tuples, _rows()),
    "C": ("components", _tuples, _write_tuples, _rows()),
    "N": ("names", _words, _write_words, _each(_str)),
    "DIR": ("directions", _arrows, lambda v: ",".join("+" if d > 0 else "-" for d in v), _each(_int)),
    "CUT": ("cut", _tuples, lambda v: ",".join(f"({e},{_signed(s)})" for e, s in v), _rows(2)),
    "F": ("framings", _ints, lambda v: ",".join(map(str, v)), _each(_int)),
    "R": ("roles", _words, _write_words, _each(_str)),
}


def _diagram(f):
    return Diagram(f["crossings"], f["components"], f.get("names") or None)


def _string_link(f):
    return StringLink(f["strand_count"], f["crossings"], f["strands"], f.get("directions", ()))


# document type -> (blocks it may carry, blocks it must carry, decoder of the
# checked fields)
_TYPES = {
    "diagram": ({"X", "C", "N"}, {"X", "C"}, _diagram),
    "pattern": ({"X", "C", "CUT"}, {"X", "C", "CUT"}, lambda f: Pattern(_diagram(f), f["cut"])),
    "framed-link": ({"X", "C", "N", "F", "R"}, {"X", "C", "F"},
                    lambda f: FramedLink(_diagram(f), f["framings"], f.get("roles") or None)),
    "string-link": ({"SL", "X", "P", "DIR"}, {"SL", "X", "P"}, _string_link),
    "infection-operator": ({"SL", "X", "P", "DIR", "CUT"}, {"SL", "X", "P", "CUT"},
                           lambda f: InfectionOperator(_string_link(f), f["cut"])),
}

_FIXTURE_PARTS = (("pattern", Pattern), ("companion", Diagram), ("satellite", Diagram))


# -- structured forms -------------------------------------------------------------


def diagram_to_obj(d: Diagram):
    c = canonical(d)
    obj = {"type": "diagram", "crossings": [list(x) for x in c.crossings],
           "components": [list(cyc) for cyc in c.components]}
    if d.names:
        obj["names"] = list(d.names)
    return obj


def pattern_to_obj(p: Pattern):
    # the cut breaks ties between the base's least relabellings
    cr, comps, cut = _pattern_key(p)
    return {
        "type": "pattern",
        "crossings": [list(x) for x in cr],
        "components": [list(cyc) for cyc in comps],
        "cut": [list(e) for e in cut],
    }


def framed_link_to_obj(fl: FramedLink):
    obj = diagram_to_obj(fl.diagram)
    obj["type"] = "framed-link"
    obj["framings"] = list(fl.framings)
    if fl.roles:
        obj["roles"] = list(fl.roles)
    return obj


def string_link_to_obj(obj_in) -> dict:
    if isinstance(obj_in, InfectionOperator):
        sl, cut = obj_in.link, obj_in.cut
    else:
        sl, cut = obj_in, None
    obj = {
        "type": "string-link",
        "strand_count": sl.strand_count,
        "crossings": [list(x) for x in sl.crossings],
        "strands": [list(p) for p in sl.strands],
        "directions": list(sl.directions),
    }
    if cut is not None:
        obj["type"] = "infection-operator"
        obj["cut"] = [list(e) for e in cut]
    return obj


def satellite_fixture_to_obj(pattern: Pattern, companion: Diagram, declared: Diagram):
    """A declared satellite triple, for corpus cross-checks."""
    return {
        "type": "satellite-fixture",
        "pattern": pattern_to_obj(pattern),
        "companion": diagram_to_obj(companion),
        "satellite": diagram_to_obj(declared),
    }


_ENCODERS = {
    Diagram: diagram_to_obj,
    Pattern: pattern_to_obj,
    FramedLink: framed_link_to_obj,
    StringLink: string_link_to_obj,
    InfectionOperator: string_link_to_obj,
}


def to_obj(x):
    """The structured form of any serializable object.  A (pattern,
    companion, declared satellite) tuple, as ``obj_to_any`` decodes a
    ``satellite-fixture``, encodes back to one."""
    if isinstance(x, tuple) and [type(part) for part in x] == [want for _, want in _FIXTURE_PARTS]:
        return satellite_fixture_to_obj(*x)
    encode = _ENCODERS.get(type(x))
    if encode is None:
        raise DomainError(f"cannot serialize {type(x).__name__}")
    return encode(x)


def obj_to_any(obj):
    """Decode a structured document.  A ``satellite-fixture`` decodes to
    the tuple (pattern, companion, declared satellite)."""
    if not isinstance(obj, dict):
        raise ParseError(f"a structured document is a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "satellite-fixture":
        parts = []
        for key, want in _FIXTURE_PARTS:
            part = obj_to_any(obj.get(key))
            if not isinstance(part, want):
                raise ParseError(f"satellite-fixture {key} must be a {want.__name__}")
            parts.append(part)
        return tuple(parts)
    if kind not in _TYPES:
        raise ParseError(f"unknown document type {kind!r}")
    allowed, required, decode = _TYPES[kind]
    fields = {}
    for tag, (field, _, _, check) in _BLOCKS.items():
        if tag not in allowed:
            continue
        if obj.get(field) is None:
            if tag in required:
                raise ParseError(f"{kind} needs {field} (the {tag} block)")
            continue
        try:
            fields[field] = check(obj[field])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed {kind} {field}: {exc}") from exc
    return decode(fields)


# -- text: the structured form written and read block by block -----------------------


def _write(obj):
    if obj["type"] not in _TYPES:
        raise DomainError(f"a {obj['type']} has no text form")
    parts = []
    for tag, (field, _, write, _) in _BLOCKS.items():
        value = obj.get(field)
        if value is None:
            continue
        if tag == "X":
            parts.extend(f"X[{a},{b},{c},{d}]" for a, b, c, d in value)
        elif tag != "DIR" or -1 in value:  # all-upward strands need no DIR block
            parts.append(f"{tag}[{write(value)}]")
    return " ".join(parts)


def _infer_components(crossings):
    """Partition by strand continuation, ordering each cycle by the
    standard consecutive-label convention."""
    parent = {}

    def find(e):
        while parent.get(e, e) != e:
            parent[e] = parent.get(parent[e], parent[e])
            e = parent[e]
        return e

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b, c, d in crossings:
        for e in (a, b, c, d):
            parent.setdefault(e, e)
        union(a, c)
        union(b, d)
    groups = {}
    for e in parent:
        groups.setdefault(find(e), []).append(e)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda g: g[0])
    return tuple(comps)


def _read(text, *kinds):
    """Decode text as the first of ``kinds`` that allows every block in it."""
    allowed = set().union(*(_TYPES[kind][0] for kind in kinds))
    obj = {"crossings": []}
    tags = set()
    for tag, body, pos in _blocks(text):
        if tag not in allowed:
            raise ParseError(f"unknown block {tag}", position=pos)
        field, read, _, _ = _BLOCKS[tag]
        if tag == "X":
            obj["crossings"].append(read(body, pos))
        else:
            obj[field] = read(body, pos)
        tags.add(tag)
    obj["type"] = next(kind for kind in kinds if tags <= _TYPES[kind][0])
    if "C" in allowed and "components" not in obj and obj["crossings"]:
        obj["components"] = _infer_components(obj["crossings"])
    return obj_to_any(obj)


def serialize(x) -> str:
    """The text form of any serializable object."""
    return _write(to_obj(x))


def parse_diagram(text: str) -> Diagram:
    return _read(text, "diagram")


def serialize_diagram(d: Diagram) -> str:
    return _write(diagram_to_obj(d))


def parse_pattern(text: str) -> Pattern:
    return _read(text, "pattern")


def serialize_pattern(p: Pattern) -> str:
    return _write(pattern_to_obj(p))


def parse_framed_link(text: str) -> FramedLink:
    return _read(text, "framed-link")


def serialize_framed_link(fl: FramedLink) -> str:
    return _write(framed_link_to_obj(fl))


def parse_string_link(text: str):
    """A string link, or an infection operator when a CUT block is present."""
    return _read(text, "string-link", "infection-operator")


def serialize_string_link(obj) -> str:
    return _write(string_link_to_obj(obj))


_PARSERS = {
    ".pd": parse_diagram,
    ".pat": parse_pattern,
    ".fl": parse_framed_link,
    ".sl": parse_string_link,
}
# the suffixes load_path parses: the structured form and each text format
_SUFFIXES = (".json", *_PARSERS)


def load_path(path):
    """Parse a file by extension; .json files carry the structured form."""
    p = pathlib.Path(path)
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not text: {exc.reason}", position=exc.start) from exc
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON in {path}: {exc.msg}", position=exc.pos) from exc
        return obj_to_any(obj)
    parser = _PARSERS.get(p.suffix)
    if parser is None:
        raise ParseError(f"unknown file extension {p.suffix!r} for {path}")
    return parser(text)
