#!/usr/bin/env python3
"""Write a corpus directory of diagram and pattern files.

The emitted files feed ``satkit corpus DIR``: knots as .pd, patterns as
.pat, plus one honest declared-satellite fixture.  Pass ``--with-bad`` to
also plant a mis-framed satellite fixture that the formula suite must
reject.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from satkit import formats
from satkit.catalog import cable_pattern, corpus_knots, corpus_patterns, trefoil
from satkit.patterns import misframed_satellite, satellite


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("directory")
    ap.add_argument("--with-bad", action="store_true")
    ap.add_argument("--max-knots", type=int, default=8)
    args = ap.parse_args()
    out = pathlib.Path(args.directory)
    out.mkdir(parents=True, exist_ok=True)

    for name, d in corpus_knots()[: args.max_knots]:
        safe = name.replace("(", "").replace(")", "").replace(",", "-")
        (out / f"{safe}.pd").write_text(formats.serialize(d) + "\n")
    for name, p in corpus_patterns():
        safe = name.replace("(", "").replace(")", "").replace(",", "-")
        (out / f"{safe}.pat").write_text(formats.serialize(p) + "\n")

    p, k = cable_pattern(2, 3), trefoil()
    fixture = formats.to_obj((p, k, satellite(p, k)))
    (out / "cable23-trefoil.json").write_text(json.dumps(fixture, indent=2) + "\n")
    if args.with_bad:
        bad = formats.to_obj((p, k, misframed_satellite(p, k)))
        (out / "misframed.json").write_text(json.dumps(bad, indent=2) + "\n")
    print(f"wrote corpus to {out}")


if __name__ == "__main__":
    main()
