import argparse
import hashlib
import json
import pathlib
import re
import subprocess
import sys

import pytest

from satkit import formats
from satkit.abelian import AbelianGroup
from satkit.catalog import (
    both_strands_operator,
    cable_pattern,
    clasp_pattern,
    core_pattern,
    figure_eight,
    strand_meridian_operator,
    trefoil,
    winding_two_three_operator,
    zigzag_pattern,
)
from satkit.cli import build_parser, run
from satkit.diagram import unknot
from satkit.patterns import Pattern, compose, difference_pattern, misframed_satellite


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text + "\n")
        paths[name] = str(p)
        return str(p)

    write("trefoil.pd", formats.serialize_diagram(trefoil()))
    write("fig8.pd", formats.serialize_diagram(figure_eight()))
    write("unknot.pd", formats.serialize_diagram(unknot()))
    write("core.pat", formats.serialize_pattern(core_pattern()))
    write("cable23.pat", formats.serialize_pattern(cable_pattern(2, 3)))
    write("zigzag.pat", formats.serialize_pattern(zigzag_pattern()))
    write("clasp.pat", formats.serialize_pattern(clasp_pattern()))
    write("w23.sl", formats.serialize_string_link(winding_two_three_operator()))
    return paths


def test_round_trip_formats():
    from satkit.catalog import torus_link
    from satkit.diagram import Diagram
    from satkit.stringlinks import InfectionOperator, StringLink
    from satkit.surgery import FramedLink, zero_surgery

    h = torus_link(2, 2)
    named = FramedLink(Diagram(h.crossings, h.components, ("first", "second")), (1, -2), ("a", "b"))
    # names and roles holding the text blocks' separators, brackets, % and spaces
    odd_names = ("a,b", " c]%(x) ")
    odd = Diagram(h.crossings, h.components, odd_names)
    odd_framed = FramedLink(odd, (0, 3), ("r[1]", "x\ty,z"))
    # a lone empty name or role is written as N[] or R[] and must come back
    t = trefoil()
    empty_name = Diagram(t.crossings, t.components, ("",))
    empty_role = FramedLink(t, (0,), ("",))
    parsers = {
        Diagram: formats.parse_diagram,
        Pattern: formats.parse_pattern,
        FramedLink: formats.parse_framed_link,
        StringLink: formats.parse_string_link,
        InfectionOperator: formats.parse_string_link,
    }
    op = winding_two_three_operator()
    for obj in (trefoil(), core_pattern(), zero_surgery(trefoil()), named, op, op.link, odd, odd_framed,
                empty_name, empty_role):
        text = formats.serialize(obj)
        from_text = parsers[type(obj)](text)
        from_json = formats.obj_to_any(json.loads(json.dumps(formats.to_obj(obj))))
        for back in (from_text, from_json):
            assert type(back) is type(obj)
            assert formats.serialize(back) == text
            assert formats.to_obj(back) == formats.to_obj(obj)
    for back in (formats.parse_framed_link(formats.serialize(named)),
                 formats.obj_to_any(formats.to_obj(named))):
        assert back.diagram.names == ("first", "second")
        assert back.roles == ("a", "b")
    assert formats.parse_diagram(formats.serialize(odd)).names == odd_names
    back = formats.parse_framed_link(formats.serialize(odd_framed))
    assert (back.diagram.names, back.roles) == (odd_names, ("r[1]", "x\ty,z"))
    assert formats.parse_diagram(formats.serialize(empty_name)).names == ("",)
    assert formats.parse_framed_link(formats.serialize(empty_role)).roles == ("",)
    # with no C block, components follow strand continuation, each in
    # consecutive-label order
    for text, components in (("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]", ((1, 2, 3, 4, 5, 6),)),
                             ("X[4,1,3,2] X[2,3,1,4]", ((1, 2), (3, 4)))):
        assert formats.parse_diagram(text).components == components
    cable = cable_pattern(2, 3)
    text = formats.serialize(cable)
    without = re.sub(r" C\[[^]]*\]", "", text)
    assert "C[" not in without and "CUT[" in without
    assert formats.serialize(formats.parse_pattern(without)) == text


def test_named_components_round_trip():
    from satkit.catalog import torus_link
    from satkit.diagram import Diagram

    h = torus_link(2, 2)
    named = Diagram(h.crossings, h.components, ("first", "second"))
    text = formats.serialize_diagram(named)
    assert "N[first,second]" in text
    back = formats.parse_diagram(text)
    assert back.names == ("first", "second")


def test_load_path_unknown_extension(tmp_path):
    from satkit.errors import ParseError

    p = tmp_path / "thing.xyz"
    p.write_text("X[1,2,2,1] C[(1,2)]")
    with pytest.raises(ParseError):
        formats.load_path(p)


def test_framed_link_text_round_trip():
    from satkit.surgery import FramedLink

    fl = FramedLink(trefoil(), (3,), ("companion-handle",))
    text = formats.serialize_framed_link(fl)
    back = formats.parse_framed_link(text)
    assert back.framings == fl.framings
    assert back.roles == fl.roles
    assert formats.serialize_framed_link(back) == text


from hypothesis import given, settings, strategies as st


@st.composite
def _random_closures(draw):
    strands = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=1, max_value=6))
    word = [
        draw(st.sampled_from([1, -1])) * draw(st.integers(min_value=1, max_value=strands - 1))
        for _ in range(length)
    ]
    from satkit.catalog import braid_closure

    return braid_closure(strands, word)


@settings(max_examples=30, deadline=None)
@given(_random_closures())
def test_parse_serialize_round_trip_random(d):
    text = formats.serialize_diagram(d)
    again = formats.parse_diagram(text)
    from satkit.diagram import diagrams_equal

    assert diagrams_equal(d, again)
    assert formats.serialize_diagram(again) == text


def test_structured_round_trips():
    from satkit.surgery import FramedLink, zero_surgery

    objs = [
        (trefoil(), formats.diagram_to_obj),
        (cable_pattern(2, 3), formats.pattern_to_obj),
        (zero_surgery(trefoil()), formats.framed_link_to_obj),
        (winding_two_three_operator(), formats.string_link_to_obj),
        (winding_two_three_operator().link, formats.string_link_to_obj),
    ]
    for obj, encoder in objs:
        doc = json.loads(json.dumps(encoder(obj)))
        back = formats.obj_to_any(doc)
        assert type(back).__name__ == type(obj).__name__
        assert encoder(back) == encoder(obj)


def test_satellite_fixture_goes_through_to_obj():
    from satkit.errors import DomainError
    from satkit.patterns import satellite

    p, k = cable_pattern(2, 3), trefoil()
    fixture = (p, k, satellite(p, k))
    doc = formats.to_obj(fixture)
    assert doc == formats.satellite_fixture_to_obj(*fixture)
    assert formats.to_obj(formats.obj_to_any(json.loads(json.dumps(doc)))) == doc
    # a fixture is a JSON document only; a tuple of other types is no fixture
    for bad in (fixture, (k, p, k)):
        with pytest.raises(DomainError):
            formats.serialize(bad)


def test_parse_error_position():
    from satkit.errors import ParseError

    with pytest.raises(ParseError) as err:
        formats.parse_diagram("X[1,2,3] C[(1,2,3)]")
    assert "position" in str(err.value)


def test_invariants_command(files, capsys):
    code = run(["invariants", files["trefoil.pd"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "determinant: 3" in out
    assert "t^2" in out


def test_invariants_structured_deterministic(files, capsys):
    code = run(["--format", "structured", "invariants", files["trefoil.pd"]])
    first = json.loads(capsys.readouterr().out)
    code2 = run(["--format", "structured", "invariants", files["trefoil.pd"]])
    second = json.loads(capsys.readouterr().out)
    assert code == code2 == 0
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second
    assert first["schema"] == "satkit-report/1"


def test_satellite_command(files, tmp_path, capsys):
    out_file = str(tmp_path / "sat.pd")
    code = run(["satellite", files["cable23.pat"], files["trefoil.pd"], "-o", out_file])
    assert code == 0
    d = formats.load_path(out_file)
    assert d.is_knot()
    capsys.readouterr()


def test_satellite_command_structured_output(files, tmp_path, capsys):
    out_file = str(tmp_path / "sat.json")
    assert run(["satellite", files["core.pat"], files["trefoil.pd"], "-o", out_file]) == 0
    doc = json.loads((tmp_path / "sat.json").read_text())
    assert doc["type"] == "diagram"
    d = formats.load_path(out_file)
    assert d.is_knot()
    capsys.readouterr()


def _write_pattern(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(formats.serialize_pattern(p) + "\n")
    return str(path)


def _stalled_file(tmp_path):
    # a perfect quotient where Tietze elimination stalls (at 10 generators as
    # read back from the file)
    p = difference_pattern(zigzag_pattern(), figure_eight())
    return _write_pattern(tmp_path, "zigzag-fig8-difference.pat", p)


def test_winding_and_strong_winding(files, tmp_path, capsys):
    assert run(["winding", files["cable23.pat"]]) == 0
    assert "winding: 2" in capsys.readouterr().out
    assert run(["strong-winding", files["core.pat"]]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert run(["--limit", "300", "strong-winding", files["clasp.pat"]]) == 0
    assert "outcome: refuted" in capsys.readouterr().out
    # enumerating this composition's target-8 quotient needs 4 128 cosets;
    # Tietze elimination verifies it, so the budget is never used
    path = _write_pattern(tmp_path, "zigzag-trefoil.pat", compose(zigzag_pattern(), trefoil()))
    assert run(["--limit", "300", "strong-winding", path]) == 0
    out = capsys.readouterr().out
    assert "outcome: verified" in out and "# route: tietze" in out and "# enumeration: not-run" in out
    # a perfect quotient where Tietze stalls, past the budget
    assert run(["--limit", "300", "strong-winding", _stalled_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "outcome: inconclusive" in out and "# enumeration: exceeded" in out
    assert "# route: enumeration" in out


def test_strong_winding_reports_its_certificate(files, tmp_path, capsys, monkeypatch):
    from satkit import groups

    assert run(["--format", "structured", "strong-winding", files["cable23.pat"]]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["outputs"]["outcome"] == "refuted"
    stats = rep["stats"]
    assert (stats["abelianization"], stats["enumeration"], stats["cosets_used"]) == ("Z/2", "not-run", 0)
    assert stats["limit"] == 10**6 and "order" not in stats
    assert (stats["route"], stats["tietze_steps"]) == ("smith", 2)
    # a verified quotient's certificate is its Tietze log
    assert run(["--format", "structured", "strong-winding", files["zigzag.pat"]]) == 0
    rep = json.loads(capsys.readouterr().out)
    stats = rep["stats"]
    assert rep["outputs"]["outcome"] == "verified"
    assert (stats["route"], stats["tietze_steps"], stats["enumeration"]) == ("tietze", 2, "not-run")
    # a perfect quotient whose table closes at order 60 is refuted by the order
    monkeypatch.setattr(groups, "todd_coxeter", lambda g, limit: groups.EnumerationResult("finite", 60, 60, limit))
    assert run(["--format", "structured", "strong-winding", _stalled_file(tmp_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    stats = rep["stats"]
    assert rep["outputs"]["outcome"] == "refuted"
    assert (stats["order"], stats["enumeration"], stats["route"]) == (60, "finite", "enumeration")
    assert "abelianization" not in stats


def test_strong_winding_reports_enumerated_presentation(files, capsys):
    from satkit.groups import cut_loop_word, quotient, simplify_presentation, wirtinger

    p = clasp_pattern()
    q = simplify_presentation(quotient(wirtinger(p.base), [cut_loop_word(p)]))
    assert run(["--format", "structured", "--limit", "300", "strong-winding", files["clasp.pat"]]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["enumerated_generators"] == q.generator_count
    assert stats["enumerated_relators"] == len(q.relators)
    # the quotient enumerated carries the cut word as one more relator
    assert (stats["enumerated_generators"], stats["enumerated_relators"]) != (stats["generators"], stats["relators"])


def test_strong_winding_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    from satkit import groups

    path = tmp_path / "cable21.pat"
    path.write_text(formats.serialize_pattern(cable_pattern(2, 1)) + "\n")
    # cable(2,1) has winding number 2; a trivial Smith form of its quotient is a bug
    monkeypatch.setattr(groups, "abelianization", lambda g: AbelianGroup(()))
    assert run(["strong-winding", str(path)]) == 3
    assert capsys.readouterr().err.startswith("internal error: ")


@pytest.mark.parametrize("wrong", ["zero", "double"])
def test_wrong_alexander_kernel_exits_3(files, capsys, monkeypatch, wrong):
    from satkit import invariants

    kernel = invariants.laurent_det_up_to_units
    monkeypatch.setattr(invariants, "laurent_det_up_to_units",
                        lambda rows: invariants.Laurent.zero() if wrong == "zero" else kernel(rows) * 2)
    invariants.alexander_poly.cache_clear()
    assert run(["invariants", files["fig8.pd"]]) == 3
    assert capsys.readouterr().err.startswith("internal error: the Alexander minor of a planar knot diagram is ")


def test_check_formula_command(files, capsys):
    assert run(["check-satellite-formula", files["cable23.pat"], files["fig8.pd"]]) == 0
    capsys.readouterr()


def test_pattern_r_and_links(files, tmp_path, capsys):
    out_file = str(tmp_path / "r.pat")
    assert run(["pattern-r", files["core.pat"], files["trefoil.pd"], "-o", out_file]) == 0
    capsys.readouterr()
    link_file = str(tmp_path / "core.link.pd")
    assert run(["to-link", files["core.pat"], "-o", link_file]) == 0
    capsys.readouterr()
    assert run(["from-link", link_file, "--circle", "1"]) == 0
    out = capsys.readouterr().out
    assert "winding: 1" in out


def test_surgery_commands(files, capsys):
    assert run(["surgery", "zero", files["trefoil.pd"]]) == 0
    out = capsys.readouterr().out
    assert "F[0]" in out
    assert run(["surgery", "pipeline", files["zigzag.pat"], files["trefoil.pd"], "--emit-trace"]) == 0
    out = capsys.readouterr().out
    assert "diagram_certificate: True" in out


def test_surgery_pipeline_rejects_winding_zero(files, capsys):
    code = run(["surgery", "pipeline", files["clasp.pat"], files["trefoil.pd"]])
    assert code == 1


def test_slink_commands(files, tmp_path, capsys):
    assert run(["slink", "winding", files["w23.sl"]]) == 0
    out = capsys.readouterr().out
    assert "[2, 3]" in out and "winding_gcd: 1" in out
    assert run(["slink", "closure", files["w23.sl"]]) == 0
    capsys.readouterr()
    par_file = str(tmp_path / "par.sl")
    assert run(["slink", "parallel", files["w23.sl"], "--copies", "2,-1", "-o", par_file]) == 0
    capsys.readouterr()
    assert run(["slink", "reduce", files["w23.sl"], "--copies", "2,-1"]) == 0
    out = capsys.readouterr().out
    assert "winding: 1" in out
    assert run(["slink", "infect", files["w23.sl"], files["trefoil.pd"]]) == 0
    capsys.readouterr()
    assert run(["slink", "stack", files["w23.sl"], files["w23.sl"]]) == 0
    capsys.readouterr()
    assert run(["slink", "fuse", par_file]) == 0
    capsys.readouterr()


def test_invalid_construction_is_internal_but_invalid_input_is_parse_error(files, tmp_path, capsys):
    # the copy vector (-1, 1) merges two cut passages into one edge: a fault
    # of ``fuse``, reported as such, not as a fault of the input file
    par_file = str(tmp_path / "par.sl")
    assert run(["slink", "parallel", files["w23.sl"], "--copies=-1,1", "-o", par_file]) == 0
    capsys.readouterr()
    for argv in (["slink", "reduce", files["w23.sl"], "--copies=-1,1"], ["slink", "fuse", par_file]):
        assert run(argv) == 3
        assert capsys.readouterr().err.startswith("internal error: ")
    bad_pat = tmp_path / "dup.pat"
    bad_pat.write_text("X[1,2,2,3] X[3,4,4,1] C[(1,2,3,4)] CUT[(1,-1),(1,+1),(2,+1)]\n")
    bad_sl = tmp_path / "dup.sl"
    bad_sl.write_text("SL[2] X[2,1,3,2] X[6,6,7,5] X[7,5,8,4] P[(1,2,3),(4,5,6,7,8)] CUT[(2,+1),(2,+1)]\n")
    for argv in (["winding", str(bad_pat)], ["slink", "winding", str(bad_sl)]):
        assert run(argv) == 2
        assert "parse error: cut strands must be pairwise distinct edges" in capsys.readouterr().err


def test_slink_fuse_bands_at_the_bottom_boundary(files, tmp_path, capsys):
    # each strand of these operators is one marked edge; fuse bands below it
    sm_file, both_file = str(tmp_path / "sm.sl"), str(tmp_path / "both.sl")
    (tmp_path / "sm.sl").write_text(formats.serialize_string_link(strand_meridian_operator(2, 0)) + "\n")
    (tmp_path / "both.sl").write_text(formats.serialize_string_link(both_strands_operator()) + "\n")
    for argv in (["slink", "fuse", sm_file], ["slink", "fuse", both_file],
                 ["slink", "reduce", sm_file, "--copies=1,-2"]):
        assert run(argv) == 0, argv
        capsys.readouterr()
    # two passages still land on one edge after an antiparallel turn-around
    for argv in (["slink", "reduce", both_file, "--copies=2,-1"],
                 ["slink", "reduce", files["w23.sl"], "--copies=-1,1"]):
        assert run(argv) == 3, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("internal error: "), err


def test_exit_codes(files, tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("X[1,2,3,an] C[(1)]\n")
    assert run(["invariants", str(bad)]) == 2
    # domain error: invariants of a two-component link
    hopf = tmp_path / "hopf.pd"
    from satkit.catalog import torus_link

    hopf.write_text(formats.serialize_diagram(torus_link(2, 2)) + "\n")
    assert run(["invariants", str(hopf)]) == 1
    capsys.readouterr()


def test_misuse_exits_with_one_line_message(files, capsys):
    sl = files["w23.sl"]
    for argv in (
        ["slink", "stack", sl],
        ["slink", "infect", sl],
        ["slink", "parallel", sl],
        ["slink", "reduce", sl, "--copies", "2,x"],
        ["slink", "closure", sl, sl],
        # only parallel and reduce take a copy vector
        ["slink", "closure", sl, "--copies=1,2"],
        ["slink", "stack", sl, sl, "--copies=1,2"],
        ["slink", "infect", sl, files["trefoil.pd"], "--copies=1,2"],
        ["slink", "winding", sl, "--copies=1,2"],
        ["slink", "fuse", sl, "--copies=1,2"],
        # an explicit empty vector is not an absent one
        ["slink", "parallel", sl, "--copies="],
        ["slink", "reduce", sl, "--copies="],
        ["slink", "closure", sl, "--copies="],
        ["slink", "winding", sl, "--copies="],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: satkit slink {argv[1]} INPUT") and err.count("\n") == 1
        # the shown form also takes a vector whose first entry is negative
        assert ("--copies=K1,K2,..." in err) == (argv[1] in ("parallel", "reduce"))
    assert run(["corpus", sl]) == 1
    assert capsys.readouterr().err == f"error: {sl} is not a directory\n"
    # the coset limit is checked before the Smith form could refute clasp
    assert run(["--limit", "0", "strong-winding", files["clasp.pat"]]) == 1
    assert capsys.readouterr().err == "error: coset limit must be at least 1\n"
    for suites in ("--suites=formula", "--suites="):
        assert run(["corpus", str(pathlib.Path(sl).parent), suites]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: satkit corpus DIR --suites=") and err.count("\n") == 1


def test_unreadable_paths_are_user_errors(files, tmp_path, capsys):
    for argv in (["invariants", str(tmp_path)],
                 ["satellite", files["core.pat"], files["trefoil.pd"], "-o", str(tmp_path)]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


def test_virtual_knot_has_no_invariants_and_fails_its_formula_cases(files, tmp_path, capsys):
    from satkit.diagram import Diagram

    virtual = Diagram(((6, 1, 1, 2), (2, 4, 3, 5), (3, 5, 4, 6)), ((1, 2, 3, 4, 5, 6),))
    (tmp_path / "virtual.pd").write_text(formats.serialize(virtual) + "\n")
    assert run(["invariants", str(tmp_path / "virtual.pd")]) == 1
    assert capsys.readouterr().err == "error: Alexander polynomial needs a planar diagram; this code has genus 1\n"
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("trefoil.pd", "virtual.pd", "core.pat", "zigzag.pat"):
        (d / name).write_text((tmp_path / name).read_text())
    assert run(["--format", "structured", "--limit", "10000", "corpus", str(d)]) == 1
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["satellite-formula"] == "2/4 ok; failing: core.pat*virtual.pd, zigzag.pat*virtual.pd"
    assert outputs["satellite-formula:core.pat*virtual.pd"].startswith("formula failed: Alexander polynomial")
    assert outputs["meridian"] == "2/2 ok"
    assert outputs["pipeline"] == "2/4 ok; failing: core.pat*virtual.pd, zigzag.pat*virtual.pd"


def test_corpus_empty(tmp_path, capsys):
    assert run(["corpus", str(tmp_path)]) == 0
    capsys.readouterr()


def test_corpus_small_pass(files, tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("trefoil.pd", "unknot.pd", "core.pat", "zigzag.pat"):
        (d / name).write_text((tmp_path / name).read_text())
    code = run(["--limit", "10000", "corpus", str(d)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "satellite-formula" in out


def test_corpus_negative_control(files, tmp_path, capsys):
    d = tmp_path / "corpus2"
    d.mkdir()
    (d / "trefoil.pd").write_text((tmp_path / "trefoil.pd").read_text())
    p = cable_pattern(2, 3)
    k = trefoil()
    fixture = formats.satellite_fixture_to_obj(p, k, misframed_satellite(p, k))
    (d / "bad.json").write_text(json.dumps(fixture))
    code = run(["corpus", str(d), "--suites", "satellite-formula"])
    out = capsys.readouterr().out
    assert code == 1
    assert "bad.json" in out
    assert "declared=" in out and "expected=" in out


def test_corpus_assembles_each_satellite_once(tmp_path, capsys):
    # the formula suite's satellite and the pipeline suite's composed
    # pattern of one (pattern, companion) pair are one assembly
    from satkit.patterns import _satellite_parts

    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_corpus.py"
    subprocess.run([sys.executable, str(script), str(tmp_path), "--with-bad"], check=True, capture_output=True)
    _satellite_parts.cache_clear()
    assert run(["--format", "structured", "corpus", str(tmp_path)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert (rep["stats"]["knots"], rep["stats"]["patterns"]) == (8, 8)
    assert rep["outputs"]["satellite-formula"] == "65/66 ok; failing: misframed.json"
    assert rep["outputs"]["pipeline"] == "32/32 ok"
    # 64 formula pairs assembled once each; the 32 pipelines reuse theirs
    info = _satellite_parts.cache_info()
    assert (info.misses, info.hits) == (64, 32)


def test_corpus_skips_unreadable(tmp_path, capsys):
    d = tmp_path / "corpus3"
    d.mkdir()
    (d / "broken.pd").write_text("X[1,1,1]")
    (d / "nested.pd").mkdir()  # a subdirectory is no input, whatever its name
    (d / "empty.json").write_text('{"type": "diagram"}')
    (d / "truncated.json").write_text('{"type": "satellite-fixture", "pattern": {')
    k = formats.to_obj(trefoil())
    (d / "bad-fixture.json").write_text(json.dumps(
        {"type": "satellite-fixture", "pattern": k, "companion": k, "satellite": k}))
    code = run(["--format", "structured", "corpus", str(d)])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["stats"]["skipped"] == 4
    for name in ("broken.pd", "empty.json", "truncated.json", "bad-fixture.json"):
        assert f"skipped {name}" in captured.err


@pytest.mark.parametrize("name, text", [
    ("missing-fields.json", '{"type": "diagram"}'),
    ("truncated.json", '{"type": "diagram", "crossings": [[1, 4, 2'),
    ("wrong-shape.json", '{"type": "diagram", "crossings": [[1, 2, 3]], "components": [[1, 2, 3]]}'),
    ("empty-strand.json", '{"type": "string-link", "strand_count": 1, "crossings": [], "strands": [[]]}'),
    ("not-an-object.json", "[1, 2]"),
    ("empty-count.sl", "SL[] P[(1)]"),
    ("binary.pd", "\udcff\udcfe"),
    ("bad-escape.pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] C[(1,2,3,4,5,6)] N[a%zz]"),
    ("short-escape.pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] C[(1,2,3,4,5,6)] N[a%4]"),
    ("non-utf8-escape.pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] C[(1,2,3,4,5,6)] N[a%FF]"),
])
def test_malformed_input_is_a_parse_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_bytes((text + "\n").encode("utf-8", "surrogateescape"))
    command = ["slink", "winding"] if name.endswith(".sl") else ["invariants"]
    assert run(command + [str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def _walk_out_one_hopf_component():
    # a builder walked out from one seed while the Hopf link has two
    # components: the walk misses wires, a construction bug
    from satkit.catalog import torus_link
    from satkit.wires import Builder

    b, wmap = Builder.from_diagram(torus_link(2, 2))
    first = torus_link(2, 2).components[0][0]
    return b.to_diagram([(b.live(wmap[first]), True)])


def test_builder_invariant_failure_is_internal(files, capsys, monkeypatch):
    import satkit.cli as cli
    from satkit.errors import InternalError, ParseError

    with pytest.raises(InternalError) as err:
        _walk_out_one_hopf_component()
    assert not isinstance(err.value, ParseError)
    assert "missing seeds" in str(err.value)

    monkeypatch.setattr(cli, "alexander_poly", lambda d: _walk_out_one_hopf_component())
    code = run(["invariants", files["trefoil.pd"]])
    assert code == 3
    assert capsys.readouterr().err.startswith("internal error: ")


def test_readme_names_every_option_and_command():
    # README's synopsis and command list are read back against the parser,
    # so a removed flag or command cannot linger in the docs
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    parser = build_parser()
    synopsis = re.search(r"^satkit (.*) COMMAND \.\.\.$", readme, re.M).group(1)
    options = {a.option_strings[-1] for a in parser._actions if a.option_strings and a.dest != "help"}
    assert set(re.findall(r"\[(--[\w-]+)", synopsis)) == options
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    block = readme.split("Commands:", 1)[1].split("\nExit codes", 1)[0]
    named = {
        span.split()[0]
        for line in block.splitlines()
        if line.startswith("- ")
        for span in re.findall(r"`([^`]+)`", line.split(" — ")[0])
    }
    assert named == set(commands.choices)


# Every subcommand in both output formats, with -o to text and JSON, .json
# inputs and each kind of error exit.  Paths are relative to the working
# directory, so the reports carry no temporary path.
_PINNED_RUNS = [
    ["satellite", "core.pat", "trefoil.pd"],
    ["satellite", "cable23.pat", "trefoil.pd", "-o", "sat.pd"],
    ["satellite", "core.pat", "trefoil.json", "-o", "sat.json"],
    ["compose", "cable23.pat", "fig8.pd", "-o", "comp.pat"],
    ["compose", "core.json", "trefoil.pd", "-o", "comp.json"],
    ["winding", "cable23.pat"],
    ["winding", "core.json"],
    ["pattern-r", "core.pat", "trefoil.pd", "-o", "r.pat"],
    ["to-link", "core.pat", "-o", "link.pd"],
    ["from-link", "link.pd", "--circle", "1", "-o", "back.json"],
    ["from-link", "link.pd", "--circle", "2"],
    ["strong-winding", "core.pat"],
    ["--limit", "300", "strong-winding", "clasp.pat"],
    ["invariants", "trefoil.pd"],
    ["invariants", "trefoil.json"],
    ["check-satellite-formula", "cable23.pat", "fig8.pd"],
    ["surgery", "zero", "trefoil.pd", "-o", "zero.fl"],
    ["surgery", "zero", "fig8.pd", "-o", "zero.json"],
    ["surgery", "pipeline", "zigzag.pat", "trefoil.pd", "--emit-trace"],
    ["surgery", "pipeline", "core.pat", "fig8.pd"],
    ["surgery", "pipeline", "clasp.pat", "trefoil.pd"],
    ["slink", "stack", "w23.sl", "w23.sl", "-o", "stack.sl"],
    ["slink", "closure", "w23.sl", "-o", "closure.pd"],
    ["slink", "infect", "w23.sl", "trefoil.pd", "-o", "infect.json"],
    ["slink", "winding", "w23.sl"],
    ["slink", "parallel", "w23.sl", "--copies", "2,-1", "-o", "par.sl"],
    ["slink", "fuse", "par.sl", "-o", "fuse.pat"],
    ["slink", "reduce", "w23.sl", "--copies=2,-1", "-o", "reduce.json"],
    ["--limit", "10000", "corpus", "corpus"],
    ["corpus", "corpus", "--suites", "satellite-formula,meridian"],
    ["corpus", "badcorpus", "--suites", "satellite-formula"],
    ["invariants", "bad.pd"],
    ["invariants", "hopf.pd"],
    ["satellite", "trefoil.pd", "trefoil.pd"],
    ["slink", "infect", "trefoil.pd", "trefoil.pd"],
    ["invariants", "missing.pd"],
    ["slink", "stack", "w23.sl"],
    ["slink", "infect", "w23.sl"],
    ["corpus", "w23.sl"],
]
# sha256 of the records below: a changed report, message, exit code or written
# file changes it
_PINNED_SHA256 = "752d59488aa6fb2af1f8e30d964d50b6d889897884755980d0631be0bd4ed5f0"


def test_every_command_report_is_pinned(files, tmp_path, capsys, monkeypatch):
    from satkit.catalog import torus_link

    monkeypatch.chdir(tmp_path)
    (tmp_path / "trefoil.json").write_text(json.dumps(formats.to_obj(trefoil())))
    (tmp_path / "core.json").write_text(json.dumps(formats.to_obj(core_pattern())))
    (tmp_path / "hopf.pd").write_text(formats.serialize(torus_link(2, 2)) + "\n")
    (tmp_path / "bad.pd").write_text("X[1,2,3,an] C[(1)]\n")
    for sub, names in (("corpus", ("trefoil.pd", "unknot.pd", "core.pat", "zigzag.pat")),
                       ("badcorpus", ("trefoil.pd",))):
        (tmp_path / sub).mkdir()
        for name in names:
            (tmp_path / sub / name).write_text((tmp_path / name).read_text())
    p, k = cable_pattern(2, 3), trefoil()
    (tmp_path / "badcorpus" / "misframed.json").write_text(
        json.dumps(formats.satellite_fixture_to_obj(p, k, misframed_satellite(p, k))))
    (tmp_path / "corpus" / "broken.pd").write_text("X[1,1,1]")

    records = []
    for fmt in ("text", "structured"):
        for argv in _PINNED_RUNS:
            code = run(["--format", fmt] + argv)
            captured = capsys.readouterr()
            out = captured.out
            if fmt == "structured" and out:
                rep = json.loads(out)
                rep.pop("timing_ms")
                out = json.dumps(rep, sort_keys=True, indent=2) + "\n"
            written = argv[argv.index("-o") + 1] if "-o" in argv else None
            body = (tmp_path / written).read_text() if written and (tmp_path / written).exists() else None
            records.append([fmt, argv, code, out, captured.err, body])
    text = json.dumps(records, sort_keys=True).replace(str(tmp_path), "<tmp>")
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_SHA256


def test_every_subcommand_has_help(capsys):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        nested = [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]
        argvs = [[name, child, "-h"] for child in nested[0].choices] if nested else []
        for argv in [[name, "-h"]] + argvs:
            assert run(argv) == 0, argv
            assert capsys.readouterr().out.startswith("usage: satkit")
