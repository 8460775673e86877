"""``errors.Record``, the frozen base of every satkit value class, keeps
the semantics the frozen dataclasses it replaced had: equality within one
class only, the hash of the field tuple, no assignment, checked arguments,
``__post_init__`` normalization and the ``Cls(field=value, ...)`` repr."""

import pytest

from satkit import AbelianGroup, Diagram, GroupPresentation, h1, wirtinger
from satkit.catalog import cable_pattern, random_framed_links, trefoil
from satkit.diagram import _orient
from satkit.errors import Record


class Pair(Record):
    a: int
    b: str = "x"


class Twin(Record):
    a: int
    b: str = "x"


def test_records_of_different_classes_are_unequal():
    assert Pair(1, "y") == Pair(a=1, b="y") and Pair(1) == Pair(1, "x")
    assert Pair(1) != Twin(1) and Twin(1) != Pair(1)
    assert Pair(1) != (1, "x") and (1, "x") != Pair(1)
    assert len({Pair(1), Twin(1)}) == 2


def test_hash_is_the_hash_of_the_field_tuple():
    d = trefoil()
    p = cable_pattern(2, 3)
    fl = random_framed_links(1)[0]
    group = h1(fl)
    presentation = wirtinger(d)
    assert hash(d) == hash((d.crossings, d.components, d.names))
    assert hash(p) == hash((p.base, p.cut))
    assert hash(fl) == hash((fl.diagram, fl.framings, fl.roles))
    assert hash(group) == hash((group.invariant_factors,))
    assert hash(presentation) == hash((presentation.generator_count, presentation.relators))


def test_fields_cannot_be_assigned_or_deleted():
    d = trefoil()
    with pytest.raises(AttributeError):
        d.crossings = ()
    with pytest.raises(AttributeError):
        del d.components
    with pytest.raises(AttributeError):
        d.extra = 1
    with pytest.raises(AttributeError):
        _orient(d).free = frozenset()
    assert d == trefoil()


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                           # a field without default missing
    ((1, "y", 2), {}),                  # an extra positional argument
    ((1,), {"c": 2}),                   # an unknown keyword
    ((1,), {"a": 2}),                   # a field given twice
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_post_init_normalizes_lists_to_tuples():
    d = trefoil()
    rebuilt = Diagram([list(x) for x in d.crossings], [list(c) for c in d.components], list("k"))
    assert rebuilt.crossings == d.crossings and type(rebuilt.crossings[0]) is tuple
    assert rebuilt.components == d.components and rebuilt.names == ("k",)
    assert AbelianGroup([2, 0]).invariant_factors == (2, 0)


def test_orientation_record_has_slots_only():
    orient = _orient(trefoil())
    assert not hasattr(orient, "__dict__")
    assert hasattr(trefoil(), "__dict__")


def test_default_repr_names_every_field():
    assert repr(Pair(1)) == "Pair(a=1, b='x')"
    assert repr(GroupPresentation(1, ((1, 1),))) == "GroupPresentation(generator_count=1, relators=((1, 1),))"
    assert repr(AbelianGroup((0,))) == "AbelianGroup(invariant_factors=(0,))"
