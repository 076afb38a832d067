"""The immutable record classes: equality, hashing, repr, immutability,
pickling and construction, pinned for every record of the package."""

from __future__ import annotations

import pickle

import pytest

from npscensus.catalog import BucketMember, ExpectedNps, _Counts
from npscensus.cli import VerifyRecord
from npscensus.core import Morphism, Subgroup, cyclic_group
from npscensus.corpus import CorpusEntry
from npscensus.coset import CosetTable
from npscensus.families import FamilySpec
from npscensus.lattice import CountSummary, Lattice, PrimeData, all_subgroups
from npscensus.presentation import Presentation

C4 = cyclic_group(4)
SPEC = FamilySpec("Q", (8,))

# (record, its fields in declaration order, the repr it must print)
CASES = [
    (
        Subgroup(C4, 0b101, 2),
        (C4, 0b101, 2),
        "Subgroup(parent=<C4 of order 4>, members=5, size=2)",
    ),
    (
        Morphism(C4, C4, (0, 3, 2, 1)),
        (C4, C4, (0, 3, 2, 1)),
        "Morphism(domain=<C4 of order 4>, codomain=<C4 of order 4>, "
        "images=(0, 3, 2, 1))",
    ),
    (
        ExpectedNps("exact", 7, "Theorem 2"),
        ("exact", 7, "Theorem 2"),
        "ExpectedNps(kind='exact', value=7, source='Theorem 2')",
    ),
    (_Counts(5, 3, 2), (5, 3, 2), "_Counts(s=5, ps=3, nps=2)"),
    (
        BucketMember("Q(2^n)", "n >= 3", 3, SPEC),
        ("Q(2^n)", "n >= 3", 3, SPEC),
        "BucketMember(template='Q(2^n)', constraints='n >= 3', lowest_n=3, "
        "make=FamilySpec(kind='Q', params=(8,), r=None, factors=()))",
    ),
    (PrimeData(2, 3, 1), (2, 3, 1), "PrimeData(p=2, f=3, k=1)"),
    (
        CountSummary(8, 4, 6, 4, 2, (PrimeData(2, 2, 2),)),
        (8, 4, 6, 4, 2, (PrimeData(2, 2, 2),)),
        "CountSummary(order=8, exponent=4, s=6, ps=4, nps=2, "
        "per_prime=(PrimeData(p=2, f=2, k=2),))",
    ),
    (
        CorpusEntry("S3", 3, ((1, 0, 2), (1, 2, 0))),
        ("S3", 3, ((1, 0, 2), (1, 2, 0))),
        "CorpusEntry(name='S3', degree=3, generators=((1, 0, 2), (1, 2, 0)))",
    ),
    (
        CosetTable(1, ((1, 1), (0, 0)), "complete"),
        (1, ((1, 1), (0, 0)), "complete"),
        "CosetTable(num_generators=1, rows=((1, 1), (0, 0)), status='complete')",
    ),
    (
        FamilySpec("prod", (), None, (SPEC, FamilySpec("C", (2,)))),
        ("prod", (), None, (SPEC, FamilySpec("C", (2,)))),
        "FamilySpec(kind='prod', params=(), r=None, factors=("
        "FamilySpec(kind='Q', params=(8,), r=None, factors=()), "
        "FamilySpec(kind='C', params=(2,), r=None, factors=())))",
    ),
    (
        Presentation(("a", "b"), (((0, 1), (0, 1)), ((1, -1), (0, 1)))),
        (("a", "b"), (((0, 1), (0, 1)), ((1, -1), (0, 1)))),
        "Presentation(generators=('a', 'b'), "
        "relators=(((0, 1), (0, 1)), ((1, -1), (0, 1))))",
    ),
    (
        VerifyRecord("D(8)", 8, "7", "exact", 7, "pass", "Lemma 1"),
        ("D(8)", 8, "7", "exact", 7, "pass", "Lemma 1"),
        "VerifyRecord(label='D(8)', order=8, expected='7', kind='exact', "
        "computed=7, status='pass', source='Lemma 1')",
    ),
]
IDS = [type(rec).__name__ for rec, _, _ in CASES]


def _lattice() -> Lattice:
    return all_subgroups(cyclic_group(4))


@pytest.mark.parametrize("rec, values, text", CASES, ids=IDS)
class TestRecords:
    def test_equal_to_a_copy_and_not_to_other_types(self, rec, values, text):
        twin = type(rec)(*values)
        assert twin == rec and not twin != rec
        assert rec.__eq__(values) is NotImplemented
        assert rec != values
        assert rec.__eq__(object()) is NotImplemented

    def test_unequal_when_a_field_differs(self, rec, values, text):
        if isinstance(rec, Subgroup):
            other = Subgroup(C4, 0b1, 1)
        else:
            changed = list(values)
            changed[-1] = ("changed",)
            other = type(rec).__new__(type(rec))
            vars(other).update(zip(_field_names(rec), changed))
        assert rec != other

    def test_hash(self, rec, values, text):
        if isinstance(rec, Subgroup):
            # Subgroup keeps its own identity-of-parent hash
            assert hash(rec) == hash((id(C4), rec.members))
        else:
            assert hash(rec) == hash(values)
        assert hash(rec) == hash(type(rec)(*values))

    def test_repr(self, rec, values, text):
        assert repr(rec) == text

    def test_fields_are_read_only(self, rec, values, text):
        name = _field_names(rec)[0]
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            rec.brand_new = 1
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is values[0]

    def test_pickle_round_trip(self, rec, values, text):
        # the group travels with the record, so a parent keeps its identity
        back, group = pickle.loads(pickle.dumps((rec, C4)))
        assert type(back) is type(rec)
        assert repr(back) == repr(rec)
        fields = [getattr(back, n) for n in _field_names(rec)]
        expect = [group if v is C4 else v for v in values]
        assert all(a is group if b is group else a == b for a, b in zip(fields, expect))
        if not any(v is C4 for v in values):
            assert back == rec

    def test_wrong_argument_count(self, rec, values, text):
        cls = type(rec)
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values[:1], **{_field_names(rec)[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)


def _field_names(rec) -> list[str]:
    return [n for n in type(rec).__annotations__]


def test_keyword_arguments_and_defaults():
    assert FamilySpec("C", (3,)) == FamilySpec(kind="C", params=(3,), r=None, factors=())
    assert FamilySpec("D") == FamilySpec("D", (), None, ())
    assert FamilySpec("G", (1, 2), r=-1).r == -1
    assert ExpectedNps(source="s", kind="exact", value=1) == ExpectedNps("exact", 1, "s")


def test_presentation_rejects_an_out_of_range_relator():
    with pytest.raises(ValueError, match=r"relator letter \(1, 1\) out of range"):
        Presentation(("a",), (((1, 1),),))
    with pytest.raises(ValueError, match=r"relator letter \(0, 2\) out of range"):
        Presentation(("a",), (((0, 2),),))


def test_lattice_repr_omits_its_index():
    lat = _lattice()
    assert repr(lat) == (
        "Lattice(group=<C4 of order 4>, subgroups=("
        "Subgroup(parent=<C4 of order 4>, members=1, size=1), "
        "Subgroup(parent=<C4 of order 4>, members=5, size=2), "
        "Subgroup(parent=<C4 of order 4>, members=15, size=4)), "
        "normal_flags=(True, True, True), conjugacy_classes=((0,), (1,), (2,)), "
        "power_index={1: 2, 2: 1, 4: 0})"
    )
    assert lat.index == {1: 0, 5: 1, 15: 2}


def test_lattice_equality_ignores_its_index():
    lat = _lattice()
    same = Lattice(lat.group, lat.subgroups, lat.normal_flags,
                   lat.conjugacy_classes, lat.power_index, {})
    assert same == lat
    other = Lattice(lat.group, lat.subgroups[:2], lat.normal_flags,
                    lat.conjugacy_classes, lat.power_index, lat.index)
    assert other != lat
    with pytest.raises(TypeError):
        hash(lat)  # power_index is a dict, as for the field tuple
    with pytest.raises(AttributeError):
        lat.index = {}


def test_lattice_pickle_round_trip():
    lat = _lattice()
    back = pickle.loads(pickle.dumps(lat))
    assert repr(back) == repr(lat)
    assert back.index == lat.index
    assert all(s.parent is back.group for s in back.subgroups)
