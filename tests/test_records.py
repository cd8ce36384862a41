"""The library's records are immutable and built like NamedTuples.

Each record class is a typing.NamedTuple, or, where attribute reads are
a hot path (FieldCtx, FunctionalGraph), an ffield.Frozen slots class
with the same construction and _replace.  Positional and keyword
construction agree, _replace changes one field and keeps the rest, and
no field can be assigned.  A record built without notes gets an empty,
read-only notes mapping, so no instance can leak notes into another.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from fqdyn import census, theory
from fqdyn.baseline import BaselineReport, baseline_census
from fqdyn.census import CensusReport, compare, cycle_sums, poly_census, rho_experiment, sampled_census
from fqdyn.ffield import FieldCtx, make_field
from fqdyn.fgraph import FunctionalGraph
from fqdyn.fmaps import RationalMap
from fqdyn.theory import BoundSet

F5 = make_field(5)

# one instance of every record class, as the package builds it
RECORDS = {
    "FieldCtx": lambda: make_field(3, 2),
    "RationalMap": lambda: RationalMap((1, 1), (1,)),
    "FunctionalGraph": lambda: FunctionalGraph((1, 0, 2)),
    "BoundSet": lambda: theory.poly_component_bounds(5, 2),
    "RandomMapStats": lambda: theory.random_map_stats(5),
    "QuadGraphStats": lambda: theory.quad_graph_stats(2, 3),
    "CycleSums": lambda: cycle_sums(Counter({(1, 2): 3, (4,): 1}), 3),
    "TheoryComparison": lambda: compare("row", Fraction(1, 2), "==", expected=Fraction(1, 2)),
    "CensusReport": lambda: poly_census(F5, 2),
    "CensusReport sampled": lambda: sampled_census(F5, 2, "rational", 20, 0),
    "Family": lambda: census.POLY,
    "RhoSummary": lambda: rho_experiment(F5, 2, "poly", 10, 0),
    "BaselineReport": lambda: baseline_census("random", n=3),
    "BaselineReport sampled": lambda: baseline_census("quadratic", m=2, t=3, samples=10),
}


def _fields(rec) -> tuple[str, ...]:
    return rec._fields if isinstance(rec, tuple) else rec.__slots__


def _values(rec) -> list:
    return [getattr(rec, name) for name in _fields(rec)]


@pytest.fixture(params=sorted(RECORDS), scope="module")
def rec(request):
    return RECORDS[request.param]()


def test_the_table_covers_every_record_class():
    classes = {type(make()).__name__ for make in RECORDS.values()}
    assert classes == {name.split()[0] for name in RECORDS}
    assert len(classes) == 12


def test_positional_and_keyword_construction_agree(rec):
    cls, values = type(rec), _values(rec)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(_fields(rec), values)))
    assert by_position == by_keyword == rec
    assert _values(by_position) == _values(by_keyword) == values


def test_replace_changes_one_field(rec):
    for i, name in enumerate(_fields(rec)):
        marker = object()
        changed = rec._replace(**{name: marker})
        assert type(changed) is type(rec)
        assert getattr(changed, name) is marker
        assert [v for j, v in enumerate(_values(changed)) if j != i] == [
            v for j, v in enumerate(_values(rec)) if j != i
        ]
    assert _values(rec._replace()) == _values(rec)


def test_replace_refuses_unknown_fields(rec):
    with pytest.raises(ValueError):
        rec._replace(no_such_field=1)


def test_fields_cannot_be_assigned(rec):
    for name in _fields(rec):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    if not isinstance(rec, tuple):
        with pytest.raises(AttributeError):
            delattr(rec, _fields(rec)[0])
        with pytest.raises(AttributeError):
            rec.no_such_field = 1  # slots: no new attributes either


def test_slots_records_compare_hash_and_show_by_value():
    a, b = FunctionalGraph((1, 0, 2)), FunctionalGraph((1, 0, 2))
    assert a == b and hash(a) == hash(b) and a != FunctionalGraph((0, 0, 2))
    assert a != (1, 0, 2) and repr(a) == "FunctionalGraph(succ=(1, 0, 2))"
    assert make_field(3, 2) == make_field(3, 2) != make_field(3)
    assert hash(make_field(3, 2)) == hash(make_field(3, 2))


def _bare_census_report() -> CensusReport:
    return CensusReport(
        mode="exhaustive",
        avg_components=Fraction(1),
        avg_periodic=Fraction(1),
        family="poly",
        q=2,
        d=1,
        map_count=2,
        kmax=2,
        avg_k_cycles={},
    )


def _bare_baseline_report() -> BaselineReport:
    return BaselineReport(
        mode="exhaustive", avg_components=Fraction(1), avg_periodic=Fraction(1), kind="random", size=1, graph_count=1
    )


@pytest.mark.parametrize(
    "make",
    [_bare_census_report, _bare_baseline_report, lambda: BoundSet(lower=Fraction(0), upper=Fraction(1))],
    ids=["CensusReport", "BaselineReport", "BoundSet"],
)
def test_default_notes_are_empty_and_not_shared(make):
    first = make()
    assert first.notes == {}
    with pytest.raises(TypeError):
        first.notes["leak"] = 1
    assert make().notes == {} and "notes" not in make().to_jsonable()
    with_notes = first._replace(notes={"kept": 1})
    with_notes.notes["added"] = 2
    assert with_notes.notes == {"kept": 1, "added": 2} and make().notes == {}
