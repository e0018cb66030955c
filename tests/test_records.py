"""Value types and records: equality, hashing, immutability and pickling."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import typing

import pytest

import supercoinv
from supercoinv import groebner
from supercoinv.groups import GroupSpec
from supercoinv.harmonics import DimTable, Subspace
from supercoinv.superpoly import SuperPoly
from supercoinv.verify import CheckReport

VALUES = [
    (lambda: GroupSpec(2, 1, 3), lambda: GroupSpec(2, 2, 3), "m"),
    (
        lambda: groebner.GroebnerBasis(1, (SuperPoly.parse("x1^2", 1),)),
        lambda: groebner.GroebnerBasis(1, (SuperPoly.parse("x1^3", 1),)),
        "generators",
    ),
    (
        lambda: Subspace((((1,), ()), ((0,), (1,))), (((0, 1),),)),
        lambda: Subspace((((1,), ()), ((0,), (1,))), ()),
        "basis",
    ),
]


@pytest.mark.parametrize("make, make_other, field", VALUES)
class TestValueTypes:
    def test_equality_and_hash(self, make, make_other, field):
        assert make() == make() and hash(make()) == hash(make())
        assert make() != make_other()
        assert len({make(), make(), make_other()}) == 2

    def test_pickle_and_copy_round_trip(self, make, make_other, field):
        value = make()
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert again == value and hash(again) == hash(value)
            assert type(again) is type(value)

    def test_fields_cannot_be_assigned_or_deleted(self, make, make_other, field):
        value = make()
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) == kept


def test_group_spec_validates():
    with pytest.raises(ValueError, match="p=3 does not divide m=4"):
        GroupSpec(4, 3, 2)
    with pytest.raises(ValueError, match="positive"):
        GroupSpec(1, 1, 0)
    assert GroupSpec(m=4, p=2, n=3) == GroupSpec(4, 2, 3)
    assert repr(GroupSpec(4, 2, 3)) == "GroupSpec(m=4, p=2, n=3)"


def test_check_report_compares_field_by_field():
    report = CheckReport("c", {"n": 3}, "e", "x", "pass", note="n")
    assert report == CheckReport("c", {"n": 3}, "e", "x", "pass", "", "n")
    assert report != CheckReport("c", {"n": 3}, "e", "x", "pass", note="other")
    assert report.provenance == "" and report.ok
    report.verdict = "fail"
    assert not report.ok


def test_dim_table_compares_field_by_field_and_owns_its_entries():
    spec = GroupSpec(1, 1, 2)
    first, second = DimTable(spec), DimTable(group=spec)
    assert first == second and first.entries is not second.entries
    first.set(0, 0, 1)
    assert first != second and second.entries == {}
    assert first == DimTable(spec, {(0, 0): 1})
    assert DimTable(spec) != DimTable(GroupSpec(1, 1, 3))


def test_constructor_rejects_bad_arguments():
    spec = GroupSpec(1, 1, 2)
    with pytest.raises(TypeError, match="missing"):
        DimTable()
    with pytest.raises(TypeError, match="too many"):
        DimTable(spec, {}, 1)
    with pytest.raises(TypeError, match="repeated"):
        DimTable(spec, group=spec)
    with pytest.raises(TypeError, match="unexpected"):
        DimTable(spec, rows={})


def _functions_and_methods(module):
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_resolves():
    # annotations are strings under ``from __future__ import annotations``;
    # a name they use but the module no longer imports only shows here
    unresolved = []
    for info in pkgutil.iter_modules(supercoinv.__path__):
        module = importlib.import_module(f"supercoinv.{info.name}")
        for fn in _functions_and_methods(module):
            try:
                typing.get_type_hints(fn)
            except NameError as err:
                unresolved.append(f"{module.__name__}.{fn.__qualname__}: {err}")
    assert unresolved == []
