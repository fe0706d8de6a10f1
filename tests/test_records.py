"""The solve path's records behave as the frozen dataclasses they replace.

Each record type is compared, over drawn field values, with a reference
``@dataclass(frozen=True)`` of the same name and fields, written out here,
that runs the record's own ``__post_init__`` and derives what the record
derives on read (an instance's ``authorship``).  Subclasses, with and
without fields of their own, are compared the same way.
"""

import copy
import dataclasses
import pickle
from functools import cached_property

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from deskrisk import Assignment, FractionalSolution, Instance, SolveReport, SolveStatus
from deskrisk.instance import _Record, replace


class Conference(Instance):
    """An instance type with no fields of its own."""


class Capped(Instance):
    """An instance type that gives an inherited field a default of its own."""

    b: int | None = 2


class Labelled(FractionalSolution):
    """A solution type with a field of its own."""

    label: str = ""


class Nominees(Assignment):
    """An assignment type with no fields of its own."""


# Each record type's fields in order: a name alone, or (name, default).
FIELDS = {
    Instance: ["n", "m", "authorship", "p", ("b", None), ("lam", None)],
    Assignment: ["nominee"],
    FractionalSolution: ["x", ("y", None)],
    SolveReport: [
        "status", ("objective", None), ("expected_rejections", None), ("penalty", None),
        ("loads", None), ("solver", ""), ("seed", None), ("lp_bound", None),
        ("rounded_objective", None), ("gap", None), ("integral", None),
    ],
}
FIELDS[Conference] = FIELDS[Instance]
FIELDS[Capped] = [*FIELDS[Instance][:4], ("b", 2), ("lam", None)]
FIELDS[Labelled] = [*FIELDS[FractionalSolution], ("label", "")]
FIELDS[Nominees] = FIELDS[Assignment]


def reference(record_type):
    """A frozen dataclass named and shaped as ``record_type``, running its ``__post_init__``."""
    fields = [
        field if isinstance(field, str) else (field[0], object, field[1])
        for field in FIELDS[record_type]
    ]
    namespace = {"__post_init__": record_type.__post_init__}
    ref = dataclasses.make_dataclass(record_type.__name__, fields, frozen=True, namespace=namespace)
    for name in ref.__match_args__:  # derived on read, after the dataclass took its defaults
        if isinstance(getattr(record_type, name, None), cached_property):
            setattr(ref, name, getattr(record_type, name))
    return ref


REFERENCES = {record_type: reference(record_type) for record_type in FIELDS}

ids = st.integers(1, 5)
floats = st.floats(allow_nan=False)
maybe_float = st.none() | floats

# Sequences are drawn as lists, which the instance's and the assignment's
# __post_init__ turn into tuples; a replace that skips it keeps the lists.
VALUES = {
    Instance: st.fixed_dictionaries({
        "n": ids, "m": ids, "authorship": st.lists(st.tuples(ids, ids), max_size=6),
        "p": st.lists(st.floats(0.0, 1.0), max_size=5), "b": st.none() | ids, "lam": maybe_float,
    }),
    Assignment: st.fixed_dictionaries({"nominee": st.lists(ids, max_size=6)}),
    FractionalSolution: st.fixed_dictionaries({
        "x": st.dictionaries(st.tuples(ids, ids), st.floats(0.0, 1.0), max_size=4),
        "y": st.none() | st.tuples(st.floats(0.0, 4.0)),
    }),
    SolveReport: st.fixed_dictionaries(
        {"status": st.sampled_from(SolveStatus)},
        optional={
            "objective": maybe_float, "expected_rejections": maybe_float, "penalty": maybe_float,
            "loads": st.none() | st.lists(ids, max_size=4).map(tuple),
            "solver": st.text(max_size=8), "seed": st.none() | st.integers(),
            "lp_bound": maybe_float, "rounded_objective": maybe_float, "gap": maybe_float,
            "integral": st.none() | st.booleans(),
        },
    ),
}
VALUES[Conference], VALUES[Nominees] = VALUES[Instance], VALUES[Assignment]
VALUES[Capped] = VALUES[Instance].flatmap(
    lambda values: st.sampled_from([values, {k: v for k, v in values.items() if k != "b"}])
)
VALUES[Labelled] = st.fixed_dictionaries(
    {"x": st.dictionaries(st.tuples(ids, ids), st.floats(0.0, 1.0), max_size=4)},
    optional={"y": st.none() | st.tuples(st.floats(0.0, 4.0)), "label": st.text(max_size=4)},
)

RECORD_TYPES = pytest.mark.parametrize("record_type", list(FIELDS), ids=lambda t: t.__name__)


def outcome(call):
    """What ``call()`` returns, or what it raises: an attribute or a type error, and its text."""
    try:
        return "returns", call()
    except (AttributeError, TypeError) as exc:
        return "raises", isinstance(exc, AttributeError), isinstance(exc, TypeError), str(exc)


def both(record_type, values):
    return record_type(**values), REFERENCES[record_type](**values)


@RECORD_TYPES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eq_hash_and_repr_match_the_dataclass(record_type, data):
    values = data.draw(VALUES[record_type])
    others = data.draw(st.sampled_from([values, data.draw(VALUES[record_type])]))
    record, ref = both(record_type, values)
    other, other_ref = both(record_type, others)
    assert repr(record) == repr(ref) and repr(other) == repr(other_ref)
    assert (record == other, record != other) == (ref == other_ref, ref != other_ref)
    assert record != ref and ref != record
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(ref))
    assert record.__match_args__ == ref.__match_args__


@RECORD_TYPES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_copies_and_replace_match_the_dataclass(record_type, data):
    values = data.draw(VALUES[record_type])
    record, ref = both(record_type, values)
    copies = pickle.loads(pickle.dumps(record)), copy.copy(record)
    # Before repr reads, and so derives, an instance's authorship on one of them.
    assert all(type(copied) is record_type and vars(copied) == vars(record) for copied in copies)
    assert all(repr(copied) == repr(record) for copied in copies)
    assert vars(copy.copy(ref)) == vars(ref)
    changed = data.draw(VALUES[record_type])
    changes = {name: changed[name] for name in data.draw(st.sets(st.sampled_from(list(changed))))}
    assert repr(replace(record, **changes)) == repr(dataclasses.replace(ref, **changes))
    assert replace(record, **changes) == record_type(**{**values, **changes})


@RECORD_TYPES
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_fields_are_frozen_as_in_the_dataclass(record_type, data):
    record, ref = both(record_type, data.draw(VALUES[record_type]))
    name = data.draw(st.sampled_from(ref.__match_args__))
    for target in (record, ref):
        assert outcome(lambda: setattr(target, name, 0))[:2] == ("raises", True)
        assert outcome(lambda: delattr(target, name))[:2] == ("raises", True)
        assert outcome(lambda: setattr(target, "extra", 0))[:2] == ("raises", True)
    assert outcome(lambda: setattr(record, name, 0)) == outcome(lambda: setattr(ref, name, 0))
    assert outcome(lambda: delattr(record, name)) == outcome(lambda: delattr(ref, name))
    assert repr(record) == repr(ref)


@RECORD_TYPES
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_bad_constructor_arguments_raise_type_error(record_type, data):
    values = data.draw(VALUES[record_type])
    names = REFERENCES[record_type].__match_args__
    required = [field for field in FIELDS[record_type] if isinstance(field, str)]
    first = names[0]
    calls = [
        lambda cls: cls(**{name: v for name, v in values.items() if name != required[-1]}),
        lambda cls: cls(**values, unknown=1),
        lambda cls: cls(values[first], **values),
        lambda cls: cls(*[values.get(name) for name in names], None),
    ]
    for call in calls:
        for cls in (record_type, REFERENCES[record_type]):
            with pytest.raises(TypeError):
                call(cls)


def test_positional_arguments_fill_the_fields_in_order():
    pairs = ((2, 1), (1, 2))
    assert Instance(2, 2, pairs, [0.5, 0.25], 1) == Instance(
        n=2, m=2, authorship=((1, 2), (2, 1)), p=(0.5, 0.25), b=1, lam=None
    )
    assert repr(FractionalSolution({(1, 1): 1.0})) == "FractionalSolution(x={(1, 1): 1.0}, y=None)"
    assert repr(Nominees((1, 2))) == "Nominees(nominee=(1, 2))"
    assert repr(Labelled({}, None, "a")) == "Labelled(x={}, y=None, label='a')"


def test_replace_runs_post_init():
    changed = replace(Assignment(nominee=(1, 2)), nominee=[2, 3])
    assert changed == Assignment((2, 3)) and type(changed.nominee) is tuple
    with pytest.raises(TypeError):
        replace(changed, unknown=1)


def test_records_of_different_types_with_equal_fields_differ():
    class Pair(_Record):
        x: object
        y: object = None

    solution = FractionalSolution(x={(1, 1): 1.0})
    assert Pair(x={(1, 1): 1.0}) != solution and solution != Pair(x={(1, 1): 1.0})
    assert Pair(x=1) == Pair(1, None) and hash(Pair(1)) == hash((1, None))


def test_copies_keep_what_the_instance_cached():
    inst = Instance.from_rows([[1, 2], [2]], [0.25, 0.5], b=1)
    inst._core, inst._violations  # noqa: B018 - built on first read
    copies = pickle.loads(pickle.dumps(inst)), copy.copy(inst)
    for copied in copies:
        assert vars(copied) == vars(inst)
        assert list(vars(copied)) == ["n", "m", "p", "b", "lam", "rows", "_strays", "_violations",
                                      "_core"]
    assert all(copied == inst for copied in copies)  # == reads, and so derives, the pairs
    assert "authorship" in vars(inst)
