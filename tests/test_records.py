"""The record contract: every record type of the package is frozen, takes each
field once by position or keyword, prints and (for value records) compares
and hashes as the equivalent frozen dataclass would, and survives pickle and
deepcopy.  A dataclass built from the record's field names is the oracle."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellmodel import (
    TSIRELSON_ANGLES,
    ChshOutcome,
    ChshReport,
    DetectorAngle,
    SettingsDistribution,
    TrialSeries,
    bell_original,
    chsh_conditional,
    chsh_measure,
    detector_operator,
    dice_space,
    empirical_measure,
    factorizability_fit,
    fourier_witness_check,
    m_separability_search,
    no_signaling_report,
    sample,
    sample_chunks,
    singlet_state,
    spectral_coefficients,
)
from bellmodel.singlet import _Record

IDENTITY_RECORDS = {
    "DetectorOperator", "SingletState", "FiniteProbabilitySpace", "JointMeasure",
    "NoSignalingReport", "LHVModel", "SeparabilityResult", "TrialSeries", "_Draw",
    "EmpiricalMeasure",
}


def _one_of_each() -> list:
    measure = chsh_measure(TSIRELSON_ANGLES)
    series = sample(measure, 10, seed=0)
    a0, shared, b1 = (DetectorAngle(r) for r in (0.0, math.pi / 6, math.pi / 3))
    search = m_separability_search(TSIRELSON_ANGLES, grid_size=2, restarts=0, seed=0)
    return [
        DetectorAngle(0.3),
        detector_operator(DetectorAngle(0.3)),
        singlet_state(),
        spectral_coefficients(*TSIRELSON_ANGLES[:2]),
        dice_space(),
        SettingsDistribution(0.5, 0.25, 0.0, 0.25),
        ChshOutcome(1, -1, 0, 1),
        measure,
        chsh_conditional(measure),
        bell_original(a0, shared, b1, SettingsDistribution(1 / 3, 1 / 3, 0.0, 1 / 3)),
        no_signaling_report(measure),
        factorizability_fit(measure),
        fourier_witness_check(100),
        search.model,
        search,
        series,
        sample_chunks(measure, 10, seed=0),
        empirical_measure(series),
    ]


RECORDS = _one_of_each()


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def _oracle(record):
    """The frozen dataclass with the record's name, fields and values."""
    cls = type(record)
    oracle = dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True,
                                        eq=cls.__name__ not in IDENTITY_RECORDS)
    return oracle(*_values(record))


def _same(a, b) -> bool:
    """Equal field by field, into identity records and numpy arrays."""
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, _Record):
        return type(a) is type(b) and _same(_values(a), _values(b))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _ids(records):
    return [type(r).__name__ for r in records]


def test_every_record_type_is_covered():
    assert sorted(_ids(RECORDS)) == sorted(cls.__name__ for cls in _Record.__subclasses__())
    assert len(RECORDS) == 18
    identity = {type(r).__name__ for r in RECORDS if type(r).__eq__ is object.__eq__}
    assert identity == IDENTITY_RECORDS


def test_fields_are_the_annotated_names():
    """Unannotated class attributes are not fields, and match takes the fields
    by position."""
    assert ChshReport._fields == ("term_values",)
    assert TrialSeries._fields == ("cells", "seed", "measure_digest")
    match ChshOutcome(1, -1, 0, 1):
        case ChshOutcome(x, y, i, j):
            assert (x, y, i, j) == (1, -1, 0, 1)


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_frozen(record):
    for name in (*type(record)._fields, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_repr_is_the_dataclass_repr(record):
    assert repr(record) == repr(_oracle(record))


def test_repr_examples():
    assert repr(DetectorAngle(-math.pi)) == "DetectorAngle(radians=0.0)"
    assert repr(ChshOutcome(1, -1, 0, 1)) == "ChshOutcome(x=1, y=-1, i=0, j=1)"
    assert repr(chsh_conditional(chsh_measure([DetectorAngle(0.0)] * 4))) == (
        "ChshReport(term_values=(-1.0, -1.0, -1.0, -1.0))")


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_equality_and_hash(record):
    """Value records compare and hash like the dataclass; identity records
    equal only themselves, and a different class never compares equal."""
    twin = copy.copy(record)
    assert record == record and not record != record
    assert record != _oracle(record) and record != _values(record)
    if type(record).__name__ in IDENTITY_RECORDS:
        assert record != twin and hash(record) == object.__hash__(record)
    else:
        assert record == twin and not record != twin
        try:
            expected = hash(_oracle(record))
        except TypeError:  # a dict field: unhashable either way
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == expected


def _check_value_semantics(a, b):
    same = _values(a) == _values(b)
    assert (a == b) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)


ANGLES = st.sampled_from([0.0, -0.0, 0.25, math.pi, -math.pi, 0.25 + math.pi, 3 * math.pi])
OUTCOMES = st.builds(ChshOutcome, st.sampled_from((-1, 1)), st.sampled_from((-1, 1)),
                     st.sampled_from((0, 1)), st.sampled_from((0, 1)))
SETTINGS = st.lists(st.integers(0, 2), min_size=4, max_size=4).filter(any).map(
    lambda ticks: SettingsDistribution(*(t / sum(ticks) for t in ticks)))


@given(ANGLES, ANGLES)
def test_detector_angle_value_semantics(a, b):
    _check_value_semantics(DetectorAngle(a), DetectorAngle(b))


@given(SETTINGS, SETTINGS)
def test_settings_value_semantics(a, b):
    _check_value_semantics(a, b)


@given(OUTCOMES, OUTCOMES)
def test_outcome_value_semantics(a, b):
    _check_value_semantics(a, b)


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
@pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_round_trip(record, round_trip):
    clone = round_trip(record)
    assert type(clone) is type(record) and clone is not record
    assert _same(_values(clone), _values(record))
    assert repr(clone) == repr(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(clone, type(record)._fields[0], None)


@pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
def test_constructor_arguments(record):
    """Every field once, by position or keyword: anything else is a TypeError."""
    cls, names, values = type(record), type(record)._fields, _values(record)
    keywords = dict(zip(names, values))
    assert _same(cls(*values), record)
    assert _same(cls(**keywords), record)
    assert _same(cls(*values[:1], **dict(zip(names[1:], values[1:]))), record)
    for args, kwargs in [
        ((), {}),  # all missing
        (values[1:], {}),  # the last one missing
        ((), dict(zip(names[1:], values[1:]))),  # the first one missing
        ((*values, values[0]), {}),  # one too many
        (values, {names[0]: values[0]}),  # repeated
        (values, {"unknown": 0}),  # extra
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
