"""The result and configuration records are immutable, hashable NamedTuples
with `Name(field=value, ...)` reprs and their documented defaults; the three
that check their fields raise the same messages however they are built."""

import math

import pytest

from ldp_osc.laws import AugmentedMoments, IntervalProbability
from ldp_osc.ldp import LdpClassification, PreservationReport
from ldp_osc.methods import ConditionBDiagnostics, ConditionReport, MethodDef
from ldp_osc.oscillator import MAX_N, GaussianLaw, OscillatorParams, SimConfig
from ldp_osc.sim import MsqReport, SimResult


def _coefficients(h):
    return [[1, h], [-h, 1]], [0, 1]


REPORT = ConditionReport(1.0, 1.5, 0.7, True, True, False, True, False)

# one instance of each record, built from hashable values
RECORDS = [
    MethodDef("m", _coefficients, "a method", (0.0, 2.0), "a11 = 1\n"),
    REPORT,
    ConditionBDiagnostics((0.2, 0.1), (1.0, 1.0), (0.5, 0.5), (1.0, 1.0),
                          (1.0, 1.0), "B-consistent", (REPORT, REPORT)),
    OscillatorParams(2.0, 0.5, -0.5),
    SimConfig("beta:0.5", 0.1, 10, 100, 3, OscillatorParams(2.0)),
    GaussianLaw(1.0, 4.0),
    AugmentedMoments((0.0, 0.0, 0.0), ((1.0,) * 3,) * 3),
    IntervalProbability(0.25, math.log(0.25)),
    LdpClassification("volume-preserving", 0.25, 1.0, 10.0),
    PreservationReport((0.2, 0.1), 1 / 3, (0.0, 0.0), "ExactlyPreserves",
                       True, "proved", (), ((0.4, "reason"),)),
    SimResult((0.1, 0.2), (0.3, 0.4), None),
    MsqReport((0.2, 0.1), (5, 10), (0.01, 0.005), 1.0),
]
IDS = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_fields_cannot_be_set(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_is_hashable_and_a_tuple_of_its_fields(record):
    values = tuple(getattr(record, name) for name in record._fields)
    copy = type(record)(*values)
    assert hash(copy) == hash(record)
    assert {record: 1}[copy] == 1
    assert tuple(record) == values
    assert record == values
    assert record._replace() == record
    assert type(record._replace()) is type(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_repr_names_every_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}"
                       for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_records_keep_their_keyword_defaults():
    method = MethodDef(name="m", coefficients=_coefficients)
    assert (method.description, method.h_range, method.definition) == \
        ("", (0.0, math.inf), "")
    assert OscillatorParams() == OscillatorParams(alpha=1.0, x0=0.0, y0=0.0)
    config = SimConfig(method=method, h=0.1, steps=10, samples=100)
    assert (config.seed, config.params) == (0, OscillatorParams())
    law = GaussianLaw(mean=1.0, variance=4.0)
    assert (law.sigma, law.scaled(0.5)) == (2.0, GaussianLaw(0.5, 1.0))
    for record in RECORDS:
        assert type(record)(**dict(zip(record._fields, record))) == record


# (record, positional arguments, message)
INVALID = [
    (OscillatorParams, (math.nan,), "alpha must be finite, got nan"),
    (OscillatorParams, (1.0, math.inf), "x0 must be finite, got inf"),
    (OscillatorParams, (1.0, 0.0, -math.inf), "y0 must be finite, got -inf"),
    (OscillatorParams, (0.0,), "alpha must be positive, got 0.0"),
    (OscillatorParams, (1e-160,), "alpha^2 and 1/(3 alpha^2) must be finite "
                                  "normal floats, got alpha = 1e-160"),
    (OscillatorParams, (1e160,), "alpha^2 and 1/(3 alpha^2) must be finite "
                                 "normal floats, got alpha = 1e+160"),
    (SimConfig, ("m", 0.0, 10, 100), "step size must be positive, got 0.0"),
    (SimConfig, ("m", math.nan, 10, 100), "step size must be positive, got nan"),
    (SimConfig, ("m", 0.1, 0, 100), "need at least one step, got 0"),
    (SimConfig, ("m", 0.1, MAX_N + 1, 100),
     "need at most 1e+09 steps, got 1000000001"),
    (SimConfig, ("m", 0.1, 10, 0), "need at least one sample, got 0"),
    (GaussianLaw, (0.0, -1.0), "variance must be nonnegative, got -1.0"),
    (GaussianLaw, (0.0, math.nan), "variance must be nonnegative, got nan"),
]

VALID = {OscillatorParams: OscillatorParams(),
         SimConfig: SimConfig("m", 0.1, 10, 100),
         GaussianLaw: GaussianLaw(0.0, 1.0)}


@pytest.mark.parametrize("record, args, message", INVALID)
def test_checked_records_refuse_bad_fields_however_built(record, args, message):
    keywords = dict(zip(record._fields, args))
    valid = VALID[record]
    values = (*args, *valid[len(args):])
    for build in (lambda: record(*args),
                  lambda: record(**keywords),
                  lambda: valid._replace(**keywords),
                  lambda: record._make(values)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
