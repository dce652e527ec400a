"""The six immutable records behave as frozen records.

``HPolar``, ``PhasePoint``, ``OutcomeReport``, ``InterferenceReport``,
``Amplitude2`` and ``ThetaRange`` share the base ``scalars.Record``.  These
tests pin what callers see of them: the repr strings, equality and hashing
by fields within one class, refused assignment and deletion, keyword
construction with the two defaults, pattern matching by position, and copy
and pickle round trips.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hypermoyal import (
    Amplitude2,
    DichotomousContext,
    HPolar,
    InterferenceReport,
    OutcomeReport,
    PhasePoint,
    Regime,
    Sigma,
    ThetaRange,
    classify,
    polar,
    theta_range,
)
from hypermoyal.scalars import Binarion

H = Sigma.HYPERBOLIC
C = Sigma.COMPLEX

_EXACT = DichotomousContext.from_b1_row(
    Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(9, 10))
_FLOAT = DichotomousContext.from_b1_row(0.5, 0.5, 0.25, 0.4)

_OUTCOME_1 = (
    "OutcomeReport(observed=Fraction(9, 10), classical=Fraction(3, 8), "
    "d_squared=Fraction(1, 32), d=0.1767766952966369, interference=Fraction(21, 80), "
    "regime=<Regime.HYPERBOLIC: 'hyperbolic'>, lam=1.4849242404917498, sign=1, "
    "theta=0.9488156785225196)"
)
_OUTCOME_2 = (
    "OutcomeReport(observed=Fraction(1, 10), classical=Fraction(5, 8), "
    "d_squared=Fraction(3, 32), d=0.30618621784789724, interference=Fraction(-21, 80), "
    "regime=<Regime.TRIGONOMETRIC: 'trigonometric'>, lam=-0.8573214099741124, sign=None, "
    "theta=2.600839879199403)"
)

#: Each record as built by a caller, with its repr as the frozen dataclasses
#: these classes replace printed it.
REPRS = {
    "hpolar": (lambda: HPolar(1, 1.5, 0.25), "HPolar(sign=1, modulus=1.5, theta=0.25)"),
    "polar": (
        lambda: polar(Binarion(2, 1, H)),
        "HPolar(sign=1, modulus=1.7320508075688772, theta=0.5493061443340548)",
    ),
    "phase point": (
        lambda: PhasePoint(("1/2", 1), (Fraction(3), -2)),
        "PhasePoint(q=(Fraction(1, 2), Fraction(1, 1)), p=(Fraction(3, 1), Fraction(-2, 1)))",
    ),
    "empty phase point": (lambda: PhasePoint((), ()), "PhasePoint(q=(), p=())"),
    "hyperbolic amplitude": (
        lambda: Amplitude2((Fraction(1, 2), 0.5), (0, "1"), 1, signs=(1, -1)),
        "Amplitude2(magnitudes=(Fraction(1, 2), 0.5), phases=(0.0, 1.0), "
        "sigma=<Sigma.HYPERBOLIC: 1>, signs=(1, -1))",
    ),
    "complex amplitude": (
        lambda: Amplitude2((0.25, 0.75), (0.5, 1), C),
        "Amplitude2(magnitudes=(0.25, 0.75), phases=(0.5, 1.0), "
        "sigma=<Sigma.COMPLEX: -1>, signs=(1, 1))",
    ),
    "degenerate range": (
        lambda: ThetaRange(None, None, False, degenerate=True),
        "ThetaRange(cosh_max=None, theta_max=None, admissible=False, degenerate=True)",
    ),
    "range": (
        lambda: ThetaRange(Fraction(3, 2), 0.9624236501192069, True),
        "ThetaRange(cosh_max=Fraction(3, 2), theta_max=0.9624236501192069, admissible=True, "
        "degenerate=False)",
    ),
    "outcome": (lambda: classify(_EXACT).outcomes[0], _OUTCOME_1),
    "report": (
        lambda: classify(_EXACT),
        f"InterferenceReport(outcomes=({_OUTCOME_1}, {_OUTCOME_2}), "
        "normalization_residual=Fraction(0, 1))",
    ),
    "float report": (
        lambda: classify(_FLOAT),
        "InterferenceReport(outcomes=(OutcomeReport(observed=0.4, classical=0.375, "
        "d_squared=0.03125, d=0.1767766952966369, interference=0.012500000000000011, "
        "regime=<Regime.TRIGONOMETRIC: 'trigonometric'>, lam=0.07071067811865481, "
        "sign=None, theta=1.500026590132683), OutcomeReport(observed=0.6, classical=0.625, "
        "d_squared=0.09375, d=0.30618621784789724, interference=-0.012500000000000011, "
        "regime=<Regime.TRIGONOMETRIC: 'trigonometric'>, lam=-0.04082482904638634, "
        "sign=None, theta=1.6116325045851936)), normalization_residual=0.0)",
    ),
    "theta ranges": (
        lambda: theta_range(_EXACT.p_a, _EXACT.cond),
        "(ThetaRange(cosh_max=1.0606601717798212, theta_max=0.34657359027997237, "
        "admissible=True, degenerate=False), ThetaRange(cosh_max=0.6123724356957946, "
        "theta_max=None, admissible=False, degenerate=False))",
    ),
}


@pytest.mark.parametrize("build, text", REPRS.values(), ids=REPRS)
def test_repr_is_pinned(build, text):
    assert repr(build()) == text


#: One record of each class, built twice, and one that differs in one field.
RECORDS = {
    "HPolar": (lambda: HPolar(-1, 2.0, 0.5), lambda: HPolar(-1, 2.0, 0.75)),
    "PhasePoint": (lambda: PhasePoint((1, "1/3"), (0, 2)), lambda: PhasePoint((1, 0), (0, 2))),
    "OutcomeReport": (lambda: classify(_EXACT).outcomes[0],
                      lambda: classify(_EXACT).outcomes[1]),
    "InterferenceReport": (lambda: classify(_EXACT), lambda: classify(_FLOAT)),
    "Amplitude2": (lambda: Amplitude2((0.5, 0.5), (1.0, 0.0), H, (1, -1)),
                   lambda: Amplitude2((0.5, 0.5), (1.0, 0.0), H)),
    "ThetaRange": (lambda: ThetaRange(2, 1.3, True), lambda: ThetaRange(2, 1.3, True, True)),
}


@pytest.mark.parametrize("build, build_other", RECORDS.values(), ids=RECORDS)
def test_equality_and_hash_follow_the_fields(build, build_other):
    record, same, other = build(), build(), build_other()
    fields = tuple(getattr(record, name) for name in record.__match_args__)
    assert record == same and not record != same
    assert hash(record) == hash(same) == hash(fields)
    assert record != other and not record == other
    assert record != fields and not record == fields
    assert record.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("build", [build for build, _ in RECORDS.values()], ids=RECORDS)
def test_fields_cannot_be_assigned_or_deleted(build):
    record = build()
    for name in record.__match_args__ + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
    for name in record.__match_args__:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == build()


@pytest.mark.parametrize("build", [build for build, _ in RECORDS.values()], ids=RECORDS)
def test_copy_and_pickle_round_trip(build):
    record = build()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)


def test_keyword_construction_and_defaults():
    assert HPolar(sign=1, modulus=1.5, theta=0.25) == HPolar(1, 1.5, 0.25)
    assert PhasePoint(p=(2,), q=(1,)) == PhasePoint((1,), (2,))
    assert Amplitude2(phases=(0, 0), magnitudes=(1, 0), sigma=C).signs == (1, 1)
    assert Amplitude2((1, 0), (0, 0), H) == Amplitude2((1, 0), (0, 0), H, signs=(1, 1))
    assert ThetaRange(cosh_max=1, theta_max=0.0, admissible=True).degenerate is False
    assert ThetaRange(1, 0.0, True) == ThetaRange(1, 0.0, True, degenerate=False)
    report = classify(_EXACT)
    assert InterferenceReport(normalization_residual=0, outcomes=report.outcomes) == report
    first = report.outcomes[0]
    fields = {name: getattr(first, name) for name in first.__match_args__}
    assert OutcomeReport(**fields) == first


def test_records_match_by_position():
    match classify(_EXACT):
        case InterferenceReport((OutcomeReport(_, _, _, _, _, Regime.HYPERBOLIC, _, sign), _), 0):
            assert sign == 1
        case _:
            pytest.fail("the report did not match by position")
    assert HPolar.__match_args__ == ("sign", "modulus", "theta")
    assert ThetaRange.__match_args__ == ("cosh_max", "theta_max", "admissible", "degenerate")
