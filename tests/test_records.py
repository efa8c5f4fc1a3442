"""The result records are immutable named tuples."""

import pytest

from parkres import circular, core, verify
from parkres.bijections import Color, ColoredPF

RECORDS = [
    core.park((1, 1, 2), 3),
    circular.circular_park((1, 3), 2, 2),
    circular.ClassRow((1,), (2,), 3, 3),
    circular.RelationReport(2, 2, 1, 8),
    verify.Check("name", True),
    ColoredPF((1, 1), (Color.INDIGO, Color.INDIGO), 1),
]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_defaults():
    assert circular.RelationReport(2, 2, 1, 8).rows == ()
    assert verify.Check("name", True) == ("name", True, "", 0, 0.0)
    assert ColoredPF((1,), (Color.INDIGO,), 1).prime is False


def test_records_are_tuples():
    result = core.park((2, 1), 2)
    occupancy, unparked = result
    assert result == ((2, 1), ()) and occupancy == (2, 1) and unparked == ()
    assert verify.Check("name", False, "off", 2, 0.5) == ("name", False, "off", 2, 0.5)
