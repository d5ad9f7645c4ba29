"""The headed-CSV reader: the whole-text split against csv.reader, and float
columns against float()."""
import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luxplan.csvcolumns import _csv_rows, _parse, split_csv_text

LIMIT = csv.field_size_limit()

# text, and whether split_csv_text splits it itself (True) or leaves it to
# csv.reader (False)
SCANS = {
    "mixed line ends": ("t,location,lux\r\n0.5,a,1\r2.5,b,2\n3.5,a,3\r\n", True),
    "blank lines": ("a,b\n\n1,2\n\r\n3,4\n\n\n5,6\n\n", True),
    "whitespace-only lines": ("x\n \n\t\n1\n", True),
    "whitespace-only line of the wrong width": ("a,b\n1,2\n \n", False),
    "no final newline": ("a,b\n1,2\n3,4", True),
    "header only": ("t,location,lux\n", True),
    "header only, no newline": ("t,location,lux", True),
    "empty file": ("", True),
    "empty header, no rows": ("\n\n", True),
    "empty header": ("\n1,2\n", False),
    "non-ASCII header and fields": ("zeit,ört,lux\n0.5,küche,1\n1.5,café ☕,2\n2.5,日本,3\n", True),
    "non-ASCII runs between blank lines": ("ü,b\n\né,2\r\n\r\n日,3\n\n☕,4", True),
    "a line at the field size limit": ("x\n" + "a" * LIMIT + "\n1\n", True),
    "a line over the field size limit": ("x\n" + "a" * (LIMIT + 1) + "\n1\n", False),
    "a non-ASCII line at the limit in characters": ("x\n" + "é" * LIMIT + "\n", False),
    "a quote": ('a,b\n"1",2\n', False),
    "a long and a short row that realign": ("a,b\n1,2,3\n4\n", False),
}


@pytest.mark.parametrize("text, split", SCANS.values(), ids=SCANS)
def test_split_equals_the_csv_reader(text, split):
    got = split_csv_text(text)
    assert (got is not None) == split
    if split:
        header, fields, line, stop = got
        assert (header, fields, line.tolist(), stop) == _csv_rows("f.csv", text)


FLOAT_FIELDS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:.3e}".format),
    st.sampled_from(["1_0", " 1.5 ", "١٢", "  7", "inf", "-Infinity", "nan",
                     "-nan", "NaN", "+inf", "iNfInItY", "1e400", "1e-400", "-0", "0x10", "",
                     " ", "1.0.0", "1d5", "nan(1)", "1__0", "_1", "1e", ".5", "5.", "+.5e-3",
                     "١.٥", "１"]),
    st.text(alphabet="0123456789.eE+-_ inafx٣ \t\x0b\x0c\x1c\x85\xa0", max_size=8),
)


@given(st.lists(FLOAT_FIELDS, max_size=20))
@example(["0.1", "1e5", "-0.0", " 2"])
@example(["0.1", "dim", "", "2"])
@settings(max_examples=300, deadline=None)
def test_float_column_parses_as_float_does(fields):
    values, (mask, message) = _parse(fields, float, None)
    want, errors = [], {}
    for i, field in enumerate(fields):
        try:
            want.append(float(field))
        except ValueError as exc:
            want.append(0.0)
            errors[i] = str(exc)
    assert values.dtype == np.float64
    assert values.tobytes() == np.array(want, dtype=float).tobytes()
    assert np.flatnonzero(mask).tolist() == sorted(errors)
    assert {i: message(i) for i in errors} == errors
