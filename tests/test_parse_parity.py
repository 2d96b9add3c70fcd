"""``parse_rows`` against the row-by-row reference parser in ``helpers``."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_parse_rows
from odmwatch.ingestion import parse_rows

# Two spellings of one window, a second window of that date, another date.
TIMES = [
    ("2021-06-07", "1:00:00", "2:00:00"),
    ("2021-06-07", "01:00:00", "02:00:00"),
    ("2021-06-07", "12:00:00", "23:59:59"),
    ("2021-06-08", "00:00:00", "23:59:59"),
]
LABELS = ["A", "B", "b"]
COUNTS = ["0", "1", "7", "007", "1_000", str(2**63 - 1)]
PADS = ["", " ", "\x1c", "\t", " \x1f"]
MALFORMED = [
    ["2021-06-07", "12:00:00", "23:59:59", "A", "B"],  # five fields
    ["2021-13-07", "12:00:00", "23:59:59", "A", "B", "1"],  # bad date
    ["2021-06-07", "25:00:00", "23:59:59", "A", "B", "1"],  # bad start
    ["2021-06-07", "12:00:00", "23:60:00", "A", "B", "1"],  # bad end
    ["2021-06-07", "12:00:00", "23:59:59", "A", "B", "x"],  # bad count
    ["2021-06-07", "12:00:00", "23:59:59", "A", "B", "1.5"],
    ["2021-06-07", "12:00:00", "23:59:59", "A", "B", "-1"],
    ["2021-06-07", "12:00:00", "23:59:59", "A", "B", str(2**63)],
    ["2021-06-07", "12:00:00", "23:59:59", " ", "B", "1"],  # empty label
    ["2021-06-07", "02:00:00", "01:00:00", "A", "B", "1"],  # start after end
    ["2021-06-07", "12:00:00", "12:00:00", "A", "B", "1"],  # start at end
]

pad = st.sampled_from(PADS)


@st.composite
def padded(draw, texts):
    return draw(pad) + draw(st.sampled_from(texts)) + draw(pad)


@st.composite
def valid_row(draw):
    date, start, end = draw(st.sampled_from(TIMES))
    if draw(st.booleans()):  # pad the window fields too
        date, start, end = (draw(pad) + t + draw(pad) for t in (date, start, end))
    return [date, start, end, draw(padded(LABELS)), draw(padded(LABELS)), draw(padded(COUNTS))]


@st.composite
def any_row(draw):
    """A valid row four times in five, else a malformed or an empty one."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(MALFORMED))
    return [] if kind == 1 else draw(valid_row())


rows = st.lists(any_row(), max_size=20)


def outcome(parse, lines):
    """What ``parse`` makes of the rows: the exception's class and text, or
    ``(window, labels, cells)`` per snapshot."""
    try:
        parsed = parse(enumerate(lines, start=2), "in.csv")
    except ValueError as exc:
        return type(exc), str(exc), exc.line_no
    if parse is parse_rows:
        return [(m.window, m.labels, list(m.cells())) for m in parsed]
    return parsed


@settings(max_examples=400, deadline=None)
@given(rows)
@example([["2021-06-07", "1:00:00", "2:00:00", "A", "B", "0"],
          ["2021-06-07", "01:00:00", "02:00:00", "A", "B", "3"]])  # repeats a zero-count row
@example([["2021-06-07", "12:00:00", "23:59:59", "A", "B", "\x1c5 "],
          ["2021-06-07", "12:00:00", "23:59:59", "B", "A", " 6\x1f"]])  # int() alone rejects \x1c
@example([["2021-06-07", "12:00:00", "23:59:59", "A", "B", "1"],
          ["2021-06-07", "12:00:00", "23:59:59", "A", "B", "2"], MALFORMED[4]])
@example([["2021-06-07", "12:00:00", "23:59:59", "A", "B", "1"], MALFORMED[4],
          ["2021-06-07", "12:00:00", "23:59:59", "A", "B", "2"]])
@example([["2021-06-08", "00:00:00", "23:59:59", "B", "C", "1"],
          ["2021-06-07", "12:00:00", "23:59:59", "A", "B", "1"],
          ["2021-06-08", "00:00:00", "23:59:59", "A", "B", "1"],
          ["2021-06-07", "12:00:00", "23:59:59", "A", "B", "2"],
          ["2021-06-08", "00:00:00", "23:59:59", "B", "C", "2"]])  # interleaved windows
def test_parse_rows_matches_row_by_row_reference(lines):
    assert outcome(parse_rows, lines) == outcome(reference_parse_rows, lines)

