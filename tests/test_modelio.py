"""Plain-text model format: round-trips and malformed-input rejection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sysmor import (
    ParseError,
    StateSpace,
    format_model,
    read_model,
    read_raw_matrices,
    write_model,
)
from sysmor.modelio import parse_model, parse_raw_matrices
from sysmor.statespace import static_gain
from oracles import mass_chain, random_stable

MAX = np.finfo(float).max
# Bound on the traced peak of parsing a malformed text: its lines, one
# line's tokens and values, and a few kB of exception and array headers.
PEAK_PER_CHAR, PEAK_BASE = 8, 4096
# Every finite float, with the edges of the text format drawn often.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, MAX, -MAX]
)


@st.composite
def models(draw):
    n = draw(st.integers(0, 6))
    q, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return StateSpace(*(
        draw(hnp.arrays(float, shape, elements=FINITE))
        for shape in ((n, n), (n, q), (p, n), (p, q))
    ))


@st.composite
def malformed_texts(draw):
    """A model's text with one header dimension replaced by another value
    up to 1e7, or with its trailing lines dropped."""
    lines = format_model(draw(models())).splitlines()
    if draw(st.booleans()):
        header = lines[0].split()
        at, value = draw(st.integers(1, 3)), draw(st.integers(0, 10**7))
        assume(int(header[at]) != value)
        header[at] = str(value)
        lines[0] = " ".join(header)
    else:
        lines = lines[: -draw(st.integers(1, len(lines) - 1))]
    return "\n".join(lines) + "\n"


def _bits(sys):
    return [np.ascontiguousarray(M).tobytes() for M in (sys.A, sys.B, sys.C, sys.D)]


class TestRoundTrip:
    def test_values_bit_identical(self):
        rng = np.random.default_rng(91)
        sys = random_stable(rng, n=5, q=2, p=3, feedthrough=True)
        back = parse_model(format_model(sys))
        np.testing.assert_array_equal(back.A, sys.A)
        np.testing.assert_array_equal(back.B, sys.B)
        np.testing.assert_array_equal(back.C, sys.C)
        np.testing.assert_array_equal(back.D, sys.D)

    def test_text_fixed_point(self):
        rng = np.random.default_rng(92)
        sys = random_stable(rng, n=4, q=1, p=1)
        text = format_model(sys)
        assert format_model(parse_model(text)) == text

    def test_static_gain_round_trip(self):
        sys = static_gain([[1.5, -2.25], [0.0, 3.125]])
        text = format_model(sys)
        assert text.splitlines()[0] == "ss 0 2 2"
        # A, B, C have a zero dimension and contribute no lines.
        assert len(text.splitlines()) == 3
        back = parse_model(text)
        assert back.n == 0
        np.testing.assert_array_equal(back.D, sys.D)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(93)
        sys = random_stable(rng, n=3, q=2, p=2, feedthrough=True)
        path = tmp_path / "model.ss"
        write_model(sys, path)
        back = read_model(path)
        np.testing.assert_array_equal(back.A, sys.A)
        np.testing.assert_array_equal(back.D, sys.D)

    @given(sys=models())
    @settings(
        max_examples=60, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_finite_model_round_trips(self, sys, tmp_path):
        path = tmp_path / "model.ss"
        write_model(sys, path)
        back = read_model(path)
        assert _bits(back) == _bits(sys)
        text = path.read_text()
        assert format_model(parse_model(text)) == text

    def test_parse_holds_one_line_of_tokens(self):
        # All n^2 values as Python floats would cost 4 x A's bytes (32
        # bytes a value); a line-at-a-time decode holds A, the lines of the
        # text and one line of tokens (about 2.4 x).
        io = (0, 75, 149)
        sys = mass_chain(0, 150, inputs=io, outputs=io)
        text = format_model(sys)
        tracemalloc.start()
        try:
            back = parse_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _bits(back) == _bits(sys)
        assert peak < 3.5 * sys.A.nbytes

    def test_header_counts(self):
        rng = np.random.default_rng(94)
        sys = random_stable(rng, n=4, q=3, p=2)
        lines = format_model(sys).splitlines()
        assert lines[0] == "ss 4 3 2"
        # 4 rows of A, 4 of B, 2 of C, 2 of D.
        assert len(lines) == 1 + 4 + 4 + 2 + 2

    def test_blank_lines_ignored(self):
        text = "ss 1 1 1\n\n-1\n\n1\n1\n\n0\n\n"
        sys = parse_model(text)
        assert sys.A[0, 0] == -1.0


class TestParseErrors:
    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_model("")

    def test_bad_header_tag(self):
        with pytest.raises(ParseError, match="header"):
            parse_model("tf 1 1 1\n-1\n1\n1\n0\n")

    def test_bad_header_arity(self):
        with pytest.raises(ParseError, match="header"):
            parse_model("ss 1 1\n")

    def test_non_integer_dimension(self):
        with pytest.raises(ParseError, match="integer"):
            parse_model("ss one 1 1\n")

    def test_zero_inputs_rejected(self):
        with pytest.raises(ParseError, match="dimensions"):
            parse_model("ss 1 0 1\n-1\n1\n")

    def test_negative_dimension_rejected(self):
        with pytest.raises(ParseError, match="dimensions"):
            parse_model("ss -1 1 1\n0\n")

    def test_truncated_file(self):
        with pytest.raises(ParseError, match="ends inside"):
            parse_model("ss 2 1 1\n-1 0\n0 -2\n1\n")

    def test_trailing_lines(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_model("ss 1 1 1\n-1\n1\n1\n0\n99\n")

    def test_wrong_row_width(self):
        with pytest.raises(ParseError, match="entries"):
            parse_model("ss 2 1 1\n-1 0 0\n0 -2\n1\n1\n1 0\n0\n")

    def test_bad_token(self):
        with pytest.raises(ParseError, match="bad number"):
            parse_model("ss 1 1 1\n-1\nx\n1\n0\n")

    def test_nan_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_model("ss 1 1 1\n-1\nnan\n1\n0\n")

    def test_infinity_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_model("ss 1 1 1\n-1\n1\ninf\n0\n")

    @pytest.mark.parametrize("where", ["A", "B", "C", "D", "raw matrix dump"])
    @pytest.mark.parametrize(
        "token, problem",
        [
            ("1.2.3", "bad number"),
            ("0x10", "bad number"),
            ("nan", "non-finite value"),
            ("-inf", "non-finite value"),
            ("1e999", "non-finite value"),
        ],
    )
    def test_offending_token_is_named(self, token, problem, where):
        # ss 2 1 1 with the token first in the last row of ``where``
        rows = {"A": ["-1 0", "0 -2"], "B": ["1", "1"], "C": ["1 0"], "D": ["0"]}
        with pytest.raises(ParseError) as info:
            if where == "raw matrix dump":
                parse_raw_matrices(f"-1 0 0 -2 1 {token} 1 0 0", 2, 1, 1)
            else:
                rows[where][-1] = token + rows[where][-1][1:]
                parse_model("ss 2 1 1\n" + "\n".join(sum(rows.values(), [])))
        assert str(info.value) == f"{problem} {token!r} in {where}"

    @pytest.mark.parametrize(
        "text, message",
        [
            # a bad token in A is met before a short row of C
            ("ss 2 1 1\n-1 x\n0 -2\n1\n1\n1\n0\n", "bad number 'x' in A"),
            # B's rows are counted before they are read
            ("ss 2 1 1\n-1 0\n0 -2\nnan\n", "file ends inside matrix B"),
        ],
    )
    def test_first_of_two_errors_is_reported(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_model(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ss 1000000 1 1\n-1\n", "file ends inside matrix A"),
            ("ss 1 1000000000000 1\n-1\n1\n1\n0\n",
             "row 1 of B has 1 entries, expected 1000000000000"),
        ],
    )
    def test_header_dimension_is_checked_before_it_allocates(self, text, message):
        # the header's A or B would be terabytes; the text holds one value
        with pytest.raises(ParseError) as info:
            parse_model(text)
        assert str(info.value) == message

    @given(text=malformed_texts())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_malformed_text_raises_parse_error_in_bounded_memory(self, text):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                parse_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_PER_CHAR * len(text) + PEAK_BASE

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_model(tmp_path / "absent.ss")


class TestRawMatrices:
    def test_round_trip(self):
        rng = np.random.default_rng(95)
        sys = random_stable(rng, n=3, q=2, p=2, feedthrough=True)
        dump = " ".join(
            str(v)
            for M in (sys.A, sys.B, sys.C, sys.D)
            for v in M.ravel()
        )
        back = parse_raw_matrices(dump, 3, 2, 2)
        np.testing.assert_allclose(back.A, sys.A, rtol=1e-15)
        np.testing.assert_allclose(back.D, sys.D, rtol=1e-15)

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="expected"):
            parse_raw_matrices("1 2 3", 1, 1, 1)

    def test_static_dump(self):
        back = parse_raw_matrices("2.5 -1", 0, 2, 1)
        assert back.n == 0
        np.testing.assert_array_equal(back.D, [[2.5, -1.0]])

    def test_bad_dimensions(self):
        with pytest.raises(ParseError):
            parse_raw_matrices("", 1, 0, 1)

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "plant.raw"
        path.write_text("-1 0\n0 -2\n1 1\n1 0 0\n")
        back = read_raw_matrices(path, 2, 1, 1)
        np.testing.assert_array_equal(back.A, [[-1.0, 0.0], [0.0, -2.0]])
        np.testing.assert_array_equal(back.C, [[1.0, 0.0]])
        with pytest.raises(ParseError, match="cannot read"):
            read_raw_matrices(tmp_path / "absent.raw", 2, 1, 1)

    def test_parse_holds_one_slice_of_tokens(self):
        # The 3 x 3 chain of 150 masses: all n^2 tokens as one list of str
        # held 8.9 x A's bytes; decoding a bounded slice of tokens at a
        # time holds the values twice (the slices, then A) and one slice.
        m = 150
        sys = mass_chain(
            0, m, inputs=(0, m // 3, 2 * m // 3),
            outputs=(m // 3 - 1, 2 * m // 3 - 1, m - 1),
        )
        dump = " ".join(
            repr(float(v)) for M in (sys.A, sys.B, sys.C, sys.D) for v in M.ravel()
        )
        tracemalloc.start()
        try:
            back = parse_raw_matrices(dump, sys.n, sys.q, sys.p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _bits(back) == _bits(sys)
        assert peak < 3.5 * sys.A.nbytes

    @pytest.mark.parametrize("at", [0, 5000])
    def test_first_bad_token_of_a_long_dump_is_named(self, at):
        # The offender at ``at``, in the first slice of tokens or a later
        # one, is named ahead of a later one and of the count of values
        # (9,001 of the 10,000 that n=90 q=10 p=10 need).
        tokens = ["0"] * 9001
        tokens[at], tokens[-1] = "x", "nan"
        with pytest.raises(ParseError) as info:
            parse_raw_matrices(" ".join(tokens), 90, 10, 10)
        assert str(info.value) == "bad number 'x' in raw matrix dump"
