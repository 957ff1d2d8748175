"""Plain-text model format: round-trips and malformed-input rejection."""

import numpy as np
import pytest

from sysmor import (
    ParseError,
    format_model,
    parse_model,
    parse_raw_matrices,
    read_model,
    static_gain,
    write_model,
)
from oracles import random_stable


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
