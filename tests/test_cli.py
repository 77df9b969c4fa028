"""Command-line interface: parsing, subcommands, exit codes, output."""

import json
import sys
from pathlib import Path

import pytest

from primalcount import cli
from primalcount.cli import main, parse_parametric, parse_polytope
from primalcount.errors import ParseError

SQUARE = "2 4\n1 0 1\n-1 0 0\n0 1 1\n0 -1 0\n"
SIMPLEX10 = "2 3\n-1 0 0\n0 -1 0\n1 1 10\n"
INTERVAL_FAMILY = "1 3 1\n-1 | 0 | 0\n2 | 1 | 6\n1 | 1 | 0\nQ:\n-1 | 0\n"
MIN_FAMILY = ("1 3 2\n-1 | 0 0 | 0\n1 | 1 0 | 0\n1 | 0 1 | 0\n"
              "Q:\n-1 0 | 0\n0 -1 | 0\n")
# apex (0, 0, 1) is vertex 2: its cone splits into 2 pieces and 8 leaves at L = 1
PYRAMID = "3 5\n0 0 -1 0\n1 0 1 1\n-1 0 1 1\n0 1 1 1\n0 -1 1 1\n"
# vertex 1, (0, 0, 77), has index 169 and splits 4 levels deep at L = 1
SKEW = "3 4\n-1 0 0 0\n0 -1 0 0\n0 0 -1 0\n7 11 13 1001\n"
GOLDEN = Path(__file__).parent / "golden"
SWEEP_FAMILY = Path(__file__).parent / "data" / "sweep_family.txt"
CROSS_FAMILY5 = Path(__file__).parent / "data" / "cross_family5.txt"
SWEEP_FAMILY_NOQ = Path(__file__).parent / "data" / "sweep_family_noq.txt"
CHAMBERS1178 = Path(__file__).parent / "data" / "chambers1178.txt"


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.txt"
    path.write_text(INTERVAL_FAMILY)
    return str(path)


class TestParsePolytope:
    def test_unit_square(self):
        P = parse_polytope(SQUARE)
        assert P.A == ((1, 0), (-1, 0), (0, 1), (0, -1))
        assert P.b == (1, 0, 1, 0)

    def test_pipes_and_blank_lines(self):
        P = parse_polytope("\n2 1\n\n 3 | -2 | 7 \n\n")
        assert P.A == ((3, -2),)
        assert P.b == (7,)

    def test_missing_row_position(self):
        with pytest.raises(ParseError) as info:
            parse_polytope("2 4\n1 0 1\n-1 0 0\n")
        assert info.value.line == 4

    def test_zero_dimension(self):
        with pytest.raises(ParseError, match="dimension must be positive"):
            parse_polytope("0 1\n1\n")

    def test_non_integer_token_position(self):
        with pytest.raises(ParseError) as info:
            parse_polytope("2 1\n1 x 3\n")
        assert (info.value.line, info.value.column) == (2, 3)

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="expected 3 integers"):
            parse_polytope("2 1\n1 0 1 5\n")

    def test_extra_line(self):
        with pytest.raises(ParseError, match="unexpected extra line"):
            parse_polytope("2 1\n1 0 1\n1 1 4\n")

    def test_zero_row_rejected(self):
        with pytest.raises(ParseError, match="zero constraint row"):
            parse_polytope("2 1\n0 0 1\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="missing header"):
            parse_polytope("")


class TestParseParametric:
    def test_interval_family(self):
        pp = parse_parametric(INTERVAL_FAMILY)
        assert pp.A == ((-1,), (2,), (1,))
        assert pp.E == ((0,), (1,), (1,))
        assert pp.f == (0, 6, 0)
        assert pp.qset.rows == (((-1,), 0, False),)

    def test_q_block_optional(self):
        pp = parse_parametric("1 1 1\n1 | 1 | 0\n")
        assert pp.qset.rows == ()

    def test_q_marker_must_stand_alone(self):
        with pytest.raises(ParseError, match="expected 'Q:'"):
            parse_parametric("1 1 1\n1 | 1 | 0\n-1 0\n")

    def test_parameter_row_arity(self):
        with pytest.raises(ParseError, match="expected 3 integers"):
            parse_parametric(MIN_FAMILY.replace("-1 0 | 0", "-1 | 0"))

    def test_header_needs_three_fields(self):
        with pytest.raises(ParseError, match="expected 3 integers"):
            parse_parametric("1 3\n")

    def test_zero_parameter_row_rejected(self):
        # 0 <= 0 used to empty every chamber, so pcount printed 0 for 4
        with pytest.raises(ParseError, match="zero parameter row") as info:
            parse_parametric(INTERVAL_FAMILY + "  0 | 0\n")
        assert (info.value.line, info.value.column) == (7, 3)
        with pytest.raises(ParseError, match="zero parameter row") as info:
            parse_parametric(MIN_FAMILY.replace("0 -1 | 0", "0 0 | 5"))
        assert (info.value.line, info.value.column) == (7, 1)


class TestDigitLimit:
    def test_long_integers_parse_under_the_default_limit(self):
        # cli.main lifts the process-wide limit, so set the default one
        # here: called as library functions, the parsers must read
        # integers of any length without changing it
        digits = "1" + "0" * 4998 + "7"
        bound = 10 ** 4999 + 7
        limited = hasattr(sys, "set_int_max_str_digits")
        old = sys.get_int_max_str_digits() if limited else None
        try:
            if limited:
                sys.set_int_max_str_digits(4300)
            P = parse_polytope(f"1 2\n-1 0\n1 +{digits}\n")
            pp = parse_parametric(f"1 2 1\n-1 | 0 | -{digits}\n1 | 1 | 0\n")
            with pytest.raises(ParseError, match="not an integer") as info:
                parse_polytope(f"1 1\n1 {digits}x\n")
            limit = sys.get_int_max_str_digits() if limited else None
        finally:
            if limited:
                sys.set_int_max_str_digits(old)
        assert limit in (None, 4300)
        assert P.b == (0, bound)
        assert pp.f == (-bound, 0)
        assert (info.value.line, info.value.column) == (2, 3)


class TestExitCodes:
    def test_count_success(self, square_file, capsys):
        assert main(["count", square_file]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_usage_error_unknown_flag(self, square_file, capsys):
        assert main(["count", square_file, "--bogus"]) == 1

    def test_usage_error_no_command(self, capsys):
        assert main([]) == 1

    def test_missing_file(self, capsys):
        assert main(["count", "/nonexistent/file.txt"]) == 1

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 oops 3\n")
        assert main(["count", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_semantic_error_unbounded(self, tmp_path, capsys):
        path = tmp_path / "ray.txt"
        path.write_text("2 2\n-1 0 0\n0 -1 0\n")
        assert main(["count", str(path)]) == 3
        assert "error" in capsys.readouterr().err

    def test_semantic_error_lower_dimensional(self, tmp_path, capsys):
        # the line x = 0 in the plane: lower-dimensional before unbounded
        path = tmp_path / "line.txt"
        path.write_text("2 2\n1 0 0\n-1 0 0\n")
        assert main(["count", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: polyhedron not full-dimensional\n"

    @pytest.mark.parametrize("command", [["chambers"], ["pcount", "--at", "3"]])
    def test_zero_parameter_row_is_a_parse_error(self, command, tmp_path, capsys):
        path = tmp_path / "family.txt"
        path.write_text(INTERVAL_FAMILY + "0 | 0\n")
        assert main([command[0], str(path)] + command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 7, col 1: zero parameter row\n"

    def test_one_parser_gives_the_same_bytes(self, square_file, capsys,
                                             monkeypatch):
        # the parser is built once per process; a parse that succeeded
        # or failed before must not change what the next call prints
        built = []
        fresh = cli.build_parser

        def build_parser():
            built.append(1)
            return fresh()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", build_parser)
        runs = []
        for argv in (["count", square_file, "--bogus"],
                     ["count", square_file, "--json"]) * 2:
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[2:] == runs[:2]
        assert runs[0][0] == 1 and runs[0][1] == "" and "--bogus" in runs[0][2]
        assert runs[1][0] == 0 and json.loads(runs[1][1])["count"] == "4"
        assert len(built) == 1

    def test_max_index_validation(self, square_file):
        assert main(["count", square_file, "--max-index", "0"]) == 1

    def test_negative_oracle_cap_is_a_usage_error(self, square_file, capsys):
        # No box fits under a negative cap: count --verify used to print
        # the count first and then fail the oracle with exit 3.
        for argv in (["count", square_file, "--verify"],
                     ["pcount", str(SWEEP_FAMILY), "--at", "1,1", "--verify"],
                     ["oracle", square_file]):
            assert main([*argv, "--oracle-cap", "-1"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --oracle-cap must be at least 0\n"

    def test_non_utf8_input_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\xff\xfe2 4\n")
        assert main(["count", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: line 1, col 1: "
                                "input is not valid UTF-8\n")


class TestCount:
    def test_simplex(self, tmp_path, capsys):
        path = tmp_path / "simplex.txt"
        path.write_text(SIMPLEX10)
        assert main(["count", str(path)]) == 0
        assert capsys.readouterr().out == "66\n"

    def test_verify_agrees(self, tmp_path, capsys):
        path = tmp_path / "simplex.txt"
        path.write_text(SIMPLEX10)
        assert main(["count", str(path), "--verify"]) == 0
        assert capsys.readouterr().out == "66\n"

    def test_json_envelope(self, square_file, capsys):
        assert main(["count", square_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == "4"
        assert payload["num_vertices"] == "4"
        assert int(payload["num_cones"]) >= 4
        assert payload["max_depth"] == "0"

    def test_max_index_invariance(self, tmp_path, capsys):
        path = tmp_path / "skew.txt"
        path.write_text("2 3\n-1 0 0\n1 -3 0\n1 2 10\n")
        outputs = set()
        for level in ("1", "10", "100"):
            assert main(["count", str(path), "--max-index", level]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_deterministic_output(self, square_file, capsys):
        main(["count", square_file, "--json"])
        first = capsys.readouterr().out
        main(["count", square_file, "--json"])
        assert capsys.readouterr().out == first


class TestPcount:
    def test_paper_values(self, family_file, capsys):
        for q, want in [(0, 1), (6, 7), (8, 8), (12, 10)]:
            assert main(["pcount", family_file, "--at", str(q)]) == 0
            assert capsys.readouterr().out == f"{want}\n"

    def test_rational_at(self, family_file, capsys):
        assert main(["pcount", family_file, "--at", "13/2"]) == 0
        assert capsys.readouterr().out == "7\n"

    def test_at_required(self, family_file, capsys):
        assert main(["pcount", family_file]) == 1

    def test_at_arity_checked(self, family_file, capsys):
        assert main(["pcount", family_file, "--at", "1,2"]) == 1

    @pytest.mark.parametrize("value", ["-1/2", "-1,2", "-3"])
    def test_negative_at_in_both_spellings(self, value, family_file, capsys):
        results = []
        for argv in (["--at", value], [f"--at={value}"]):
            code = main(["pcount", family_file] + argv)
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]
        assert results[0] == ((0, "0\n") if value != "-1,2" else (1, ""))

    def test_outside_note(self, family_file, capsys):
        assert main(["pcount", family_file, "--at", "-3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0\n"
        assert "no chamber" in captured.err

    def test_verify(self, family_file, capsys):
        for q in ("0", "5", "6", "9/2", "11"):
            assert main(["pcount", family_file, "--at", q, "--verify"]) == 0

    def test_json_envelope(self, family_file, capsys):
        assert main(["pcount", family_file, "--at", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == "4"
        assert payload["num_vertices"] == "2"

    def test_two_parameters(self, tmp_path, capsys):
        path = tmp_path / "min.txt"
        path.write_text(MIN_FAMILY)
        assert main(["pcount", str(path), "--at", "3,5"]) == 0
        assert capsys.readouterr().out == "4\n"


    def test_count_past_the_int_string_limit(self, tmp_path, capsys):
        # x1 <= q, x1 >= 0 and 0 <= x2 <= 3: 4 (q + 1) points, printed in
        # full however many digits it has
        path = tmp_path / "box.txt"
        path.write_text("2 4 1\n1 0 | 1 | 0\n-1 0 | 0 | 0\n0 1 | 0 | 3\n"
                        "0 -1 | 0 | 0\nQ:\n-1 | 0\n")
        assert main(["pcount", str(path), "--at", "1e5000"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (f"{4 * (10 ** 5000 + 1)}\n", "")

    def test_bound_past_the_int_string_limit_parses(self, tmp_path, capsys):
        bound = 10 ** 4999 + 7
        path = tmp_path / "segment.txt"
        path.write_text(f"1 2\n-1 0\n1 {bound}\n")
        assert main(["count", str(path)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (f"{bound + 1}\n", "")


class TestPcountSweepFamily:
    @pytest.mark.parametrize("at,count", [("7,9", "20"), ("13/2,4", "8"),
                                          ("12,12", "52")])
    def test_verify(self, at, count, capsys):
        assert main(["pcount", str(SWEEP_FAMILY), "--at", at, "--verify"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (count + "\n", "")


class TestChambers:
    def test_text_listing(self, family_file, capsys):
        assert main(["chambers", family_file]) == 0
        out = capsys.readouterr().out
        assert "vertices 3" in out
        assert "chambers 2" in out
        assert "q1 < 6" in out

    def test_json_structure(self, family_file, capsys):
        assert main(["chambers", family_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        for chamber in payload:
            assert set(chamber) == {"region", "vertices"}
            assert len(chamber["vertices"]) == 2
            for row in chamber["region"]:
                assert set(row) == {"normal", "rhs", "strict"}
        strict_flags = [row["strict"] for ch in payload
                        for row in ch["region"]]
        assert any(strict_flags) and not all(strict_flags)

    def test_verify(self, family_file, capsys):
        assert main(["chambers", family_file, "--verify"]) == 0

    def test_verify_two_parameters(self, tmp_path, capsys):
        path = tmp_path / "min.txt"
        path.write_text(MIN_FAMILY)
        assert main(["chambers", str(path), "--verify", "--seed", "7"]) == 0

    @pytest.mark.parametrize("max_index", ["1", "5"])
    def test_verify_sweep_family(self, max_index, capsys):
        # Compiled and activities routes side by side; at --max-index 5
        # leaves of index up to 5 have nontrivial residue classes.
        assert main(["chambers", str(SWEEP_FAMILY), "--verify",
                     "--max-index", max_index]) == 0
        assert capsys.readouterr().err == ""

    def test_deterministic(self, family_file, capsys):
        main(["chambers", family_file, "--json"])
        first = capsys.readouterr().out
        main(["chambers", family_file, "--json"])
        assert capsys.readouterr().out == first


class TestDecompose:
    def test_json_shape(self, square_file, capsys):
        assert main(["decompose", square_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        for term in payload:
            assert set(term) == {"sign", "apex", "rays", "sigma"}
            assert term["sign"] in {"1", "-1"}

    def test_nontrivial_index_with_verify(self, tmp_path, capsys):
        path = tmp_path / "skew.txt"
        path.write_text("2 3\n-1 0 0\n1 -3 0\n1 2 10\n")
        assert main(["decompose", str(path), "--vertex", "1",
                     "--verify", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 1

    def test_vertex_out_of_range(self, square_file, capsys):
        assert main(["decompose", square_file, "--vertex", "9"]) == 3

    def test_empty_polytope(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("2 2\n1 0 -1\n-1 0 0\n")
        assert main(["decompose", str(path)]) == 3


class TestOracle:
    def test_count(self, square_file, capsys):
        assert main(["oracle", square_file]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_verify_against_pipeline(self, tmp_path, capsys):
        path = tmp_path / "simplex.txt"
        path.write_text(SIMPLEX10)
        assert main(["oracle", str(path), "--verify"]) == 0

    def test_cap(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("2 4\n1 0 1000\n-1 0 1000\n0 1 1000\n0 -1 1000\n")
        assert main(["oracle", str(path), "--oracle-cap", "100"]) == 3

    def test_no_rows_is_unbounded(self, tmp_path, capsys):
        path = tmp_path / "plane.txt"
        path.write_text("2 0\n")
        assert main(["oracle", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: polyhedron unbounded\n"

    def test_json(self, square_file, capsys):
        assert main(["oracle", square_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"count": "4"}


class TestGolden:
    """Byte-exact stdout of fixed commands; the files under golden/ hold it."""

    CASES = [
        ("square_count_json", ["count", "square.txt", "--json"]),
        ("family_pcount_at_8", ["pcount", "family.txt", "--at", "8"]),
        ("family_chambers", ["chambers", "family.txt"]),
        ("pyramid_decompose_vertex2_L1",
         ["decompose", "pyramid.txt", "--vertex", "2", "--max-index", "1"]),
        ("pyramid_decompose_vertex2_L3",
         ["decompose", "pyramid.txt", "--vertex", "2", "--max-index", "3"]),
        ("pyramid_count_json", ["count", "pyramid.txt", "--json"]),
        ("skew_decompose_vertex1_L1",
         ["decompose", "skew.txt", "--vertex", "1", "--max-index", "1"]),
        ("skew_count_json", ["count", "skew.txt", "--json"]),
        ("sweep_family_chambers", ["chambers", "sweep_family.txt"]),
        ("sweep_family_chambers_json", ["chambers", "sweep_family.txt", "--json"]),
        ("cross_family5_chambers", ["chambers", "cross_family5.txt"]),
        ("sweep_family_noq_chambers", ["chambers", "sweep_family_noq.txt"]),
        ("chambers1178_chambers", ["chambers", "chambers1178.txt"]),
    ]

    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_stdout_bytes(self, name, argv, tmp_path, monkeypatch, capsys):
        for file_name, text in (("square.txt", SQUARE),
                                ("family.txt", INTERVAL_FAMILY),
                                ("pyramid.txt", PYRAMID),
                                ("skew.txt", SKEW),
                                ("sweep_family.txt", SWEEP_FAMILY.read_text()),
                                ("cross_family5.txt", CROSS_FAMILY5.read_text()),
                                ("sweep_family_noq.txt", SWEEP_FAMILY_NOQ.read_text()),
                                ("chambers1178.txt", CHAMBERS1178.read_text())):
            (tmp_path / file_name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        captured = capsys.readouterr()
        expected = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
        assert captured.out == expected
        assert captured.err == ""
