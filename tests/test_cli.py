import json

import pytest

from circledyn.cli import main

TRIANGLE_TAIL = {"vertices": ["u", "v", "w", "p"], "edges": [["u", "v"], ["v", "w"], ["w", "u"], ["u", "p"]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPeriods:
    def test_m_set_emission(self, capsys):
        code, out, _ = run(capsys, "periods", "--c", "1/2", "--d", "7/10")
        assert code == 0
        data = json.loads(out)
        assert data["finite"] == [3] and data["tail_from"] == 5


class TestFamily:
    def test_green_verify_exit_zero(self, capsys):
        code, out, _ = run(capsys, "family", "dream", "--n", "3", "--verify", "--digits", "9")
        assert code == 0
        data = json.loads(out)
        assert data["all_green"] and data["rot_ok"]

    def test_build_without_verify(self, capsys):
        code, out, _ = run(capsys, "family", "persistent", "--n", "5")
        assert code == 0
        data = json.loads(out)
        assert data["classes"] == 12

    def test_bad_parameter_exit_one(self, capsys):
        code, _, err = run(capsys, "family", "dream", "--n", "1", "--verify")
        assert code == 1 and "error" in err

    def test_strict_red_fixture_exit_two(self, capsys):
        # montevideo n=3: literal bc = 6 above the stated bound 4; strict
        # mode turns the documented failure into a red report
        code, out, _ = run(
            capsys, "family", "montevideo", "--n", "3", "--verify", "--digits", "9", "--strict"
        )
        assert code == 2
        data = json.loads(out)
        assert data["theorem_bound_flags"]["bc_upper_bound"] is False
        assert data["all_green"] and not data["strict_green"]

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "family", "montevideo", "--n", "3", "--verify", "--digits", "9")
        _, out2, _ = run(capsys, "family", "montevideo", "--n", "3", "--verify", "--digits", "9")
        assert out1 == out2


class TestScan:
    def test_csv_columns(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "dream", "--from", "3", "--to", "12", "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,rot_c,rot_d,len_rot,entropy_lo,entropy_hi,sbc,bc,flags"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "3" and first[3] == "1/5"
        # len column is 1/(2n-1)
        for row in lines[1:]:
            cells = row.split(",")
            n = int(cells[0])
            assert cells[3] == f"1/{2 * n - 1}"

    def test_svg_emitted(self, capsys, tmp_path):
        svg = tmp_path / "plot.svg"
        code, _, _ = run(
            capsys,
            "scan",
            "persistent",
            "--from",
            "5",
            "--to",
            "9",
            "--out",
            str(tmp_path / "s.csv"),
            "--svg",
            str(svg),
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_svg_emitted_with_json(self, capsys, tmp_path):
        svg = tmp_path / "plot.svg"
        argv = ("scan", "dream", "--from", "3", "--to", "5", "--json")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--svg", str(svg))
        assert code == 0 and out == plain
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "argv",
        [("dream", "--from", "10", "--to", "5"), ("persistent", "--from", "4", "--to", "4")],
    )
    def test_empty_range_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "scan", *argv)
        assert code == 1 and out == "" and "error" in err


class TestBeta:
    def test_beta_agreement(self, capsys):
        code, out, _ = run(capsys, "beta", "--c", "1/2", "--d", "7/10", "--tol", "1/100000000")
        assert code == 0
        data = json.loads(out)
        assert data["method_agreement"]


class TestExtend:
    def test_extend_roundtrip(self, capsys, tmp_path):
        gfile = tmp_path / "g.json"
        gfile.write_text(
            json.dumps(
                {
                    "vertices": ["u", "v", "w", "p"],
                    "edges": [["u", "v"], ["v", "w"], ["w", "u"], ["u", "p"]],
                }
            )
        )
        code, out, _ = run(capsys, "extend", "persistent", "--n", "7", "--graph", str(gfile))
        assert code == 0
        data = json.loads(out)
        assert data["poly_exact"] and data["m"] % 2 == 1 and data["m"] >= 5

    def test_extend_circle_fails_cleanly(self, capsys, tmp_path):
        gfile = tmp_path / "circle.json"
        gfile.write_text(
            json.dumps({"vertices": ["u", "v"], "edges": [["u", "v"], ["v", "u"]]})
        )
        code, _, err = run(capsys, "extend", "dream", "--n", "5", "--graph", str(gfile))
        assert code == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": ["u", "v"]},  # no edges
            [["u", "v"], ["v", "u"]],  # not an object
            {**TRIANGLE_TAIL, "excise": []},
            {**TRIANGLE_TAIL, "excise": {"circuit_edge_hint": 1.0}},
            {**TRIANGLE_TAIL, "excise": {"circuit_edge_hint": True}},
            {"vertices": "uvwp", "edges": ["uv", "vw", "wu", "up"]},  # strings, not lists
        ],
    )
    def test_malformed_graph_json_exits_one(self, capsys, tmp_path, doc):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(doc))
        code, out, err = run(capsys, "extend", "dream", "--n", "5", "--graph", str(gfile))
        assert code == 1 and out == ""
        assert err.startswith("error: graph JSON") and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({**TRIANGLE_TAIL, "vertices": ["u", "v", "w", "p", "p"]}, "graph vertex p is listed twice"),
            ({**TRIANGLE_TAIL, "edges": [["u", "v"], ["u"]]}, "graph edge 1 is not a pair of vertices"),
            ({**TRIANGLE_TAIL, "edges": [["u", "v", "x"]]}, "graph edge 0 is not a pair of vertices"),
        ],
    )
    def test_repeated_vertex_or_bad_edge_exits_one(self, capsys, tmp_path, doc, message):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(doc))
        code, out, err = run(capsys, "extend", "dream", "--n", "5", "--graph", str(gfile))
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestOracle:
    def test_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "oracle", "persistent", "--n", "7", "--max-period", "7")
        assert code == 0
        data = json.loads(out)
        assert data["matches_closed_form"]
        assert data["expected_periods"] == [2, 5, 7]


class TestUsage:
    def test_unknown_family_usage_error(self, capsys):
        code, _, _ = run(capsys, "family", "unknown", "--n", "3")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "dream", "--n", "3", "--verify", "--digits", "-1"),
            ("scan", "dream", "--from", "3", "--to", "4", "--digits", "-2"),
        ],
    )
    def test_negative_digits_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage:") and "--digits: digits must be >= 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("periods", "--c", "1/0", "--d", "1"),
            ("beta", "--d", "1/0"),
            ("beta", "--tol", "1/0"),
            ("beta", "--c", "0", "--d", "1", "--tol", "1/0"),
            ("periods", "--c", "1/2", "--d", "seven"),
        ],
    )
    def test_malformed_rational_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "error: argument" in err and "invalid rational" in err and "Traceback" not in err
