"""Dataset parsing, report rendering and the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import fuzzydepth.verification
from fuzzydepth import (
    MAX_N_ALPHA,
    AxiomVerdict,
    DepthConfig,
    OrderViolation,
    OutOfRange,
    ParseError,
    VerifyCase,
    depth_table,
    emit_dataset,
    emit_report,
    emit_svg,
    format_table,
    parse_dataset,
    records_frv,
    trees_like_records,
)
from fuzzydepth.cli import main
from fuzzydepth.verification import emit_rows_json, run_suite

TREES_CSV = emit_dataset(trees_like_records())


@pytest.fixture
def trees_path(tmp_path):
    path = tmp_path / "trees.csv"
    path.write_text(TREES_CSV, encoding="utf-8")
    return str(path)


class TestParseDataset:
    def test_round_trip(self):
        records = trees_like_records()
        assert parse_dataset(emit_dataset(records)) == records

    def test_header_row_required(self):
        with pytest.raises(ParseError) as err:
            parse_dataset("T1,0,1,2,3,4\n")
        assert err.value.line == 1

    def test_knot_order_with_line_number(self):
        text = "id,a,b,c,d,frequency\nT1,3,2,1,0,5\n"
        with pytest.raises(OrderViolation) as err:
            parse_dataset(text)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_dataset("id,a,b,c,d,frequency\nT1,0,1,2\n")
        assert err.value.line == 2

    def test_duplicate_id(self):
        text = "id,a,b,c,d,frequency\nT1,0,1,2,3,4\nT1,0,1,2,3,4\n"
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert err.value.line == 3

    def test_bad_knot_and_bad_frequency(self):
        with pytest.raises(ParseError):
            parse_dataset("id,a,b,c,d,frequency\nT1,0,x,2,3,4\n")
        with pytest.raises(ParseError):
            parse_dataset("id,a,b,c,d,frequency\nT1,0,1,2,3,4.5\n")
        with pytest.raises(ParseError):
            parse_dataset("id,a,b,c,d,frequency\nT1,0,1,2,3,-1\n")

    def test_empty_and_header_only(self):
        with pytest.raises(ParseError):
            parse_dataset("")
        with pytest.raises(ParseError):
            parse_dataset("id,a,b,c,d,frequency\n")

    def test_blank_lines_are_skipped(self):
        text = "id,a,b,c,d,frequency\n\nT1,0,1,2,3,4\n\n"
        assert len(parse_dataset(text)) == 1

    def test_records_frv_zero_frequency_stays_a_query(self):
        text = "id,a,b,c,d,frequency\nT1,0,1,2,3,4\nT2,5,6,7,8,0\n"
        x, queries, ids = records_frv(parse_dataset(text))
        assert x.size == 1
        assert len(queries) == 2
        assert ids == ["T1", "T2"]


class TestReports:
    @pytest.fixture
    def report(self):
        x, queries, ids = records_frv(trees_like_records())
        return depth_table(x, queries=queries, config=DepthConfig(method="projection"), ids=ids)

    def test_csv_shape(self, report):
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == "id,depth,rank"
        assert len(lines) == 10
        _, depth, _ = lines[5].split(",")
        assert depth == "1.000000"

    def test_json_payload(self, report):
        data = json.loads(emit_report(report, "json"))
        assert data["method"] == "projection"
        assert len(data["results"]) == 9
        by_id = {row["id"]: row for row in data["results"]}
        assert by_id["T5"]["depth"] == 1.0
        assert by_id["T5"]["rank"] == 1.0

    def test_unknown_format(self, report):
        with pytest.raises(OutOfRange):
            emit_report(report, "yaml")

    def test_table_stars_the_deepest_row(self, report):
        lines = format_table(report).splitlines()
        starred = [l for l in lines if l.endswith("*")]
        assert len(starred) == 1
        assert starred[0].startswith("T5")

    def test_svg_structure(self, report):
        records = trees_like_records()
        svg = emit_svg(records, report)
        root = ET.fromstring(svg)
        polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == len(records)
        strokes = [p.get("stroke") for p in polylines]
        assert strokes[4] == "#ff0000"  # deepest is pure red
        assert strokes[3] == strokes[5]  # exact depth tie shares a color
        red, blue = int(strokes[-1][1:3], 16), int(strokes[-1][5:7], 16)
        assert blue > red  # shallowest rows shade toward blue

    def test_svg_single_record_is_red(self, report):
        records = trees_like_records()[:1]
        x, queries, ids = records_frv(records)
        solo = depth_table(x, queries=queries, config=DepthConfig(method="projection"), ids=ids)
        svg = emit_svg(records, solo)
        assert 'stroke="#ff0000"' in svg

    def test_svg_record_mismatch(self, report):
        with pytest.raises(OutOfRange):
            emit_svg(trees_like_records()[:3], report)


class TestCliDepth:
    def test_table_output(self, trees_path, capsys):
        assert main(["depth", "--input", trees_path, "--method", "projection"]) == 0
        out = capsys.readouterr().out
        assert "T5" in out and "*" in out

    def test_csv_output_is_deterministic(self, trees_path, capsys):
        runs = []
        for _ in range(2):
            assert (
                main(
                    [
                        "depth",
                        "--input",
                        trees_path,
                        "--method",
                        "natural",
                        "--r",
                        "2",
                        "--format",
                        "csv",
                    ]
                )
                == 0
            )
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert runs[0].splitlines()[0] == "id,depth,rank"

    def test_json_output(self, trees_path, capsys):
        code = main(
            [
                "depth",
                "--input",
                trees_path,
                "--method",
                "location-raised",
                "--r",
                "2",
                "--theta",
                "1",
                "--format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "location_raised"
        assert data["theta"] == 1.0

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code = main(["depth", "--input", str(tmp_path / "nope.csv"), "--method", "projection"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_rows_report_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,b,c,d,frequency\nT1,3,2,1,0,5\n", encoding="utf-8")
        assert main(["depth", "--input", str(path), "--method", "projection"]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["natural", "projection"])
    def test_non_finite_knot_is_a_data_error(self, tmp_path, capsys, method):
        path = tmp_path / "inf.csv"
        path.write_text("id,a,b,c,d,frequency\nT1,0,1,2,3,5\nT2,0,1,2,inf,5\n", encoding="utf-8")
        assert main(["depth", "--input", str(path), "--method", method]) == 1
        captured = capsys.readouterr()
        assert "line 3" in captured.err
        assert captured.out == ""

    def test_unknown_method_is_a_usage_error(self, trees_path):
        with pytest.raises(SystemExit) as exc:
            main(["depth", "--input", trees_path, "--method", "tukey"])
        assert exc.value.code == 2

    def test_location_requires_theta(self, trees_path):
        with pytest.raises(SystemExit) as exc:
            main(["depth", "--input", trees_path, "--method", "location"])
        assert exc.value.code == 2

    def test_natural_rejects_theta(self, trees_path):
        with pytest.raises(SystemExit) as exc:
            main(["depth", "--input", trees_path, "--method", "natural", "--theta", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("theta", ["-1", "nan", "inf"])
    def test_bad_theta_is_a_data_error(self, trees_path, capsys, theta):
        argv = ["depth", "--input", trees_path, "--method", "location", "--r", "2"]
        assert main([*argv, "--theta", theta]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_invalid_utf8_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,a,b,c,d,frequency\nT\xff,0,1,2,3,5\n")
        assert main(["depth", "--input", str(path), "--method", "projection"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("size", ["0", "-3", "ten", "10001", "100000000"])
    def test_bad_alpha_grid_is_a_usage_error(self, trees_path, capsys, size):
        with pytest.raises(SystemExit) as exc:
            main(["depth", "--input", trees_path, "--method", "projection", "--alpha-grid", size])
        assert exc.value.code == 2
        assert "--alpha-grid" in capsys.readouterr().err

    def test_alpha_grid_at_its_bound_runs(self, trees_path, capsys):
        args = ["depth", "--input", trees_path, "--method", "projection", "--format", "csv"]
        assert main(args + ["--alpha-grid", str(MAX_N_ALPHA)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10

    def test_bad_r_is_a_data_error(self, trees_path, capsys):
        assert main(["depth", "--input", trees_path, "--method", "natural", "--r", "0.5"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["natural", "natural-raised"])
    def test_overflowing_r_is_a_data_error(self, tmp_path, capsys, method):
        path = tmp_path / "three.csv"
        path.write_text(
            "id,a,b,c,d,frequency\nT1,0,1,2,3,1\nT2,1,2,3,5,2\nT3,4,5,6,9,1\n", encoding="utf-8"
        )
        assert main(["depth", "--input", str(path), "--method", method, "--r", "1e6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err


class TestCliPlot:
    def test_writes_svg(self, trees_path, tmp_path, capsys):
        out = tmp_path / "trees.svg"
        code = main(
            ["plot", "--input", trees_path, "--method", "projection", "--output", str(out)]
        )
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        root = ET.fromstring(out.read_text(encoding="utf-8"))
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 9


class TestCliVerify:
    def test_full_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "verdicts as expected" in out
        assert "[UNEXPECTED]" not in out

    def test_suite_filter_and_seed(self, capsys):
        assert main(["verify", "--suite", "p2", "--seed", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line.startswith("[ok]") for line in out[:-1])
        assert out[-1].endswith("verdicts as expected")

    def test_json_holds_every_case_with_its_witness(self, capsys):
        assert main(["verify", "--format", "json", "--seed", "2"]) == 0
        cases = json.loads(capsys.readouterr().out)
        rows, _ = run_suite(seed=2)
        assert [c["name"] for c in cases] == [case.name for case, _, _ in rows]
        for c, (case, verdict, _) in zip(cases, rows):
            assert set(c) == {"name", "suite", "expected", "matched"} | set(verdict.to_dict())
            assert c["matched"] is True
            assert (c["suite"], c["expected"]) == (case.suite, case.expected)
            assert c["status"] == verdict.status
        assert any(c["status"] == "fail" and c["witness"] for c in cases)

    def test_json_is_byte_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["verify", "--format", "json", "--seed", "4"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] == json.dumps(json.loads(outputs[0]), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_unexpected_verdict_exits_one(self, monkeypatch, capsys, fmt):
        build_cases = fuzzydepth.verification.build_cases

        def flipped():
            cases = build_cases()
            flip = {"pass": "fail", "fail": "pass"}.get(cases[0].expected, "pass")
            return [dataclasses.replace(cases[0], expected=flip)] + cases[1:]

        monkeypatch.setattr(fuzzydepth.verification, "build_cases", flipped)
        assert main(["verify", "--suite", "p1"] + fmt) == 1
        out = capsys.readouterr().out
        if fmt:
            cases = json.loads(out)
            assert [c["matched"] for c in cases] == [False] + [True] * (len(cases) - 1)
        else:
            assert out.startswith("[UNEXPECTED]")

    def test_json_converts_numpy_values(self):
        verdict = AxiomVerdict(
            "P2",
            "fail",
            1e-9,
            witness={
                "probe": np.int64(3),
                "depth": np.float64(0.25),
                "flag": np.bool_(True),
                "profile": np.array([[0.5, 1.0]]),
            },
        )
        case = VerifyCase("demo", "p2", "fail", None)
        (doc,) = json.loads(emit_rows_json([(case, verdict, True)]))
        assert doc["witness"] == {"probe": 3, "depth": 0.25, "flag": True, "profile": [[0.5, 1.0]]}


def test_cold_start_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import fuzzydepth, fuzzydepth.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout == "[]\n"
