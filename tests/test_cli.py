"""Command-line surface: subcommands, flags, exit codes, artifacts."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from microfarm import bench, cli
from microfarm.models import dataset_from_soils, fit, save_model
from microfarm.ratings import generate_dataset
from test_models import MALFORMED, UNREADABLE, write_malformed

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv):
    return cli.main([str(a) for a in argv])


def _err_line(capsys):
    captured = capsys.readouterr()
    lines = [l for l in captured.err.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return lines[0]


def _model_file(tmp_path, kind="Linear", m=40):
    soils, truth = generate_dataset(m, seed=1)
    model = fit(kind, dataset_from_soils(soils, truth), seed=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


def test_lora_sim_writes_result_and_prints_table(tmp_path, capsys):
    assert run("lora-sim", FIXTURES / "scenario1.json", "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "PRR" in out and "100 %" in out
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["devices"][0]["received"] == 100
    assert doc["events"]


def test_lora_sim_no_events_flag(tmp_path):
    assert run("lora-sim", FIXTURES / "scenario1.json", "--out", tmp_path, "--no-events") == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert "events" not in doc or not doc["events"]


def test_lora_sim_missing_config_fails(tmp_path, capsys):
    assert run("lora-sim", tmp_path / "nope.json", "--out", tmp_path) != 0
    _err_line(capsys)


def test_lora_sim_config_nested_too_deeply_fails(tmp_path, capsys):
    path, out = tmp_path / "nested.json", tmp_path / "out"
    path.write_bytes(UNREADABLE["nested 200000 deep"])
    assert run("lora-sim", path, "--out", out) == 2
    assert f"scenario config {path} nests too deeply" in _err_line(capsys)
    assert list(out.iterdir()) == []


def test_lora_sim_bad_config_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"devices": [], "radio": {"spreading_factor": 99}}', encoding="utf-8")
    assert run("lora-sim", bad, "--out", tmp_path) != 0
    assert "spreading_factor" in _err_line(capsys)


# (path into scenario2.json, key, hostile value); None wraps the document in a list
HOSTILE_SCENARIOS = {
    "top-level list": None,
    "fractional packet_count": (("devices", 0), "packet_count", 2.5),
    "bool payload_len": (("devices", 0), "payload_len", True),
    "string seed": ((), "seed", "abc"),
    "infinite cad_max_backoff_ms": ((), "cad_max_backoff_ms", float("inf")),
    "nan send_interval_ms": (("devices", 1), "send_interval_ms", float("nan")),
    "nan link profile": (("devices", 0, "link_profile"), "mean_snr", float("nan")),
    "fractional spreading_factor": (("radio",), "spreading_factor", 7.5),
    "fractional coding_rate_denominator": (("radio",), "coding_rate_denominator", 5.5),
    "fractional preamble_symbols": (("radio",), "preamble_symbols", 2.5),
    "string explicit_header": (("radio",), "explicit_header", "no"),
    "integer crc_enabled": (("radio",), "crc_enabled", 1),
    "start_offset_ms past 2**40 ms": (("devices", 1), "start_offset_ms", 1e20),
    "cad_recheck_interval_ms below one ulp": ((), "cad_recheck_interval_ms", 1e-300),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_SCENARIOS))
def test_lora_sim_rejects_hostile_scenario(case, tmp_path, capsys):
    doc = json.loads((FIXTURES / "scenario2.json").read_text(encoding="utf-8"))
    if HOSTILE_SCENARIOS[case] is None:
        doc, key = [doc], "JSON object"
    else:
        where, key, value = HOSTILE_SCENARIOS[case]
        target = doc
        for step in where:
            target = target[step]
        target[key] = value
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run("lora-sim", path, "--out", tmp_path) == 2
    assert key in _err_line(capsys)
    assert not (tmp_path / "result.json").exists()


def test_gen_data_writes_three_csvs(tmp_path):
    assert run("gen-data", "--num-soils", 30, "--sparsity", 0.2, "--seed", 3, "--out", tmp_path) == 0
    soils = (tmp_path / "soils.csv").read_text().splitlines()
    truth = (tmp_path / "truth.csv").read_text().splitlines()
    sparse = (tmp_path / "sparse.csv").read_text().splitlines()
    assert soils[0] == "n_ppm,p_ppm,k_ppm,temp_c,ph"
    assert len(soils) == 31 and len(truth) == 31 and len(sparse) == 31
    assert truth[0].count("plant_") == 15


def test_gen_data_zero_sparsity_matches_truth(tmp_path):
    assert run("gen-data", "--num-soils", 20, "--sparsity", 0, "--out", tmp_path) == 0
    assert (tmp_path / "sparse.csv").read_bytes() == (tmp_path / "truth.csv").read_bytes()


def test_gen_data_identical_for_same_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("gen-data", "--num-soils", 25, "--seed", 9, "--out", out) == 0
    for name in ("soils.csv", "truth.csv", "sparse.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_data_unsatisfiable_sparsity_fails(tmp_path, capsys):
    assert run("gen-data", "--num-soils", 1, "--sparsity", 0.99, "--out", tmp_path) != 0
    _err_line(capsys)


def test_gen_data_refuses_more_soils_than_it_can_hold(tmp_path, capsys):
    # refused before anything is allocated or written
    assert run("gen-data", "--num-soils", 10**12, "--out", tmp_path) == 2
    assert "num_soils must be in 1..100000" in _err_line(capsys)
    assert not list(tmp_path.iterdir())


def test_complete_round_trip_and_report(tmp_path):
    assert run("gen-data", "--num-soils", 40, "--sparsity", 0.3, "--seed", 2, "--out", tmp_path) == 0
    assert (
        run(
            "complete", tmp_path / "sparse.csv", "-k", 7,
            "--truth", tmp_path / "truth.csv", "--out", tmp_path,
        )
        == 0
    )
    full = (tmp_path / "full.csv").read_text().splitlines()
    assert len(full) == 41
    assert "" not in full[1].split(",")
    report = json.loads((tmp_path / "completion_report.json").read_text())
    assert report["k"] == 7
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["sparsity"] == pytest.approx(0.3, abs=0.01)


def test_complete_k_beyond_the_row_count_keeps_every_rater(tmp_path):
    data = tmp_path / "data"
    assert run("gen-data", "--num-soils", 30, "--sparsity", 0.4, "--out", data) == 0
    full = {}
    for k in (30, 10**20):  # 10**20 overflows int64
        assert run("complete", data / "sparse.csv", "-k", k, "--out", tmp_path / str(k)) == 0
        full[k] = (tmp_path / str(k) / "full.csv").read_bytes()
    assert full[10**20] == full[30]


@pytest.mark.parametrize("cell", ["99999999999999999999", "abc"])
@pytest.mark.parametrize("name", ["sparse.csv", "truth.csv"])
def test_complete_unparsable_cell_names_file_and_row(name, cell, tmp_path, capsys):
    assert run("gen-data", "--num-soils", 5, "--sparsity", 0.2, "--out", tmp_path) == 0
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[3] = ",".join([cell] + lines[3].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    argv = ("complete", tmp_path / "sparse.csv", "--truth", tmp_path / "truth.csv")
    assert run(*argv, "--out", tmp_path) == 2
    line = _err_line(capsys)
    assert f"{path}: data row 3 is not all int64: {cell}," in line


@pytest.mark.parametrize(
    "edit, error",
    [("cell", "data row 3 is not all int64: abc,"), ("row", "differ in shape: 4x15 and 5x15")],
)
def test_complete_refused_for_its_truth_writes_nothing(edit, error, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    assert run("gen-data", "--num-soils", 5, "--sparsity", 0.2, "--out", data) == 0
    truth = data / "truth.csv"
    lines = truth.read_text().splitlines()
    if edit == "cell":
        lines[3] = "abc" + lines[3][1:]  # in place of a one-digit rating
    else:
        lines.pop()
    truth.write_text("\n".join(lines) + "\n")
    assert run("complete", data / "sparse.csv", "--truth", truth, "--out", out) == 2
    assert error in _err_line(capsys)
    assert not (out / "full.csv").exists()
    assert not (out / "completion_report.json").exists()


@pytest.mark.parametrize(
    "row, error",
    [("40,50,60", "ragged rows"), ("40,50,x,21,6.5", "data row 2 is not all float64: 40,50,x,")],
)
def test_recommend_bad_soils_csv_names_the_file(row, error, tmp_path, capsys):
    path = tmp_path / "soils.csv"
    path.write_text(f"n_ppm,p_ppm,k_ppm,temp_c,ph\n40,50,60,21,6.5\n{row}\n", encoding="utf-8")
    argv = ("recommend", _model_file(tmp_path), "--soils-csv", path, "--out", tmp_path)
    assert run(*argv) == 2
    assert f"{path}: {error}" in _err_line(capsys)


def test_complete_on_full_input_echoes_it(tmp_path):
    assert run("gen-data", "--num-soils", 10, "--sparsity", 0, "--out", tmp_path) == 0
    assert run("complete", tmp_path / "sparse.csv", "--out", tmp_path) == 0
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "truth.csv").read_bytes()


def test_complete_malformed_csv_fails(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("plant_0,plant_1\n1,notanumber\n", encoding="utf-8")
    assert run("complete", bad, "--out", tmp_path) != 0
    _err_line(capsys)


def test_bench_writes_reports(tmp_path):
    assert (
        run("bench", "--sizes", "100,200", "--kinds", "KNN,Linear", "--seed", 4, "--out", tmp_path)
        == 0
    )
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert rows[0] == "kind,size,accuracy,mse,train_ms,infer_ms"
    assert len(rows) == 5  # header + 2 kinds x 2 sizes
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["seed"] == 4 and len(doc["rows"]) == 4
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[0] == "kind,size,accuracy,mse"


def test_bench_curve_deterministic_for_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("bench", "--sizes", "100", "--kinds", "KNN,DecisionTree",
                   "--seed", 6, "--out", out, "--quiet") == 0
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()


def test_bench_unknown_kind_lists_valid_ones(tmp_path, capsys):
    assert run("bench", "--kinds", "KNN,XGB", "--sizes", "100", "--out", tmp_path) != 0
    line = _err_line(capsys)
    assert "XGB" in line
    for kind in ("KNN", "Linear", "DecisionTree", "RandomForest", "GradientBoost"):
        assert kind in line


def test_bench_bad_sizes_fails(tmp_path, capsys):
    assert run("bench", "--sizes", "100,abc", "--out", tmp_path) != 0
    _err_line(capsys)


@pytest.mark.parametrize("sizes", ["500,0", "100,4", "100000,100001"])
def test_bench_refuses_a_bad_size_before_fitting(sizes, tmp_path, capsys):
    out = tmp_path / "b"
    with mock.patch.object(bench, "fit", side_effect=AssertionError("fit called")) as fit_calls:
        assert run("bench", "--sizes", sizes, "--out", out) == 2
    assert fit_calls.call_count == 0
    assert sizes.split(",")[1] in _err_line(capsys)
    assert not out.exists() or not any(out.iterdir())


def test_recommend_table_json_and_log(tmp_path, capsys):
    model = _model_file(tmp_path)
    out = tmp_path / "r"
    assert run("recommend", model, "--soil", 40, 50, 60, 21, 6.5, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "plant_" in stdout
    doc = json.loads((out / "recommendation.json").read_text())
    assert doc["n"] == 3 and len(doc["ranking"]) == 3
    assert doc["ranking"][0]["rank"] == 1
    scores = [r["score"] for r in doc["ranking"]]
    assert scores == sorted(scores, reverse=True)
    # the log accumulates one line per invocation
    assert run("recommend", model, "--soil", 40, 50, 60, 21, 6.5, "--out", out) == 0
    log = [l for l in (out / "recommendations.jsonl").read_text().splitlines() if l]
    assert len(log) == 2
    assert json.loads(log[0]) == json.loads(log[1])


def test_recommend_from_soils_csv_row(tmp_path):
    model = _model_file(tmp_path)
    assert run("gen-data", "--num-soils", 8, "--out", tmp_path) == 0
    assert (
        run("recommend", model, "--soils-csv", tmp_path / "soils.csv", "--row", 5,
            "-n", 15, "--out", tmp_path)
        == 0
    )
    doc = json.loads((tmp_path / "recommendation.json").read_text())
    assert sorted(r["plant"] for r in doc["ranking"]) == list(range(15))


def test_recommend_rejects_bad_soil_naming_field(tmp_path, capsys):
    model = _model_file(tmp_path)
    assert run("recommend", model, "--soil", 40, 50, 60, 21, 16.0, "--out", tmp_path) != 0
    assert "ph" in _err_line(capsys)


def test_recommend_rejects_oversized_n(tmp_path, capsys):
    model = _model_file(tmp_path)
    assert run("recommend", model, "--soil", 40, 50, 60, 21, 6.5, "-n", 16,
               "--out", tmp_path) != 0
    assert "n must be in 1..15" in _err_line(capsys)


@pytest.mark.parametrize("name", MALFORMED)
def test_recommend_malformed_model_fails(name, tmp_path, capsys):
    path = write_malformed(tmp_path, name)
    assert run("recommend", path, "--soil", 40, 50, 60, 21, 6.5, "--out", tmp_path) == 2
    assert MALFORMED[name][1] in _err_line(capsys)


@pytest.mark.parametrize("name", UNREADABLE)
def test_recommend_unreadable_model_names_the_file(name, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(UNREADABLE[name])
    assert run("recommend", path, "--soil", 40, 50, 60, 21, 6.5, "--out", tmp_path) == 2
    assert f"malformed model file {path}: " in _err_line(capsys)


@pytest.mark.parametrize("value", ("nan", "inf"))
def test_recommend_rejects_non_finite_soil(value, tmp_path, capsys):
    model = _model_file(tmp_path)
    assert run("recommend", model, "--soil", 1, 2, 3, value, 6, "--out", tmp_path) != 0
    assert "temp_c must be finite" in _err_line(capsys)
    assert not (tmp_path / "recommendation.json").exists()


def test_recommend_bad_row_fails(tmp_path, capsys):
    model = _model_file(tmp_path)
    assert run("gen-data", "--num-soils", 4, "--out", tmp_path) == 0
    assert run("recommend", model, "--soils-csv", tmp_path / "soils.csv", "--row", 4,
               "--out", tmp_path) != 0
    assert "--row" in _err_line(capsys)


def test_recommend_identical_runs_identical_ranking(tmp_path):
    model = _model_file(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("recommend", model, "--soil", 12, 80, 110, 19, 4.2, "--out", out) == 0
    assert (a / "recommendation.json").read_bytes() == (b / "recommendation.json").read_bytes()


def _tree(root):
    return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


def test_pipeline_demo_refuses_to_rerun_into_the_same_out(tmp_path, capsys):
    assert run("pipeline-demo", "--retrain-period", 5, "--quiet", "--out", tmp_path) == 0
    before = _tree(tmp_path)
    assert run("pipeline-demo", "--retrain-period", 5, "--quiet", "--out", tmp_path) == 2
    assert str(tmp_path / "edge") in _err_line(capsys)
    assert _tree(tmp_path) == before


def test_pipeline_demo_refuses_an_out_holding_a_cloud_log(tmp_path, capsys):
    (tmp_path / "cloud.jsonl").write_text("", encoding="utf-8")
    assert run("pipeline-demo", "--quiet", "--out", tmp_path) == 2
    assert str(tmp_path / "cloud.jsonl") in _err_line(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["cloud.jsonl"]


def test_pipeline_demo_refuses_a_retrain_period_beyond_the_corpus_cap(tmp_path, capsys):
    assert run("pipeline-demo", "--retrain-period", 100_001, "--quiet", "--out", tmp_path) == 2
    assert "retrain_period" in _err_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_quiet_suppresses_stdout(tmp_path, capsys):
    assert run("gen-data", "--num-soils", 10, "--quiet", "--out", tmp_path) == 0
    assert capsys.readouterr().out == ""
    assert run("--quiet", "lora-sim", FIXTURES / "scenario1.json", "--out", tmp_path) == 0
    assert capsys.readouterr().out == ""


def test_global_flags_accepted_before_subcommand(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("--seed", 8, "--out", a, "gen-data", "--num-soils", 12) == 0
    assert run("gen-data", "--num-soils", 12, "--seed", 8, "--out", b) == 0
    assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()


def test_unknown_subcommand_exits_with_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run("harvest")
    assert exc.value.code == 2
    _err_line(capsys)


def test_missing_required_argument_exits_with_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run("recommend", "model.json")  # no soil source
    assert exc.value.code == 2
    _err_line(capsys)
