import json
import subprocess
import sys

import pytest

from oracles import make_model
from somlogic import load_map, load_model, parse_kb_text, save_model
from somlogic.cli import main

DATA = """\
f0,f1,label
0.0,0.1,X
0.2,0.0,X
0.1,0.3,X
0.3,0.2,X
0.0,0.2,X
0.2,0.3,X
4.0,4.1,Y
4.2,4.0,Y
4.1,4.3,Y
4.3,4.2,Y
4.0,4.2,Y
4.2,4.3,Y
"""

SMALL = ["--rows", "3", "--cols", "3", "--epochs", "2", "--seed", "7"]


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATA, encoding="utf-8")
    return str(path)


def train_and_extract(tmp_path, data_csv):
    out = tmp_path / "run"
    assert main(["train", "--data", data_csv, "--out", str(out)] + SMALL) == 0
    code = main([
        "extract", "--map", str(out / "map.json"), "--data", data_csv,
        "--out", str(out),
    ])
    assert code == 0
    return out


def test_train_writes_map_and_qe_log(tmp_path, data_csv, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", data_csv, "--out", str(out)] + SMALL) == 0
    assert (out / "map.json").exists()
    lines = (out / "qe_log.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,quantization_error"
    assert len(lines) == 2 + 2  # header + epoch 0 + one row per epoch
    qes = [float(l.split(",")[1]) for l in lines[1:]]
    assert qes[-1] < qes[0]
    assert "quantization error" in capsys.readouterr().out


def test_train_is_deterministic(tmp_path, data_csv):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["train", "--data", data_csv, "--out", str(out)] + SMALL) == 0
    assert (a / "map.json").read_bytes() == (b / "map.json").read_bytes()
    assert (a / "qe_log.csv").read_bytes() == (b / "qe_log.csv").read_bytes()


def test_extract_writes_model_kb_specificity(tmp_path, data_csv, capsys):
    out = train_and_extract(tmp_path, data_csv)
    model = load_model(str(out / "model.json"))
    assert set(model.categories) == {"X", "Y"}
    kb = parse_kb_text((out / "kb.txt").read_text())
    assert kb  # comments strip, the rest reparses
    spec = json.loads((out / "specificity.json").read_text())
    assert spec == {"pairs": []}
    assert "KB has" in capsys.readouterr().out


def test_extract_with_probes(tmp_path, data_csv):
    probes = tmp_path / "probes.csv"
    probes.write_text("2.0,2.0\n0.1,0.1\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", data_csv, "--out", str(out)] + SMALL) == 0
    code = main([
        "extract", "--map", str(out / "map.json"), "--data", data_csv,
        "--probes", str(probes), "--out", str(out),
    ])
    assert code == 0
    model = load_model(str(out / "model.json"))
    assert sum(1 for e in model.elements if e.origin == "probe") == 2


def test_check_holds_and_fails(tmp_path, data_csv, capsys):
    out = train_and_extract(tmp_path, data_csv)
    capsys.readouterr()
    model_arg = ["--model", str(out / "model.json")]
    assert main(["check"] + model_arg + ["--query", "T(X) <= X"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True and doc["method"] == "bmu_rd_bound"

    assert main(["check"] + model_arg + ["--query", "T(X) <= Y"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is False


def test_check_compound_query(tmp_path, data_csv, capsys):
    out = train_and_extract(tmp_path, data_csv)
    capsys.readouterr()
    model_arg = ["--model", str(out / "model.json")]
    # the clusters are far apart, so their extensions do not meet
    assert main(["check"] + model_arg + ["--query", "X & Y <= Bot"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "set_inclusion"
    # both clusters contribute globally minimal elements, so the typical
    # part of Top is not contained in either category alone
    assert main(["check"] + model_arg + ["--query", "T(Top) <= X"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "global_typicality" and doc["holds"] is False


def test_check_parse_error(tmp_path, data_csv, capsys):
    out = train_and_extract(tmp_path, data_csv)
    code = main(["check", "--model", str(out / "model.json"), "--query", "T(X) <="])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_check_unknown_category(tmp_path, data_csv, capsys):
    out = train_and_extract(tmp_path, data_csv)
    code = main(["check", "--model", str(out / "model.json"), "--query", "T(Qq) <= X"])
    assert code == 1
    assert "Qq" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["check", "--model", str(tmp_path / "nope.json"), "--query", "T(X) <= X"]) == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", "--model", str(bad), "--query", "T(X) <= X"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_input_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "model.json"
    bad_json.write_bytes(b"\xff")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"0.0,0.1,X\n0.2,0.\xff,X\n")
    for argv in (
        ["verify", "--model", str(bad_json)],
        ["train", "--data", str(bad_csv), "--out", str(tmp_path / "run")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_malformed_csv_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.1,X\n0.2,oops,X\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", str(bad), "--out", str(out)] + SMALL) == 1
    assert "line 2" in capsys.readouterr().err


def test_verify_passes_on_trained_model(tmp_path, data_csv, capsys):
    out = train_and_extract(tmp_path, data_csv)
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = main(["verify", "--model", str(out / "model.json"), "--out", str(report)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = {c["check"] for c in doc}
    assert {"irreflexivity", "transitivity", "well_foundedness"} <= names
    assert {"reflexivity", "right_weakening", "and", "cautious_monotonicity"} <= names
    assert all(c["status"] == "pass" for c in doc if c["required"])
    assert json.loads(report.read_text()) == doc


def _cyclic_model():
    rd = {
        "A": {"x": 0.0, "y": 0.5, "z": 0.0, "sA": 1.0, "sB": 1.0, "sC": 1.0},
        "B": {"x": 0.0, "y": 0.0, "z": 0.5, "sA": 1.0, "sB": 1.0, "sC": 1.0},
        "C": {"x": 0.5, "y": 0.0, "z": 0.0, "sA": 1.0, "sB": 1.0, "sC": 1.0},
    }
    stim = {"A": ["x", "sA"], "B": ["y", "sB"], "C": ["z", "sC"]}
    bmu = {"A": ("x",), "B": ("y",), "C": ("z",)}
    return make_model(rd, stim, bmu_elements=bmu)


def test_cyclic_specificity_exit_3(tmp_path, capsys):
    path = tmp_path / "cyclic.json"
    save_model(str(path), _cyclic_model())
    assert main(["verify", "--model", str(path)]) == 3
    assert "cyclic" in capsys.readouterr().err
    # compound queries also need the specificity relation
    assert main(["check", "--model", str(path), "--query", "A & B <= Bot"]) == 3


def _edit_rd_to_list(doc):
    cat = doc["categories"]["X"]
    cat["rd"] = list(cat["rd"].values())


def _edit_empty_category(doc):
    cat = doc["categories"]["X"]
    cat["rd"] = {eid: -1.0 for eid in cat["rd"]}
    cat["stimulus_elements"] = cat["bmu_elements"] = cat["bmu_units"] = []


def _edit_empty_extension(doc):
    doc["extensions"]["X"] = []


@pytest.mark.parametrize(
    "edit", [_edit_rd_to_list, _edit_empty_category, _edit_empty_extension]
)
def test_broken_snapshot_exit_1(tmp_path, data_csv, capsys, edit):
    out = train_and_extract(tmp_path, data_csv)
    path = out / "model.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["train"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "somlogic" in capsys.readouterr().out


def test_trace_matches_train(tmp_path, data_csv):
    train_out = tmp_path / "train"
    trace_out = tmp_path / "trace"
    assert main(["train", "--data", data_csv, "--out", str(train_out)] + SMALL) == 0
    assert main(["trace", "--data", data_csv, "--out", str(trace_out)] + SMALL) == 0
    assert (train_out / "map.json").read_bytes() == (trace_out / "map.json").read_bytes()
    lines = (trace_out / "trace.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2 * 12  # epochs * stimuli
    for line in lines:
        json.loads(line)
    model = load_model(str(trace_out / "model.json"))
    som = load_map(str(trace_out / "map.json"))
    assert som.epochs_trained == 2
    assert set(model.categories) == {"X", "Y"}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "somlogic", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "somlogic" in proc.stdout
