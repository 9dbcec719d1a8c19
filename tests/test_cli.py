import argparse
import json
import resource
import subprocess
import sys
import types

import pytest

from oracles import entails, make_model, old_format, parse_kb_text, two_way_override_model
from somlogic import cli, preferences, revision
from somlogic import (
    Bot,
    CheckReport,
    Inclusion,
    Name,
    Top,
    build_preferential,
    default_concept_pool,
    derive_specificity,
    inclusion_text,
    load_map,
    load_model,
    save_model,
)
from somlogic.jsonio import canonical_dumps
from somlogic.cli import main
from somlogic.model import SemanticModel, model_snapshot

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


def test_check_matches_full_order_route(tmp_path, nested_model, capsys):
    # Every non-name-to-name query over the nested model prints what the
    # full global preference answers, byte for byte, with its exit code.
    path = tmp_path / "nested.json"
    save_model(str(path), nested_model)
    model = load_model(str(path))
    rel = derive_specificity(model)
    assert rel.pairs
    pref = build_preferential(model, rel)
    names = list(model.category_names)
    rhs_side = [Name(n) for n in names] + [Top(), Bot()]
    exits = set()
    for lhs in default_concept_pool(names):
        for rhs in rhs_side:
            if isinstance(lhs, Name) and isinstance(rhs, Name):
                continue  # answered by the pairwise criteria
            for kind in ("strict", "defeasible"):
                query = Inclusion(kind, lhs, rhs)
                holds = entails(pref, kind, lhs, rhs)
                method = "global_typicality" if kind == "defeasible" else "set_inclusion"
                want = canonical_dumps(CheckReport(query, holds, method).to_json()) + "\n"
                code = main(["check", "--model", str(path), "--query", inclusion_text(query)])
                assert (code, capsys.readouterr().out) == (0 if holds else 4, want)
                exits.add(code)
    assert exits == {0, 4}
    # Here a defeasible answer is not the strict one, so reading ext(lhs)
    # in place of its minima would not pass the loop above.
    assert entails(pref, "defeasible", Top(), Name("S"))
    assert not entails(pref, "strict", Top(), Name("S"))


def test_check_and_verify_never_build_the_element_records(tmp_path, nested_model, monkeypatch, capsys):
    # With SemanticModel.elements raising, each command prints and exits as
    # it does with the records intact: no path reads them.
    path = str(tmp_path / "nested.json")
    save_model(path, nested_model)
    commands = [
        ["verify", "--model", path],
        ["check", "--model", path, "--query", "S <= G"],  # name to name
        ["check", "--model", path, "--query", "S & G <= Bot"],  # strict, not names
        ["check", "--model", path, "--query", "T(Top) <= S"],  # defeasible, not names
    ]

    def run_all():
        return [(main(argv), capsys.readouterr().out) for argv in commands]

    want = run_all()
    assert [code for code, _out in want] == [0, 0, 4, 0]

    def refuse(_model):
        raise AssertionError("SemanticModel.elements was read")

    monkeypatch.setattr(SemanticModel, "elements", property(refuse))
    with pytest.raises(AssertionError):
        load_model(path).elements
    assert run_all() == want


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


@pytest.mark.parametrize("template", ["{} <= Bot", "T({}) <= X", "T(X) <= {}"])
def test_check_answers_a_long_conjunction_as_its_two_name_form(tmp_path, data_csv, capsys, template):
    out = train_and_extract(tmp_path, data_csv)
    capsys.readouterr()
    answers = []
    for conjuncts in (2, 5000):
        query = template.format(" & ".join(["X", "Y"] * (conjuncts // 2)))
        code = main(["check", "--model", str(out / "model.json"), "--query", query])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 4) and doc["inclusion"] == query
        answers.append((code, doc["holds"], doc["method"]))
    assert answers[0] == answers[1]


def test_check_refuses_parentheses_nested_too_deep(tmp_path, data_csv, capsys):
    out = train_and_extract(tmp_path, data_csv)
    capsys.readouterr()
    query = "(" * 2000 + "X" + ")" * 2000 + " <= Y"
    assert main(["check", "--model", str(out / "model.json"), "--query", query]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parentheses nested deeper than") and "position" in err


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


def _run_on_snapshot(tmp_path, data_csv, kind, text, capsys):
    """Exit code and stderr of ``check --model`` (kind "model") or
    ``extract --map`` (kind "map") on a file holding ``text``."""
    path = tmp_path / f"edited-{kind}.json"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    if kind == "model":
        code = main(["check", "--model", str(path), "--query", "T(X) <= X"])
    else:
        code = main(["extract", "--map", str(path), "--data", data_csv,
                     "--out", str(tmp_path / "extracted")])
    return code, capsys.readouterr().err


def _snapshot_text(tmp_path, data_csv, kind, edit):
    """The text of a small run's model.json or map.json after ``edit``
    sets one value to the string "@@", with that string written as a bare
    JSON literal; ``edit(doc, value)`` returns nothing."""
    out = train_and_extract(tmp_path, data_csv)
    doc = json.loads((out / f"{kind}.json").read_text(encoding="utf-8"))
    edit(doc, "@@")
    return json.dumps(doc)


_FIRST_NUMBER = {
    "model": lambda doc, v: doc["features"].__setitem__(0, v),
    "map": lambda doc, v: doc["units"][0]["weights"].__setitem__(0, v),
}
_FIRST_VECTOR = {
    "model": lambda doc, v: doc.update(features=v),
    "map": lambda doc, v: doc["units"][0].update(weights=v),
}


@pytest.mark.parametrize("kind", ["model", "map"])
@pytest.mark.parametrize("text", [
    pytest.param("[" * 100_000, id="100 000 unclosed"),
    pytest.param("[" * 200_000 + "]" * 200_000, id="200 000 closed"),
])
def test_deeply_nested_snapshot_exits_without_a_traceback(tmp_path, data_csv, kind, text):
    # json.load raised RecursionError out of main on both; orjson alone
    # overflows the C stack past about 130 000 nested arrays and kills the
    # process, so each runs in a child.
    path = tmp_path / f"{kind}.json"
    path.write_text(text, encoding="utf-8")
    if kind == "model":
        argv = ["check", "--model", str(path), "--query", "T(A) <= A"]
    else:
        argv = ["extract", "--map", str(path), "--data", data_csv, "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-m", "somlogic", *argv], capture_output=True, text=True)
    assert proc.returncode in (1, 2), proc.returncode
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", ["model", "map"])
def test_deeply_nested_value_exit_1(tmp_path, data_csv, capsys, kind):
    # Within the reader's depth limit but too deep for repr: the loader's
    # error message reprs the value.
    text = _snapshot_text(tmp_path, data_csv, kind, _FIRST_VECTOR[kind])
    code, err = _run_on_snapshot(tmp_path, data_csv, kind,
                                 text.replace('"@@"', "[" * 5000 + "]" * 5000), capsys)
    assert code == 1
    assert err.startswith(f"error: malformed {kind} snapshot: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["model", "map"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_number_literal_exit_2(tmp_path, data_csv, capsys, kind, literal):
    # json.load read these as nan and inf, which the model's re-derivation
    # or the map's finite check refused with exit 1; orjson refuses them.
    text = _snapshot_text(tmp_path, data_csv, kind, _FIRST_NUMBER[kind])
    code, err = _run_on_snapshot(tmp_path, data_csv, kind, text.replace('"@@"', literal), capsys)
    assert code == 2
    assert err.startswith("error: invalid JSON input: ")


@pytest.mark.parametrize("kind, edit, message", [
    ("model", lambda doc: doc["categories"]["X"]["bmu_units"].append(2**64 + 5),
     "category 'X': bmu_units must be a list of integers, got ["),
    ("map", lambda doc: doc.update(seed=2**64 + 5),
     "seed must be an integer, got 1.8446744073709552e+19"),
])
def test_integer_past_uint64_exit_1(tmp_path, data_csv, capsys, kind, edit, message):
    # json.load read it as an int, and both files loaded (exit 0); orjson
    # reads it as a float, which an integer field refuses.
    out = train_and_extract(tmp_path, data_csv)
    doc = json.loads((out / f"{kind}.json").read_text(encoding="utf-8"))
    edit(doc)
    code, err = _run_on_snapshot(tmp_path, data_csv, kind, json.dumps(doc), capsys)
    assert code == 1
    assert err.startswith(f"error: malformed {kind} snapshot: ") and message in err
    assert "1.8446744073709552e+19" in err


def test_lone_surrogate_exit_2(tmp_path, data_csv, capsys):
    # An element id made a lone surrogate escape wherever it occurs: json.load
    # read it and the model loaded (exit 0); orjson refuses the escape.
    out = train_and_extract(tmp_path, data_csv)
    text = (out / "model.json").read_text(encoding="utf-8")
    eid = json.loads(text)["elements"][0]["id"]
    code, err = _run_on_snapshot(tmp_path, data_csv, "model",
                                 text.replace(json.dumps(eid), '"\\ud800"'), capsys)
    assert code == 2
    assert err.startswith("error: invalid JSON input: ")


def test_malformed_csv_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.1,X\n0.2,oops,X\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", str(bad), "--out", str(out)] + SMALL) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_features_exit_1(tmp_path, data_csv, capsys):
    # Squared distances from 1e200 overflow float64: train and trace refuse
    # the data and write nothing, extract refuses it against a sane map,
    # and no numpy warning escapes on the way.
    big = tmp_path / "big.csv"
    big.write_text(DATA.replace("0.2,0.0,X", "1e200,0.0,X"), encoding="utf-8")
    for cmd in ("train", "trace"):
        out = tmp_path / cmd
        assert main([cmd, "--data", str(big), "--out", str(out)] + SMALL) == 1, cmd
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err, cmd
        assert not out.exists(), cmd
    run = tmp_path / "run"
    assert main(["train", "--data", data_csv, "--out", str(run)] + SMALL) == 0
    capsys.readouterr()
    code = main(["extract", "--map", str(run / "map.json"), "--data", str(big), "--out", str(run)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow" in err
    assert not (run / "model.json").exists()


@pytest.mark.parametrize("value, message", [
    # The initial weight band of 1e308 overflows; at 1e300 the band is
    # finite and the squared distances overflow.
    ("1e308", "the band the initial weights are drawn from overflows float64"),
    ("1e300", "squared distances between the stimuli and the map's weights overflow"),
])
def test_features_near_the_float64_limit_exit_1(tmp_path, capsys, value, message):
    big = tmp_path / "big.csv"
    big.write_text(f"{value},0.1,X\n-{value},0.2,X\n", encoding="utf-8")
    for cmd in ("train", "trace"):
        out = tmp_path / cmd
        assert main([cmd, "--data", str(big), "--out", str(out)] + SMALL) == 1, cmd
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.endswith("; rescale the features\n"), cmd
        assert not out.exists(), cmd


@pytest.mark.parametrize("options, message", [
    (["--seed", "-1"], "seed must be non-negative, got -1"),
    (["--rows", "3037000500", "--cols", "3037000500"],
     "a 3037000500x3037000500 map of 2 features has more weights than numpy can address"),
    (["--rows", "1000000000", "--cols", "1000000000"],
     "a 1000000000x1000000000 map of 2 features has more weights than numpy can address"),
])
def test_option_values_numpy_refuses_exit_1(tmp_path, data_csv, capsys, options, message):
    # Each ended in a numpy ValueError traceback; the sizes are refused
    # before anything is allocated.
    for cmd in ("train", "trace"):
        out = tmp_path / cmd
        assert main([cmd, "--data", data_csv, "--out", str(out)] + SMALL + options) == 1, cmd
        assert capsys.readouterr().err == f"error: {message}\n", cmd
        assert not out.exists(), cmd


def test_out_of_memory_exit_1(tmp_path, data_csv, capsys, monkeypatch):
    # A map that numpy can address but the machine cannot hold.
    def init_map(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "init_map", init_map)
    monkeypatch.setattr(revision, "init_map", init_map)
    for cmd in ("train", "trace"):
        assert main([cmd, "--data", data_csv, "--out", str(tmp_path / cmd)] + SMALL) == 1, cmd
        assert capsys.readouterr().err == "error: out of memory\n", cmd


def test_allocation_refused_by_the_address_space_limit_exit_1(tmp_path, data_csv):
    # A 20000x20000 map of 2 features needs 5.96 GiB of weights; the child
    # limits its own address space to 2 GB, so numpy's allocation fails
    # before any page is touched.  The test process keeps its limits.
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = ["train", "--data", data_csv, "--out", str(tmp_path / "big"),
            "--rows", "20000", "--cols", "20000", "--epochs", "1"]
    proc = subprocess.run([sys.executable, "-m", "somlogic", *argv], capture_output=True,
                          text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_seed_past_uint64_exit_1(tmp_path, data_csv, capsys):
    # map.json stored such a seed, and orjson read it back as a float, so
    # the map that train wrote was refused by extract.
    for cmd in ("train", "trace"):
        out = tmp_path / cmd
        assert main([cmd, "--data", data_csv, "--out", str(out)] + SMALL + [f"--seed={2**64}"]) == 1
        assert capsys.readouterr().err == f"error: seed must be at most 2**64 - 1, got {2**64}\n"
        assert not out.exists(), cmd
    out = tmp_path / "largest"
    largest = f"--seed={2**64 - 1}"
    assert main(["train", "--data", data_csv, "--out", str(out)] + SMALL + [largest]) == 0
    assert main(["extract", "--map", str(out / "map.json"), "--data", data_csv,
                 "--out", str(out)]) == 0
    assert load_map(str(out / "map.json")).seed == 2**64 - 1


def test_csv_field_past_the_field_limit_exit_1(tmp_path, data_csv, capsys):
    wide = "1" * 140_000
    bad_data, bad_probes = tmp_path / "wide.csv", tmp_path / "wide-probes.csv"
    bad_data.write_text(f"0.0,0.1,X\n1.0,{wide},X\n", encoding="utf-8")
    bad_probes.write_text(f"0.0,0.1\n{wide},1.0\n", encoding="utf-8")
    run = train_and_extract(tmp_path, data_csv)
    capsys.readouterr()
    for argv in (
        ["train", "--data", str(bad_data), "--out", str(tmp_path / "trained")] + SMALL,
        ["extract", "--map", str(run / "map.json"), "--data", data_csv,
         "--probes", str(bad_probes), "--out", str(tmp_path / "extracted")],
    ):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: field larger than field limit"), argv[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vanishing_radius(tmp_path, data_csv, capsys):
    # At 1e-200, 2 * radius**2 underflows to 0.0: train and trace refuse the
    # radius by name and write nothing.  At 1e-160 it is a subnormal: each
    # step moves the BMU alone, exactly as at radius 0.01, and the run
    # succeeds.
    def run(cmd, radius, out):
        radii = ["--radius-start", radius, "--radius-end", radius]
        code = main([cmd, "--data", data_csv, "--out", str(out)] + radii + SMALL)
        return code, capsys.readouterr().err

    for cmd in ("train", "trace"):
        out = tmp_path / f"{cmd}-1e-200"
        code, err = run(cmd, "1e-200", out)
        assert code == 1, cmd
        assert err.startswith("error: radius_start 1e-200 is too small"), (cmd, err)
        assert "Traceback" not in err
        assert not out.exists(), cmd
        tiny, small = tmp_path / f"{cmd}-1e-160", tmp_path / f"{cmd}-0.01"
        assert run(cmd, "1e-160", tiny) == (0, ""), cmd
        assert run(cmd, "0.01", small) == (0, ""), cmd
        assert (tiny / "map.json").read_bytes() == (small / "map.json").read_bytes(), cmd


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


def test_cyclic_specificity_exit_3(monkeypatch, capsys):
    # No map gives these tables, so the model is handed in past the loader,
    # which refuses its snapshot (see test_broken_snapshot_exit_1).  With
    # rd_max 0 or 1, a strict inclusion between categories is either a
    # strict inclusion of BMU sets or goes from a precision-0 category to a
    # positive one, and neither can close a cycle.
    monkeypatch.setattr(cli, "load_model", lambda _path: _cyclic_model())
    assert main(["verify", "--model", "cyclic.json"]) == 3
    assert "cyclic" in capsys.readouterr().err
    # compound queries also need the specificity relation
    for query in ["A & B <= Bot", "T(A & B) <= A", "Top <= A", "T(Top) <= A"]:
        assert main(["check", "--model", "cyclic.json", "--query", query]) == 3, query


def test_verify_reports_a_non_strict_order_exit_3(monkeypatch, capsys):
    # The order is checked once, by the report: it lists the transitivity
    # failure on stdout and names the failed checks on stderr.
    model, cyclic = two_way_override_model()
    monkeypatch.setattr(cli, "load_model", lambda _path: model)
    monkeypatch.setattr(cli, "derive_specificity", lambda _model: cyclic)
    assert main(["verify", "--model", "two-way.json"]) == 3
    out, err = capsys.readouterr()
    checks = {c["check"]: c for c in json.loads(out)}
    assert checks["transitivity"]["status"] == "fail"
    assert checks["transitivity"]["violations"][0]["instance"] == "x < y < x but not x < x"
    assert err.startswith("required checks failed:") and "transitivity" in err


def test_verify_checks_the_order_once(tmp_path, data_csv, monkeypatch, capsys):
    out = train_and_extract(tmp_path, data_csv)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return order_violations(*args, **kwargs)

    order_violations = preferences._order_violations
    monkeypatch.setattr(preferences, "_order_violations", counted)
    assert main(["verify", "--model", str(out / "model.json")]) == 0
    # One walk over the order's pairs serves transitivity and modularity.
    assert calls == [{"modular": True}]
    capsys.readouterr()


def test_main_builds_one_parser(monkeypatch, capsys):
    built = []

    class Counted(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "somlogic":  # not the subcommands' parsers
                built.append(self)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=Counted))
    try:
        assert main(["--help"]) == 0
        assert main(["check"]) == 1
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    capsys.readouterr()


def _edit_rd_to_list(doc):
    cat = doc["categories"]["X"]
    cat["rd"] = list(cat["rd"].values())


def _edit_rd_to_pairs(doc):
    cat = doc["categories"]["X"]
    cat["rd"] = [[eid, value] for eid, value in cat["rd"].items()]


def _edit_empty_category(doc):
    cat = doc["categories"]["X"]
    cat["rd"] = {eid: -1.0 for eid in cat["rd"]}
    cat["stimulus_elements"] = cat["bmu_elements"] = cat["bmu_units"] = []


# The precision, origin and extension edits are of values that only the
# older format stored; a file that holds them is refused as that format.
def _edit_empty_extension(doc):
    old_format(doc)["extensions"]["X"] = []


def _edit_stimulus_rd_to_zero(doc):
    # The edited table still has rd >= 0, rd 0 on the BMUs, rd_max 1 and
    # the extension {rd <= rd_max}; only the features contradict it.
    rd = doc["categories"]["X"]["rd"]
    rd[next(eid for eid in doc["categories"]["X"]["stimulus_elements"] if rd[eid] > 0.0)] = 0.0


def _edit_ghost_rd_key(doc):
    doc["categories"]["X"]["rd"]["ghost"] = 0.5


def _edit_precision(doc):
    old_format(doc)["categories"]["X"]["precision"] = 123.0


def _edit_shifted_features(doc):
    dim = doc["input_dim"]
    doc["features"][:dim] = [v + 5.0 for v in doc["features"][:dim]]


def _edit_overflowing_features(doc):
    dim = doc["input_dim"]
    doc["features"][:dim] = [1e200] * dim


def _edit_input_dim(doc):
    doc["input_dim"] = 7


def _edit_extra_feature(doc):
    doc["features"].append(0.0)


def _edit_origin(doc):
    old_format(doc)["elements"][0]["origin"] = "banana"


def _edit_unknown_stimulus(doc):
    doc["categories"]["X"]["stimulus_elements"].append("ghost")


def _edit_no_bmu_elements(doc):
    doc["categories"]["X"]["bmu_elements"] = []


def _edit_cyclic_tables(doc):
    doc.clear()
    doc.update(model_snapshot(_cyclic_model()))


def _edit_features_to_string(doc):
    doc["features"] = "0" * len(doc["features"])


def _edit_boolean_feature(doc):
    doc["features"][0] = False


def _edit_bmu_units_to_strings(doc):
    cat = doc["categories"]["X"]
    cat["bmu_units"] = [str(u) for u in cat["bmu_units"]]


def _edit_repeated_bmu_element(doc):
    listed = doc["categories"]["X"]["bmu_elements"]
    listed.append(listed[0])


def _edit_repeated_stimulus_element(doc):
    listed = doc["categories"]["X"]["stimulus_elements"]
    listed.append(listed[0])


def _edit_stray_extension(doc):
    extensions = old_format(doc)["extensions"]
    extensions["Z"] = list(extensions["X"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edit", [
    _edit_rd_to_list, _edit_rd_to_pairs, _edit_empty_category, _edit_empty_extension,
    _edit_stimulus_rd_to_zero, _edit_ghost_rd_key, _edit_precision,
    _edit_shifted_features, _edit_overflowing_features, _edit_input_dim,
    _edit_extra_feature, _edit_origin, _edit_unknown_stimulus, _edit_no_bmu_elements,
    _edit_cyclic_tables, _edit_features_to_string, _edit_boolean_feature,
    _edit_bmu_units_to_strings, _edit_repeated_bmu_element,
    _edit_repeated_stimulus_element, _edit_stray_extension,
])
def test_broken_snapshot_exit_1(tmp_path, data_csv, capsys, edit):
    out = train_and_extract(tmp_path, data_csv)
    path = out / "model.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for argv in (["verify"], ["check", "--query", "X <= Y"], ["check", "--query", "T(X) <= Y"]):
        assert main(argv + ["--model", str(path)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_model_in_the_older_format_exit_1(tmp_path, data_csv, capsys):
    # A model.json that an older extract wrote names the column it lacks
    # and says how to get a current one.
    out = train_and_extract(tmp_path, data_csv)
    path = out / "model.json"
    path.write_text(json.dumps(old_format(json.loads(path.read_text()))), encoding="utf-8")
    capsys.readouterr()
    for argv in (["verify"], ["check", "--query", "X <= Y"], ["check", "--query", "T(X) <= Y"]):
        assert main(argv + ["--model", str(path)]) == 1, argv
        assert capsys.readouterr().err == (
            "error: model snapshot has no top-level 'features' column, so an older extract "
            "wrote it; run extract again\n")


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
