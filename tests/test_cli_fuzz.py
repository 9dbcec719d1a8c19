"""Input fuzz through the command line.

``main`` runs on a small run's ``model.json``, ``map.json``, data and probe
CSV files and on query strings, one of them mutated: a JSON value replaced
or removed, a CSV cell replaced, or a splice of text.  Whatever the input,
no exception escapes ``main``, the exit code is a documented one, exits
1 and 2 print an ``error:`` line, and a ``model.json`` that ``check`` or
``verify`` accepts is the one ``save_model`` writes back.  Every command
runs on a 3 x 3 map for two epochs at most, so no input makes the program
allocate much.

``train`` and ``trace`` also run with edge values for their options: huge
and negative integers, nan, infinities, -0.0 and subnormal floats.  Each
exits 0 or 1, an exit 1 prints one ``error:`` line and writes nothing, and
after an exit 0 the ``map.json`` written reads back.  A map side is either
small or refused before anything is allocated.
"""

import contextlib
import functools
import io
import json
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from somlogic import (
    Stimulus,
    TrainConfig,
    build_model,
    feature_range,
    init_map,
    jsonio,
    load_map,
    load_model,
    model_snapshot,
    train,
)
from somlogic.cli import main
from somlogic.som import map_snapshot

from oracles import old_format

DATA = """\
f0,f1,label
0.0,0.1,X
0.2,0.0,X
0.1,0.3,X
0.3,0.2,X
4.0,4.1,Y
4.2,4.0,Y
4.1,4.3,Y
4.3,4.2,Y
"""
PROBES = "2.0,2.0\n-1.0,5.0\n"
TRAINING = ["--rows", "3", "--cols", "3", "--epochs", "2", "--seed", "7"]

# The files each command reads, by role.
ROLES = {
    "check": ("model",),
    "verify": ("model",),
    "extract": ("map", "data", "probes"),
    "train": ("data",),
    "trace": ("data",),
}


@functools.cache
def base_texts() -> dict[str, str]:
    """The unmutated files: the run that ``train`` and ``extract`` with
    ``TRAINING`` give on ``DATA`` and ``PROBES``."""
    # load_csv names each stimulus after its line.
    rows = [line.split(",") for line in DATA.splitlines()[1:]]
    data = [Stimulus(f"row{i}", (float(f0), float(f1)), label)
            for i, (f0, f1, label) in enumerate(rows, start=2)]
    som0 = init_map(3, 3, 2, 7, feature_range(data))
    som, _ = train(som0, data, TrainConfig(epochs=2, seed=7))
    probes = [tuple(map(float, line.split(","))) for line in PROBES.split()]
    return {
        "model": jsonio.canonical_dumps(model_snapshot(build_model(som, data, probes))),
        "map": jsonio.canonical_dumps(map_snapshot(som)),
        "data": DATA,
        "probes": PROBES,
    }


# Values that sit at the edges of what the readers accept.
EDGE_NUMBERS = [0, -1, 1, 2, 3, 9, 2**63, 2**64 + 5, -(2**63) - 1, 0.5, -0.0,
                1e-320, 1e300, -1e300, 1e308, -1e308]
EDGE_TEXTS = ["", "X", "Y", "T", "Top", "u0", "u0'", "p0", "1e308", "12", "é"]
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.sampled_from(EDGE_NUMBERS),
              st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_TEXTS)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(EDGE_TEXTS), inner, max_size=2)),
    max_leaves=4,
)
CELLS = ["", "nan", "inf", "-inf", "1e308", "-1e308", "1e300", "1e-320", "0x1", "abc",
         "X", "Y", "Top", "T", "u0", "#", '"', '"1,2"', "1" * 140_000]
SPLICES = ["", ",", "\n", '"', "[", "]", "{", "}", ":", "0", "-", "e9", "1e400",
           "NaN", "null", "(", ")", "&", "<=", "T(", "Bot", "\\ud800", "\x00", "é"]


@st.composite
def json_edit(draw, text: str) -> str:
    """``text`` with one value, reached by a random walk from the root,
    replaced by a random JSON value or removed."""
    doc = json.loads(text)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if draw(st.booleans()):
        parent[key] = draw(json_values)
    elif isinstance(parent, dict):
        del parent[key]
    else:
        parent.pop(key)
    return json.dumps(doc)


@st.composite
def csv_edit(draw, text: str) -> str:
    """``text`` with one cell replaced, or one line repeated or dropped."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(",")
    action = draw(st.sampled_from(["cell", "repeat", "drop"]))
    if action == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
        lines[i] = ",".join(cells)
    elif action == "repeat":
        lines.insert(i, lines[i])
    else:
        del lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def splice(draw, text: str) -> str:
    """``text`` with a short run of characters replaced by one of
    ``SPLICES``."""
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    return text[:i] + draw(st.sampled_from(SPLICES)) + text[j:]


concepts = st.lists(st.sampled_from(["X", "Y", "Z", "Top", "Bot", "(X & Y)"]),
                    min_size=1, max_size=3).map(" & ".join)
queries = st.one_of(
    st.tuples(st.sampled_from(["{} <= {}", "T({}) <= {}"]), concepts, concepts).map(
        lambda t: t[0].format(*t[1:])),
    st.lists(st.sampled_from(["X", "Y", "Top", "Bot", "T", "T(", "(", ")", "&", "<=", "?"]),
             max_size=10).map(" ".join),
    st.text(max_size=8),
)


@st.composite
def cases(draw):
    """A command, the one file it reads that is mutated, the mutated text,
    and the query (for ``check``)."""
    command = draw(st.sampled_from(sorted(ROLES)))
    role = draw(st.sampled_from(ROLES[command]))
    text = base_texts()[role]
    if command == "check" and draw(st.booleans()):
        return command, None, None, draw(queries)
    edit = json_edit if role in ("model", "map") else csv_edit
    text = draw(st.one_of(edit(text), splice(text)))
    return command, role, text, draw(queries) if command == "check" else None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def run(workdir, command, role, text, query) -> tuple[int, str]:
    """The exit code and stderr of ``main`` on the base files with the one
    of role ``role`` holding ``text``."""
    paths = {}
    for name, base in base_texts().items():
        path = workdir / f"{name}.{'json' if name in ('model', 'map') else 'csv'}"
        path.write_text(text if name == role else base, encoding="utf-8")
        paths[name] = str(path)
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = {
        "check": ["check", "--model", paths["model"], f"--query={query}"],
        "verify": ["verify", "--model", paths["model"]],
        "extract": ["extract", "--map", paths["map"], "--data", paths["data"],
                    "--probes", paths["probes"], "--out", str(out)],
        "train": ["train", "--data", paths["data"], "--out", str(out)] + TRAINING,
        "trace": ["trace", "--data", paths["data"], "--out", str(out)] + TRAINING,
    }[command]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _wide_cell(text: str) -> str:
    return text.replace("0.1,X", "1" * 140_000 + ",X", 1)


def _integer_id(old: str, before: str) -> str:
    """The base model.json with element ``old`` renamed "7" throughout,
    and the "7" that follows the text ``before`` written as the integer 7."""
    text = base_texts()["model"].replace(f'"{old}"', '"7"')
    return text.replace(f'{before}"7"', f"{before}7", 1)


def _old_format(edit=lambda extensions: None) -> str:
    """The base model.json in the older format, which stored extensions,
    with ``edit`` applied to its extensions."""
    doc = old_format(json.loads(base_texts()["model"]))
    edit(doc["extensions"])
    return json.dumps(doc)


@settings(max_examples=300)
@given(cases())
# Parentheses nested 600 deep, and 1000 conjuncts plain and under T(...).
@example(("check", None, None, "(" * 600 + "X" + ")" * 600 + " <= Y"))
@example(("check", None, None, " & ".join(["X", "Y"] * 500) + " <= Y"))
@example(("check", None, None, "T(" + " & ".join(["X", "Y"] * 500) + ") <= Y"))
# An element id and a stimulus reference that are the integer 7 where the
# rest of the file names "7", and an empty element id.
@example(("check", "model", _integer_id("p1", '"id":'), "T(X) <= Y"))
@example(("check", "model", _integer_id("row2", '"stimulus_elements":['), "T(X) <= Y"))
@example(("check", "model", base_texts()["model"].replace('"p1"', '""'), "T(X) <= Y"))
# A file in the older format, which stored extensions, as written and with
# an extension entry that is the integer 7 or an extension that is an
# object keyed by its element ids.
@example(("check", "model", _old_format(), "T(X) <= Y"))
@example(("check", "model", _old_format(lambda ext: ext["X"].__setitem__(0, 7)), "T(X) <= Y"))
@example(("check", "model", _old_format(lambda ext: ext.update(X=dict.fromkeys(ext["X"]))),
          "T(X) <= Y"))
# A CSV field past csv.field_size_limit(), in the data and in the probes.
@example(("train", "data", _wide_cell(DATA), None))
@example(("extract", "probes", "1" * 140_000 + ",1\n", None))
# Features whose initial weight band overflows float64.
@example(("train", "data", DATA.replace("0.0,0.1,X", "1e308,0.1,X").replace(
    "4.0,4.1,Y", "-1e308,4.1,Y"), None))
@example(("trace", "data", DATA.replace("0.0,0.1,X", "1e308,0.1,X").replace(
    "4.0,4.1,Y", "-1e308,4.1,Y"), None))
def test_main_exits_cleanly_on_mutated_input(workdir, case):
    code, err = run(workdir, *case)
    assert code in (0, 1, 2, 3, 4)
    if code in (1, 2):
        assert any(line.startswith("error: ") for line in err.splitlines()), err
    command, role, text, _query = case
    if role == "model" and code in (0, 3, 4):
        saved = model_snapshot(load_model(workdir / "model.json"))
        assert json.loads(text) == saved


# Option values at the edges of what the parser and TrainConfig accept.
OPTION_INTEGERS = [-1, 0, 1, 2, 2**63, 2**64 - 1, 2**64, 10**30]
OPTION_FLOATS = ["nan", "inf", "-inf", "-0.0", "5e-324", "0.5", "1e308"]
# A map side is at most 4, or so large that the map's weights are refused
# before anything is allocated, and a run is at most two epochs long, so
# every accepted run stays small.
MAP_SIDES = [n for n in OPTION_INTEGERS if n <= 4 or n >= 2**63]
EPOCHS = [n for n in OPTION_INTEGERS if n <= 2]
OPTION_VALUES = {
    "rows": MAP_SIDES,
    "cols": MAP_SIDES,
    "epochs": EPOCHS,
    "seed": OPTION_INTEGERS,
    **dict.fromkeys(["lr-start", "lr-end", "radius-start", "radius-end"], OPTION_FLOATS),
}
# A few options at a time, so that some runs are accepted.
option_values = st.lists(st.sampled_from(sorted(OPTION_VALUES)), max_size=3, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({n: st.sampled_from(OPTION_VALUES[n]) for n in names}))


@settings(max_examples=300)
@given(st.sampled_from(["train", "trace"]), option_values)
# A seed past uint64 was written to map.json, which then read it as a float.
@example("train", {"seed": 2**64})
@example("trace", {"seed": 10**30})
def test_main_exits_cleanly_on_option_values(workdir, command, options):
    data = workdir / "options.csv"
    data.write_text(DATA, encoding="utf-8")
    out = workdir / "options-out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [command, "--data", str(data), "--out", str(out)] + TRAINING
    argv += [f"--{name}={value}" for name, value in options.items()]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()
    else:
        assert load_map(out / "map.json").seed == options.get("seed", 7)
