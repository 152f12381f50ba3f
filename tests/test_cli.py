import copy
import functools
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from dgframes import cli
from dgframes.cli import main
from dgframes.complexes import (
    ChainComplex,
    GradedMap,
    cycle_defect,
    hom_differential,
    random_chain_map,
    random_complex,
    random_graded_map,
)
from dgframes.dg_nerve import NerveSimplex, gauge, make_strict, random_simplex
from dgframes.exact_linalg import IntMatrix
from dgframes.frames import build_frame_object
from dgframes.reporting import CheckItem, canonical_json
from dgframes.simplicial import OrderMap

from oracles import from_rows


def two_step(scalar, name="W"):
    return ChainComplex(
        name, {0: 1, 1: 1}, {1: from_rows([[scalar]])}, {0: ("e0",), 1: ("e1",)}
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def valid_simplex(tmp_path):
    w = two_step(2)
    e = GradedMap(w, w, 1, {0: from_rows([[1]])})
    s = gauge(make_strict([GradedMap.identity(w), GradedMap.identity(w)]), {(0, 2): e})
    return write_json(tmp_path / "valid.json", s.to_json())


@pytest.fixture
def corrupt_simplex(tmp_path):
    w = two_step(2)
    e = GradedMap(w, w, 1, {0: from_rows([[1]])})
    s = gauge(make_strict([GradedMap.identity(w), GradedMap.identity(w)]), {(0, 2): e})
    tampered = dict(s.maps)
    tampered[(0, 1, 2)] = e.scale(2)  # D(e) != 0, so the identity at 0,1,2 breaks
    bad = NerveSimplex(list(s.objects), tampered)
    return write_json(tmp_path / "corrupt.json", bad.to_json())


def test_the_fixture_simplex_is_the_perturbed_2simplex():
    """The fixtures' simplex has long edge g o f + D(e) and triangle e."""
    w = two_step(2)
    f = g = GradedMap.identity(w)
    e = GradedMap(w, w, 1, {0: from_rows([[1]])})
    s = gauge(make_strict([f, g]), {(0, 2): e})
    assert s.maps == {(0, 1): f, (1, 2): g, (0, 2): (g @ f) + hom_differential(e), (0, 1, 2): e}


def test_validate_passes(valid_simplex, capsys):
    code = main(["validate", "--input", valid_simplex])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "validate"
    assert payload["summary"] == {"pass": 4, "fail": 0}
    assert all(item["status"] == "pass" for item in payload["report"])


def test_validate_flags_the_corrupted_key(corrupt_simplex, capsys):
    code = main(["validate", "--input", corrupt_simplex])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    failures = [item for item in payload["report"] if item["status"] == "fail"]
    assert failures and failures[0]["location"] == "0,1,2"
    assert "witness" in failures[0]


def test_exit_code_2_on_input_errors(tmp_path, valid_simplex, capsys):
    assert main(["validate", "--input", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--input", str(bad)]) == 2
    wrong = write_json(tmp_path / "wrong.json", {"n": 1})
    assert main(["validate", "--input", wrong]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # incomplete simplex: drop one cochain
    obj = json.loads(open(valid_simplex).read())
    del obj["maps"]["0,2"]
    partial = write_json(tmp_path / "partial.json", obj)
    assert main(["validate", "--input", partial]) == 2
    assert "missing cochains" in capsys.readouterr().err
    assert main(["validate", "--input", valid_simplex, "--max-len", "-1"]) == 2
    assert main(["frame", "--input", valid_simplex, "--alpha", "0,5"]) == 2
    assert main(["frame", "--input", valid_simplex, "--alpha", "zebra"]) == 2


def _capped_run(argv, limit=1 << 30, timeout=20):
    """Run ``python -m dgframes`` with argv in a child process whose address
    space is capped at ``limit`` bytes, so that a runaway input cannot take
    the test runner down with it.  The child writes no bytecode next to the
    sources."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "dgframes"] + argv,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        timeout=timeout,
    )


def _empty_simplex(tmp_path, n):
    """n + 1 empty objects and no map."""
    doc = {"n": n, "objects": [{"name": "X%d" % i, "degrees": {}} for i in range(n + 1)], "maps": {}}
    return write_json(tmp_path / ("incomplete-%d.json" % n), doc)


def test_an_incomplete_simplex_with_many_objects_exits_2(tmp_path, capsys):
    """41 objects and no map leave 2^41 - 42 cochains missing.  Each command
    that loads a simplex refuses it by that count, and names only the first
    few missing keys: exit 2 and one short line on stderr, under a 1-GiB
    memory cap, where forming every key ran out of memory (exit 1).  A
    count past 64 bits is given by its power of 2."""
    path = _empty_simplex(tmp_path, 40)
    for command in (["validate"], ["check"], ["frame", "--alpha", "0,1"], ["recover"]):
        done = _capped_run(command + ["--input", path])
        assert done.returncode == 2, (command, done.stderr[-300:])
        assert done.stdout == b"" and len(done.stderr) < 1024
        assert done.stderr == b"error: simplex is missing cochains at: 0,1; 0,2; 0,3; 0,4; and 2199023255506 more\n"
    assert main(["validate", "--input", _empty_simplex(tmp_path, 70)]) == 2
    assert capsys.readouterr().err == "error: simplex is missing cochains at: 0,1; 0,2; 0,3; 0,4; and over 2^70 more\n"


@pytest.mark.parametrize("output", ["{tmp}", "{tmp}/missing/out.json"], ids=["directory", "missing-parent"])
def test_an_unwritable_output_path_exits_2(valid_simplex, tmp_path, capsys, output):
    """An --output path that cannot be written is bad input: one error line
    on stderr, nothing on stdout, no traceback."""
    assert main(["validate", "--input", valid_simplex, "--output", output.format(tmp=tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_argparse_errors_exit_2(valid_simplex):
    with pytest.raises(SystemExit) as e:
        main(["frame", "--input", valid_simplex])  # --alpha is required
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["unknown-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_frame_payload(valid_simplex, capsys):
    code = main(["frame", "--input", valid_simplex, "--alpha", "0,1", "--seed", "7"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == "0,1"
    assert payload["metadata"] == {"seed": 7, "max_len": 3}
    # cylinder of the identity of W: ranks 2, 3, 1 in degrees 0, 1, 2
    assert payload["frame"]["degrees"] == {"0": 2, "1": 3, "2": 1}
    assert payload["frame"]["labels"]["0"] == ["0|e0", "1|e0"]
    assert payload["homology"] == {"0": "Z/2"}


def test_homology_command(tmp_path, capsys):
    path = write_json(tmp_path / "cx.json", two_step(2).to_json())
    code = main(["homology", "--input", path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "W"
    assert payload["homology"] == {"0": "Z/2"}


def test_check_command(valid_simplex, corrupt_simplex, capsys):
    code = main(["check", "--input", valid_simplex, "--max-len", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 0
    checks = {item["check"] for item in payload["report"]}
    assert {
        "maurer-cartan",
        "frame-d2",
        "latching-closure",
        "latching-split",
        "latching-cokernel",
        "last-vertex-chain",
        "last-vertex-section",
        "last-vertex-homotopy",
        "homotopical",
        "simplicial-compat",
    } <= checks
    code = main(["check", "--input", corrupt_simplex, "--max-len", "1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] > 0


def test_recover_command(tmp_path, capsys):
    x = ChainComplex("X", {0: 2}, {}, {0: ("x0", "x1")})
    y = ChainComplex("Y", {0: 2}, {}, {0: ("y0", "y1")})
    g = GradedMap(x, y, 0, {0: from_rows([[2, 1], [0, 3]])})
    path = write_json(tmp_path / "edge.json", make_strict([g]).to_json())
    code = main(["recover", "--input", path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["difference_is_boundary"] is True
    assert payload["exact_match"] is True
    assert payload["recovered"]["matrices"]["0"] == [[2, 1], [0, 3]]
    # a 2-simplex is rejected
    rng = random.Random(80)
    a = random_complex(rng, name="A")
    b = random_complex(rng, name="B")
    c = random_complex(rng, name="C")
    s2 = make_strict([random_chain_map(rng, a, b), random_chain_map(rng, b, c)])
    path2 = write_json(tmp_path / "two.json", s2.to_json())
    assert main(["recover", "--input", path2]) == 2


def test_byte_determinism(valid_simplex, tmp_path, capsys):
    args = ["validate", "--input", valid_simplex, "--seed", "3"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")
    out_path = tmp_path / "report.json"
    main(args + ["--output", str(out_path)])
    assert capsys.readouterr().out == ""  # nothing on stdout when --output is set
    assert out_path.read_bytes() == first.encode("utf-8")
    # canonical form: sorted keys, two-space indent
    assert first == json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"


def test_text_format(valid_simplex, capsys):
    code = main(["validate", "--input", valid_simplex, "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS maurer-cartan @ 0,1,2" in out
    assert "summary: 4 pass, 0 fail" in out
    main(["frame", "--input", valid_simplex, "--alpha", "0,0", "--format", "text"])
    out = capsys.readouterr().out
    assert "alpha: 0,0" in out and "degrees:" in out


def test_check_reports_broken_frames_of_an_invalid_simplex(corrupt_simplex, capsys):
    """Frames of an MC-invalid simplex have d^2 != 0; check reports that as
    failures (exit 1) instead of failing to build their cones (exit 2)."""
    code = main(["check", "--input", corrupt_simplex, "--max-len", "2"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    failed = [item for item in payload["report"] if item["status"] == "fail"]
    assert {"check": "maurer-cartan", "location": "0,1,2", "status": "fail"}.items() <= failed[0].items()
    assert any(item["check"] == "frame-d2" for item in failed)
    broken = [item for item in failed if item["check"] == "homotopical"]
    assert broken and all(item["witness"].startswith("endpoint B(") for item in broken)
    assert any("endpoint B(0,1,2) has d^2 != 0" in item["witness"] for item in broken)


@pytest.fixture
def broken_edge(tmp_path):
    """A 1-simplex whose edge is not a chain map, and the first degree of
    its cylinder frame whose d^2 is nonzero: one above the first degree
    where D(edge) != 0, where the edge's block leaves the cylinder's."""
    rng = random.Random(18)
    while True:
        x, y = random_complex(rng, name="X"), random_complex(rng, name="Y")
        f = random_graded_map(rng, x, y, 0)
        if not f.is_cycle():
            break
    s = NerveSimplex([x, y], {(0, 1): f})
    return write_json(tmp_path / "broken_edge.json", s.to_json()), cycle_defect(f) + 1


@pytest.mark.parametrize("command", [["frame", "--alpha", "0,1"], ["recover"]])
def test_frame_and_recover_refuse_a_frame_whose_d2_is_nonzero(broken_edge, capsys, command):
    """A frame that does not square to zero is bad input for the commands
    that print or solve on it: exit 2, one error line, nothing on stdout."""
    path, degree = broken_edge
    assert main([command[0], "--input", path, *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: differential does not square to zero at degree %d\n" % degree


def test_a_broken_edge_spoils_only_the_frames_that_read_it(broken_edge, capsys):
    """The frame at 0,0 never reads the edge, so it is printed; check
    reports the broken frames as failures instead of refusing them."""
    path, _ = broken_edge
    assert main(["frame", "--input", path, "--alpha", "0,0"]) == 0
    assert main(["check", "--input", path, "--max-len", "1"]) == 1


@pytest.mark.parametrize("degrees", [[1, 2], "0:1", 3])
def test_non_object_degrees_exit_2(tmp_path, capsys, degrees):
    path = write_json(tmp_path / "cx.json", {"name": "X", "degrees": degrees})
    assert main(["homology", "--input", path]) == 2
    assert "degrees must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [2.7, True, "2"])
def test_non_integer_entries_exit_2(valid_simplex, tmp_path, capsys, entry):
    """A float, bool or string entry is an input error, never truncated or coerced."""
    obj = json.loads(open(valid_simplex).read())
    obj["objects"][0]["differentials"]["1"][0][0] = entry
    assert main(["validate", "--input", write_json(tmp_path / "entry.json", obj)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    obj = json.loads(open(valid_simplex).read())
    obj["maps"]["0,1,2"]["matrices"]["0"][0][0] = entry
    assert main(["validate", "--input", write_json(tmp_path / "map.json", obj)]) == 2
    obj = json.loads(open(valid_simplex).read())
    obj["n"] = entry
    assert main(["validate", "--input", write_json(tmp_path / "n.json", obj)]) == 2


@pytest.mark.parametrize("field", ["name", "source", "target"])
def test_non_string_names_exit_2(valid_simplex, tmp_path, capsys, field):
    """A complex name or a map endpoint that is not a JSON string is an input
    error, never coerced with str()."""
    obj = json.loads(open(valid_simplex).read())
    if field == "name":
        obj["objects"][0]["name"] = 0
    else:
        obj["maps"]["0,1"][field] = 0
    assert main(["validate", "--input", write_json(tmp_path / "named.json", obj)]) == 2
    assert "must be a JSON string" in capsys.readouterr().err


def _keyed_edge(key):
    """``random_simplex(Random(5), 1)`` with its one map moved to ``key``."""
    obj = random_simplex(random.Random(5), 1).to_json()
    obj["maps"] = {key: obj["maps"]["0,1"]}
    return obj


def _declared_degree(key, degree):
    """``random_simplex(Random(3), 2)`` with the map at ``key`` declaring ``degree``."""
    obj = random_simplex(random.Random(3), 2).to_json()
    obj["maps"][key]["degree"] = degree
    return obj


# Each input is built when its test runs, so that a fault in the generator
# fails the cases that draw from it, not the collection of this file.
PARSE_ERRORS = {
    "negative rank": ("homology", lambda: {"name": "x", "degrees": {"0": -1, "1": 1}}, "negative rank in degree 0"),
    "negative rank under a differential": (
        "homology",
        lambda: {"name": "x", "degrees": {"0": -1, "1": 1}, "differentials": {"1": [[5]]}},
        "negative rank in degree 0",
    ),
    "edge of degree 1": ("validate", lambda: _declared_degree("0,1", 1), "map at (0, 1) has degree 1, expected 0"),
    "triangle of degree 0": (
        "validate",
        lambda: _declared_degree("0,1,2", 0),
        "map at (0, 1, 2) has degree 0, expected 1",
    ),
    "differential row too wide": (
        "homology",
        lambda: {"name": "x", "degrees": {"0": 1, "1": 1}, "differentials": {"1": [[5, 1]]}},
        "differential at degree 1 must be 1x1, got row lengths [2]",
    ),
    "decreasing map key": (
        "validate",
        lambda: _keyed_edge("1,0"),
        "map key '1,0' is not a strictly increasing sequence in range",
    ),
    "repeated map key entry": (
        "validate",
        lambda: _keyed_edge("0,0"),
        "map key '0,0' is not a strictly increasing sequence in range",
    ),
    "map key outside [n]": (
        "validate",
        lambda: _keyed_edge("0,5"),
        "map key '0,5' is not a strictly increasing sequence in range",
    ),
    "objects not a list": (
        "validate",
        lambda: dict(random_simplex(random.Random(5), 1).to_json(), objects={}),
        "simplex objects must be a JSON list",
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_errors_name_their_cause(tmp_path, capsys, case):
    """A negative rank, a map of the wrong declared degree and a matrix of
    the wrong shape are refused with their own message, not with the shape
    error of a matrix read under the bad value: exit 2, nothing on stdout."""
    command, build, message = PARSE_ERRORS[case]
    assert main([command, "--input", write_json(tmp_path / "in.json", build())]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


# Each spelling names the same integer as ``t`` but is not its canonical text.
NON_CANONICAL = {
    "leading zero": lambda t: "0" + t,
    "plus sign": lambda t: "+" + t,
    "leading space": lambda t: " " + t,
    "trailing newline": lambda t: t + "\n",
    "arabic-indic digits": lambda t: "".join(chr(0x660 + int(c)) for c in t),
}


@pytest.mark.parametrize("spelling", sorted(NON_CANONICAL))
def test_non_canonical_integer_keys_exit_2(valid_simplex, tmp_path, capsys, spelling):
    """Integer keys and --alpha entries must be canonical decimal text; any
    other spelling is an input error, so two keys never name one integer."""
    spell = NON_CANONICAL[spelling]

    def exit_code(command, obj, *args):
        return main([command, "--input", write_json(tmp_path / "in.json", obj)] + list(args))

    # a second spelling of degree 0 would overwrite the first
    assert exit_code("homology", {"name": "X", "degrees": {"0": 1, spell("0"): 2}}) == 2
    cx = two_step(2).to_json()
    cx["differentials"][spell("1")] = cx["differentials"].pop("1")
    assert exit_code("homology", cx) == 2
    simplex = json.loads(open(valid_simplex).read())
    maps = copy.deepcopy(simplex["maps"])
    maps[spell("0") + ",1"] = maps.pop("0,1")
    assert exit_code("validate", dict(simplex, maps=maps)) == 2
    maps = copy.deepcopy(simplex["maps"])
    matrices = maps["0,1,2"]["matrices"]
    matrices[spell("0")] = matrices.pop("0")
    assert exit_code("validate", dict(simplex, maps=maps)) == 2
    assert main(["frame", "--input", valid_simplex, "--alpha", spell("0") + ",1"]) == 2
    assert capsys.readouterr().err.count("must be a canonical decimal integer") == 5


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["homology", "--input", str(path)]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_repeated_json_keys_exit_2(valid_simplex, tmp_path, capsys):
    """A key repeated within one JSON object is an input error; the loader
    never keeps just one of the two values."""
    path = tmp_path / "cx.json"
    path.write_text('{"name": "X", "degrees": {"0": 1, "0": 2}}', encoding="utf-8")
    assert main(["homology", "--input", str(path)]) == 2
    assert "repeats the key '0'" in capsys.readouterr().err
    simplex = json.loads(open(valid_simplex).read())
    pairs = list(simplex["maps"].items())
    maps = "{" + ", ".join("%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in pairs + pairs[:1]) + "}"
    path.write_text('{"n": 2, "objects": %s, "maps": %s}' % (json.dumps(simplex["objects"]), maps), encoding="utf-8")
    assert main(["validate", "--input", str(path)]) == 2
    assert "repeats the key %r" % pairs[0][0] in capsys.readouterr().err


@functools.lru_cache(maxsize=None)
def _fuzz_documents():
    """The valid documents the fuzz test mutates, built on first use."""
    return [
        ("validate", make_strict([GradedMap.identity(two_step(2))]).to_json()),
        ("homology", two_step(2).to_json()),
    ]

# Integers stay in [-3, 3]: a rank in the millions is a resource question,
# not an exit-code one.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _node_paths(node, path=()):
    yield path
    keys = sorted(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for k in keys:
        yield from _node_paths(node[k], path + (k,))


@st.composite
def mutated_documents(draw):
    """A valid document with one node replaced by arbitrary JSON, or one
    object key renamed to arbitrary short text."""
    command, doc = draw(st.sampled_from(_fuzz_documents()))
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_node_paths(doc))))
    if not path:
        return command, draw(JSON_VALUES)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if isinstance(parent, dict) and draw(st.booleans()):
        parent[draw(st.text(max_size=4))] = parent.pop(path[-1])
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return command, doc


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_documents())
def test_exit_code_contract_holds_on_mutated_documents(case):
    """Any JSON document gives exit code 0, 1 or 2 and raises nothing."""
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main([command, "--input", path, "--output", os.path.join(tmp, "out.json")]) in (0, 1, 2)


# sha256 of the stdout of `frame --alpha 0,0,1,1` and `check --max-len 2` on
# random_simplex(Random(seed), n), recorded before the frame builder and the
# homotopical check were rewritten for speed.
PINNED_STDOUT = {
    (7, 3, "frame"): "ea6126a938e031884dfa510be875ae7d413431a4a7f45f6fed4160bffb68c149",
    (7, 3, "check"): "5b7546184eb79bedf4ec7cdaca2314045b3d4ce9bf9066c1b7f8dfdbe50cad9d",
    (6, 2, "frame"): "bf9febef1fed68fe1dcf5c806e55fe001a9e69107bc541b31c041c19a19409e4",
    (6, 2, "check"): "f0488b26e74d8f739aab54db5f00c8f54788b2979e176a35bb5489971eb063e3",
}


@pytest.mark.parametrize("seed, n, command", sorted(PINNED_STDOUT))
def test_frame_and_check_output_is_pinned(tmp_path, capsys, seed, n, command):
    path = write_json(tmp_path / "simplex.json", random_simplex(random.Random(seed), n).to_json())
    args = ["--alpha", "0,0,1,1"] if command == "frame" else ["--max-len", "2"]
    assert main([command, "--input", path] + args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[seed, n, command]


def torsion_complex():
    """H_0 = Z + Z/2, H_1 = Z/3; the name needs JSON escapes."""
    d1 = from_rows([[2, 0], [0, 0]])
    d2 = from_rows([[0], [3]])
    return ChainComplex('Té∂ "q"\\', {0: 2, 1: 2, 2: 1}, {1: d1, 2: d2})


PINNED_CASES = {
    "validate": (lambda: random_simplex(random.Random(6), 2), ["validate"]),
    "homology-torsion": (torsion_complex, ["homology", "--seed", "-3"]),
    # 7 large sparse +-1-heavy differentials with torsion, the largest
    # 175 x 139 with 738 nonzeros: H_2 = Z/2, H_3 = Z
    "homology-frame-r105n3": (
        lambda: build_frame_object(random_simplex(random.Random(105), 3), OrderMap((0, 0, 1, 1, 2, 2, 3, 3), 3)).complex,
        ["homology"],
    ),
    "recover": (lambda: random_simplex(random.Random(5), 1, max_rank=4), ["recover"]),
    # its report holds no matrix; these two rest on nontrivial solves: a
    # 71 x 55 retraction system, and a recovered map that differs from the
    # edge (exact_match false) by a nonzero witness
    "recover-r3n1": (lambda: random_simplex(random.Random(3), 1, max_rank=4), ["recover"]),
    "recover-r20n1": (lambda: random_simplex(random.Random(20), 1, max_rank=4), ["recover"]),
    "frame-wide": (lambda: random_simplex(random.Random(7), 3), ["frame", "--alpha", "0,0,1,1,2,2,3,3"]),
    "frame-wide-r105n3": (lambda: random_simplex(random.Random(105), 3), ["frame", "--alpha", "0,0,1,1,2,2,3,3"]),
    "frame-wide-r108n3": (lambda: random_simplex(random.Random(108), 3), ["frame", "--alpha", "0,0,1,1,2,2,3,3"]),
    # m = 8, past every benchmark workload: 511 summands, 4.4 MB of output
    "frame-m8": (lambda: random_simplex(random.Random(7), 3), ["frame", "--alpha", "0,0,0,1,1,2,2,3,3"]),
    "check-text": (lambda: random_simplex(random.Random(6), 2), ["check", "--max-len", "1", "--format", "text"]),
    "check-deep": (lambda: random_simplex(random.Random(7), 3), ["check", "--max-len", "3"]),
    # objects in degrees -1 and 2 only: the last-vertex homotopy maps into
    # degrees that hold no block
    "check-deep-r6n2": (lambda: random_simplex(random.Random(6), 2), ["check", "--max-len", "3"]),
    "check-deep-text": (lambda: random_simplex(random.Random(7), 3), ["check", "--max-len", "3", "--format", "text"]),
    "check-max-len-4": (lambda: random_simplex(random.Random(7), 3), ["check", "--max-len", "4"]),
    "check-max-len-5": (lambda: random_simplex(random.Random(7), 3), ["check", "--max-len", "5"]),
    "frame-wide-text": (
        lambda: random_simplex(random.Random(7), 3),
        ["frame", "--alpha", "0,0,1,1,2,2,3,3", "--format", "text"],
    ),
    # a name, nontrivial homology with torsion, and trivial homology
    "homology-torsion-text": (torsion_complex, ["homology", "--seed", "-3", "--format", "text"]),
    "homology-acyclic-text": (
        lambda: ChainComplex("acyclic", {0: 1, 1: 1}, {1: from_rows([[1]])}),
        ["homology", "--format", "text"],
    ),
    "recover-r20n1-text": (lambda: random_simplex(random.Random(20), 1, max_rank=4), ["recover", "--format", "text"]),
}

# sha256 of the stdout of each case, recorded before the JSON writer replaced
# json.dumps(..., indent=2) in the CLI; the two check-deep cases were recorded
# before simplicial-compat compared restrictions instead of rebuilding frames;
# the two recover cases of Random(3) and Random(20) were recorded while the
# Smith elimination ran on dense rows; homology-frame-r105n3 was recorded
# while invariant_factors cleared +-1 pivots first, sparsest row first; the
# three frame cases after frame-wide were recorded while the frame builder
# looked each summand up by its subset tuple; the three homology and recover
# text cases were recorded while the Maurer-Cartan sum and the frame
# differential derived their twisting terms apart; frame-wide-text and the
# check cases at max-len 4 and 5 repeat pins of the CI workflow.
PINNED_CASE_STDOUT = {
    "validate": "ab22d3289de446b0ea77622ae916eca0c3b90ae0db3ea4bba20e0cee20e04fff",
    "homology-torsion": "d83ae9befd3a50f9bf6627567e444c8fc54d6ddddf95828fc1a2bd6999a4f0bf",
    "homology-frame-r105n3": "13ee0b7d389a4447454e42fb83ad854eff76372e912e028551cf356ffffc8d0d",
    "recover": "e2ec3a51b16363a13731ff44793a7420182cab1ea88417dfae4e18e361cf4813",
    "recover-r3n1": "45f19a09b286c6975f0a89f8e3bd3b967302d27843074033b122129da4a9742f",
    "recover-r20n1": "8cc50f5353fb334fcb97f36a2eddab8b6205889788713abba145ef669825e147",
    "frame-wide": "802253759d1a47f2201f44cf3a7be3adfe2316b3ae9758f3e72b10e52864c11d",
    "frame-wide-r105n3": "a39d167020cf5fb618df15901e89302a41283dab1d41b08142ee235d937780ec",
    "frame-wide-r108n3": "c161c2758ab5cf5c94aaf630bbf8e434f767d6d0401738aacba0fafe0bdb5f09",
    "frame-m8": "9d09779c270fa5a83f0ac550b6bb18b05d887ca0c950332ba20c74f3679cbc25",
    "check-text": "b4ea22029115a2fc1d8e85ed5c91e286b0a83e221f8e4e55e05147c7f45cc1f8",
    "check-deep": "9ffbc12ab0e13c1b3b7e801371e89b5c7fcc1d1610048c26e9d262af05554113",
    "check-deep-r6n2": "53a68260d362b367156acc30a6ba8ada4405fa87bf4a73d0b528be0b6155f473",
    "check-deep-text": "a1a16a685f4f4b6c0475ba7535dc7f298f91efd3400662e9ee702a7defa3af91",
    "check-max-len-4": "5e737a25ba5179f4448bd2c84cc87c1bd47b592b366b42e802009b993f8381e0",
    "check-max-len-5": "42900d2871ff603472c895239d20c4df0c6ac7feac3824ac61fd57b83526c785",
    "frame-wide-text": "6c28c2e9b531534cf5cd5dc42659825a1b9c6dacf2638afe5f52494c7a911e30",
    "homology-torsion-text": "dfdbb4380b48c8df5e3e8b27992540ae64636c8c8bc47354d0df564c5f2e62da",
    "homology-acyclic-text": "6c62f3a732328d89050202c441c340e27ce674777bf96d66e484213e153c29a1",
    "recover-r20n1-text": "1875eb5f10229c4041fc0735f5ce890d072ebe655b66979bfd15d56b1d06ca4b",
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_more_command_outputs_are_pinned(tmp_path, capsys, case):
    build, argv = PINNED_CASES[case]
    path = write_json(tmp_path / "input.json", build().to_json())
    assert main(argv + ["--input", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_CASE_STDOUT[case]


def corrupted_simplex(seed=3, n=2, key="0,1,2"):
    """random_simplex(Random(seed), n) with 1 added to the first entry of
    the lowest-degree matrix of its cochain at ``key``."""
    obj = random_simplex(random.Random(seed), n).to_json()
    mats = obj["maps"][key]["matrices"]
    mats[min(mats, key=int)][0][0] += 1
    return NerveSimplex.from_json(obj)


# Reports with failed items and their witnesses; each case exits 1.
FAILING_PINNED_CASES = {
    "check-corrupted": (corrupted_simplex, ["check", "--max-len", "2"]),
    "check-corrupted-text": (corrupted_simplex, ["check", "--max-len", "2", "--format", "text"]),
    "check-corrupted-max-len-3": (corrupted_simplex, ["check", "--max-len", "3"]),
}

# sha256 of the stdout of each case, recorded before report items were
# written from one template; check-corrupted-max-len-3, where the shorter
# frame B(0,1,2) fails with its extension B(0,1,2,2) and gives its own
# witnesses, was recorded while every frame of a diagram was built in full.
FAILING_PINNED_CASE_STDOUT = {
    "check-corrupted": "adf7f5fe6570fae44b64f604a547dda2d5b18334237f8bea38c23b64a733288a",
    "check-corrupted-text": "cec642cab1a5dc6481546b18484d3739aa32159c9ef1afad905672b92f97aab8",
    "check-corrupted-max-len-3": "8632a1898cb078173026044667530c4e28892b781396ca2d10a1836bc1cbeaf5",
}


@pytest.mark.parametrize("case", sorted(FAILING_PINNED_CASES))
def test_failing_check_outputs_are_pinned(tmp_path, capsys, case):
    build, argv = FAILING_PINNED_CASES[case]
    path = write_json(tmp_path / "input.json", build().to_json())
    assert main(argv + ["--input", path]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FAILING_PINNED_CASE_STDOUT[case]


HAND_BUILT_TOP_CELL = os.path.join(os.path.dirname(__file__), "hand_built_top_cell.json")


def hand_built_top_cell() -> NerveSimplex:
    """The committed 3-simplex whose only nonzero higher cell is its top
    cell: every X_i is Z in degrees 0 and 2 with d = 0, every edge is the
    identity, every triangle is zero, and f(0,1,2,3) is 5 from degree 0 to
    degree 2.  Seeded draws leave that cell zero, so it alone reaches the
    split sign of the frame differential at j = k >= 3 and the retraction's
    (-1)^k at k >= 2."""
    with open(HAND_BUILT_TOP_CELL, encoding="utf-8") as fh:
        return NerveSimplex.from_json(json.load(fh))


# sha256 of the stdout of `check --max-len L` on the hand-built top cell.  A
# report whose items all pass names no object of its simplex, so these equal
# the check-deep and check-max-len-4 pins of random_simplex(Random(7), 3).
HAND_BUILT_TOP_CELL_STDOUT = {
    3: "9ffbc12ab0e13c1b3b7e801371e89b5c7fcc1d1610048c26e9d262af05554113",
    4: "5e737a25ba5179f4448bd2c84cc87c1bd47b592b366b42e802009b993f8381e0",
}


@pytest.mark.parametrize("max_len", sorted(HAND_BUILT_TOP_CELL_STDOUT))
def test_the_hand_built_top_cell_check_is_pinned(capsys, max_len):
    assert main(["check", "--input", HAND_BUILT_TOP_CELL, "--max-len", str(max_len)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HAND_BUILT_TOP_CELL_STDOUT[max_len]


def test_a_failed_parse_leaves_the_reused_parser_intact(valid_simplex, capsys):
    """The parser is built once per process; an argparse error on one call
    must not change what later calls print."""
    runs = [["validate", "--input", valid_simplex], ["frame", "--input", valid_simplex, "--alpha", "0,1,2"]]
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr().out)
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as e:
        main(["check", "--input", valid_simplex, "--max-len", "x"])
    assert e.value.code == 2
    capsys.readouterr()
    parser = cli._parser()
    for argv, out in zip(runs, fresh):
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    assert cli._parser() is parser


# Text covers non-ASCII (also outside the BMP), quotes, backslashes and
# control characters; integers run past 64 bits on both sides.  Sparse rows
# are mostly zeros, like the rows of a frame's differentials.
SPARSE_INT_ROWS = st.lists(st.sampled_from((0,) * 12 + (1, -1, 2**70, -(2**70))), max_size=40)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(st.integers(-(2**70), 2**70), max_size=6)
    | SPARSE_INT_ROWS
    | SPARSE_INT_ROWS.map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(JSON_TREES | SPARSE_INT_ROWS | st.just('"\\\x00\x1f\x7f\u00e9\u2028\U0001d11e'))
def test_canonical_json_matches_json_dumps(tree):
    assert canonical_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


REPORT_TEXT = st.text() | st.just('"\\\x00\x1f\x7f\u00e9\u2028\U0001d11e')
CHECK_ITEMS = st.builds(
    CheckItem,
    st.sampled_from(("maurer-cartan", "homotopical")),
    REPORT_TEXT,
    st.sampled_from(("pass", "fail")),
    st.none() | REPORT_TEXT,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(CHECK_ITEMS, max_size=4), st.sampled_from(("list", "dict")), CHECK_ITEMS)
def test_canonical_json_writes_a_check_item_as_its_dict(items, nesting, lone):
    """A CheckItem is written as ``json.dumps`` writes the dict of its
    fields, without the ``witness`` key when the witness is None, in a
    payload as the CLI nests it and one level deeper, as a dict value and
    at top level."""

    def as_dict(item):
        return {k: v for k, v in item._asdict().items() if v is not None}

    dicts = [as_dict(item) for item in items]
    tree = {"report": items, "summary": {"pass": 1}, "item": lone}
    expected = {"report": dicts, "summary": {"pass": 1}, "item": as_dict(lone)}
    if nesting == "list":
        tree, expected = [tree, items], [expected, dicts]
    assert canonical_json(tree) == json.dumps(expected, sort_keys=True, indent=2)
    assert canonical_json(lone) == json.dumps(as_dict(lone), sort_keys=True, indent=2)


INT_MATRIX_ROWS = st.tuples(st.integers(0, 5), st.integers(0, 40)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from((0,) * 12 + (1, -1, 2**70, -(2**70))), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda data: IntMatrix(shape[0], shape[1], data))
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(INT_MATRIX_ROWS, st.lists(st.sampled_from(("list", "dict")), max_size=3))
@example(IntMatrix.zeros(0, 4), ["list"])
@example(IntMatrix.zeros(3, 0), ["dict", "list"])
@example(IntMatrix(2, 40, [[0] * 39 + [2**70], [-1] + [0] * 39]), ["dict", "dict", "list"])
def test_canonical_json_writes_an_int_matrix_as_its_rows(m, nesting):
    """An IntMatrix, alone or nested 1-3 levels deep, is written as
    ``json.dumps`` writes its list of rows at the same depth."""
    tree, rows = m, m.to_lists()
    for kind in nesting:
        tree, rows = ([tree, 1], [rows, 1]) if kind == "list" else ({"m": tree}, {"m": rows})
    assert canonical_json(tree) == json.dumps(rows, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [[0, False], (0, False, 1), [False, 0, True, 1]])
def test_canonical_json_writes_falsy_non_ints_as_themselves(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, {1: "a"}, {"a": [{0: 1}]}, {1, 2}, [0, 2.0], float("nan"), [0, 0.0], [1, 0.0]]
)
def test_canonical_json_refuses_what_the_cli_never_emits(value):
    with pytest.raises(TypeError):
        canonical_json(value)
