"""Exact call counts of the dense operations under ``check``.

``check --max-len 3`` on ``random_simplex(Random(7), 3)`` decides its
Maurer-Cartan, latching, last-vertex and homotopical identities column by
column, so it never calls ``hom_differential``, calls ``@`` only in the d^2
checks of the frames, and calls ``invariant_factors`` not at all.
The counts are deterministic, so a change that brings back a dense path
shows up here.  ``frame`` and ``recover`` are pinned the same way, and so
are the calls of the checking constructors under ``check``, so that
validation of values the library builds itself does not creep back.
"""

import functools
import json
import random
import sys

import dgframes
from dgframes import cli, complexes, exact_linalg
from dgframes.complexes import ChainComplex, GradedMap
from dgframes.dg_nerve import random_simplex
from dgframes.exact_linalg import IntMatrix
from dgframes.simplicial import DMorphism, OrderMap


def _count_calls(monkeypatch, counts, name, original):
    """Rebind ``original`` wherever a dgframes module holds it as ``name``,
    to a wrapper counting its calls in counts[name]."""
    counts[name] = 0

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(dgframes.__name__) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def _count_matmul(monkeypatch, counts):
    counts["IntMatrix.__matmul__"] = 0
    matmul = IntMatrix.__matmul__

    def counted_matmul(self, other):
        counts["IntMatrix.__matmul__"] += 1
        return matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted_matmul)


def test_check_makes_no_dense_identity_products(monkeypatch, tmp_path):
    path = tmp_path / "r7n3.json"
    path.write_text(json.dumps(random_simplex(random.Random(7), 3).to_json()))
    counts = {}
    _count_calls(monkeypatch, counts, "hom_differential", complexes.hom_differential)
    _count_calls(monkeypatch, counts, "invariant_factors", exact_linalg.invariant_factors)
    _count_matmul(monkeypatch, counts)
    assert cli.main(["check", "--input", str(path), "--max-len", "3", "--output", str(tmp_path / "out.json")]) == 0
    # at the commit before the column-wise deciders: 602, 207 and 4024;
    # while the Maurer-Cartan suite formed its defects densely: 11, 0 and 140
    assert counts == {"hom_differential": 0, "invariant_factors": 0, "IntMatrix.__matmul__": 130}


def test_check_validates_only_the_values_it_parses(monkeypatch, tmp_path):
    """``check --max-len 2`` on the pinned 3-simplex runs the checking
    constructors only on what it reads from outside: the 4 objects and 11
    cochains it parses, and the n+1 faces and n+1 degeneracies it reindexes
    along.  Every frame, map, restriction, order map and morphism it builds
    itself takes the trusted path."""
    path = tmp_path / "r7n3.json"
    path.write_text(json.dumps(random_simplex(random.Random(7), 3).to_json()))
    counts = {}
    for cls, name in (
        (ChainComplex, "__init__"),
        (GradedMap, "__init__"),
        (OrderMap, "__post_init__"),
        (DMorphism, "__post_init__"),
    ):
        key = "%s.%s" % (cls.__name__, name)
        counts[key] = 0
        original = getattr(cls, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    assert cli.main(["check", "--input", str(path), "--max-len", "2", "--output", str(tmp_path / "out.json")]) == 0
    # at the commit before the trusted constructors: 140, 455, 808 and 174
    assert counts == {
        "ChainComplex.__init__": 4,
        "GradedMap.__init__": 11,
        "OrderMap.__post_init__": 8,
        "DMorphism.__post_init__": 0,
    }


def test_recover_reads_its_systems_from_the_mapping_complex(monkeypatch, tmp_path):
    """``recover`` takes the block of its retraction system from the matrices
    of the mapping complexes, not by applying D and precomposition to every
    elementary map, and solves one system for the retraction and one for
    the null-homotopy it reports, none for a splitting homotopy."""
    path = tmp_path / "r5n1.json"
    path.write_text(json.dumps(random_simplex(random.Random(5), 1, max_rank=4).to_json()))
    counts = {}
    _count_calls(monkeypatch, counts, "hom_differential", complexes.hom_differential)
    _count_calls(monkeypatch, counts, "vector_to_graded_map", complexes.vector_to_graded_map)
    _count_calls(monkeypatch, counts, "solve", exact_linalg.solve)
    _count_matmul(monkeypatch, counts)
    assert cli.main(["recover", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
    # at the commit before the systems were read from the mapping complex: 42, 86 and 467;
    # while recovery also solved for the homotopy: 0, 3, 3 and 23
    assert counts == {"hom_differential": 0, "vector_to_graded_map": 2, "solve": 2, "IntMatrix.__matmul__": 11}


def test_frame_counts_its_products_and_factorizations(monkeypatch, tmp_path):
    """``frame`` on an 8-long alpha multiplies only in the d^2 checks of the
    complexes it builds and factors only the differentials whose homology it
    reports.  Skipping zeros inside ``@`` and ``invariant_factors`` changes
    what each call costs, not how many calls there are."""
    path = tmp_path / "r7n3.json"
    path.write_text(json.dumps(random_simplex(random.Random(7), 3).to_json()))
    counts = {}
    _count_calls(monkeypatch, counts, "invariant_factors", exact_linalg.invariant_factors)
    _count_matmul(monkeypatch, counts)
    argv = ["frame", "--input", str(path), "--alpha", "0,0,1,1,2,2,3,3", "--output", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert counts == {"invariant_factors": 9, "IntMatrix.__matmul__": 8}
