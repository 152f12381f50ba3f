"""Command-line front end.

Subcommands
-----------
validate   check the coherence identities of a simplex JSON file
frame      build one frame value B(alpha) and report its homology
check      run the full identity suite over the truncated diagram
homology   homology table of a chain-complex JSON file
recover    recover the edge of a 1-simplex from its cylinder frame

``frame`` and ``recover`` read the frame's homotopy type off its
last-vertex verdict, through one guard (``frames.last_vertex_equivalence``)
that refuses as bad input a frame whose d^2 != 0 or whose last-vertex
identities fail: j : X_{alpha(m)} -> B(alpha) is then a chain homotopy
equivalence.  So ``frame`` reports H(B(alpha)) as the homology of
X_{alpha(m)}, and ``recover`` solves for a retraction of j without
re-proving that j is split or that its cone is acyclic.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 input error
(unreadable file, malformed JSON, schema violation, bad flags, an --output
path that cannot be written).

Reports are emitted as canonical JSON (sorted keys, two-space indent, one
trailing newline) or as plain text; with identical inputs, flags and seed the
output is byte-identical across runs.  The seed is echoed into the report
metadata for bookkeeping.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from .complexes import ChainComplex, homology, is_nullhomotopic
from .dg_nerve import NerveSimplex, validate_maurer_cartan
from .frames import build_frame_object, last_vertex_equivalence, recover_map_from_cylinder, run_checks
from .reporting import canonical_json
from .simplicial import OrderMap, seq_key


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError("JSON object repeats the key %r" % key)
            seen.add(key)
    return obj


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("%s nests too deeply to parse" % path) from None


def _load_simplex(path: str) -> NerveSimplex:
    """The complete simplex at path.  An incomplete one is refused by the
    count of its missing keys, naming the first few: there can be about
    2^(n+1) of them."""
    s = NerveSimplex.from_json(_load_json(path))
    missing = s.missing_count()
    if missing:
        named = [seq_key(seq) for seq in islice(s.missing_keys(), 4)]
        more = missing - len(named)
        if more:
            named.append("and %s more" % (more if more.bit_length() <= 64 else "over 2^%d" % (more.bit_length() - 1)))
        raise ValueError("simplex is missing cochains at: %s" % "; ".join(named))
    return s


def _metadata(args: argparse.Namespace) -> dict:
    return {"seed": args.seed, "max_len": args.max_len}


def _report_payload(command: str, args: argparse.Namespace, report):
    payload = {"command": command, "metadata": _metadata(args), "report": report.items, "summary": report.summary()}
    return payload, (0 if report.ok else 1)


# -- commands -----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace):
    return _report_payload("validate", args, validate_maurer_cartan(_load_simplex(args.input)))


def cmd_frame(args: argparse.Namespace):
    """B(alpha) and its homology, which is that of X_{alpha(m)}: the frame's
    last-vertex verdict proves j : X_{alpha(m)} -> B(alpha) a homotopy
    equivalence, so only X's differentials are factored."""
    s = _load_simplex(args.input)
    alpha = OrderMap.from_key(args.alpha, s.n)
    o = build_frame_object(s, alpha)
    h = homology(last_vertex_equivalence(o).j.source)
    payload = {
        "command": "frame",
        "metadata": _metadata(args),
        "alpha": alpha.key(),
        "frame": o.to_json(),
        "homology": {str(d): h.group(d) for d in h.degrees()},
    }
    return payload, 0


def cmd_homology(args: argparse.Namespace):
    x = ChainComplex.from_json(_load_json(args.input))
    h = homology(x)
    payload = {
        "command": "homology",
        "metadata": _metadata(args),
        "name": x.name,
        "homology": {str(d): h.group(d) for d in h.degrees()},
    }
    return payload, 0


def cmd_check(args: argparse.Namespace):
    return _report_payload("check", args, run_checks(_load_simplex(args.input), args.max_len))


def cmd_recover(args: argparse.Namespace):
    s = _load_simplex(args.input)
    if s.n != 1:
        raise ValueError("recover expects a 1-simplex, got n=%d" % s.n)
    rec = recover_map_from_cylinder(build_frame_object(s, OrderMap((0, 1), 1)))
    difference = rec - s.eval((0, 1))
    witness = is_nullhomotopic(difference)
    payload = {
        "command": "recover",
        "metadata": _metadata(args),
        "recovered": rec.to_json(),
        "difference_is_boundary": witness is not None,
        "exact_match": difference.is_zero(),
        "witness": witness.to_json() if witness is not None else None,
    }
    return payload, (0 if witness is not None else 1)


# -- rendering ----------------------------------------------------------------


def _render_text(payload: dict) -> str:
    lines = ["command: %s" % payload["command"]]
    meta = payload.get("metadata", {})
    for k in sorted(meta):
        lines.append("%s: %s" % (k, meta[k]))
    if "alpha" in payload:
        lines.append("alpha: %s" % payload["alpha"])
    if "name" in payload:
        lines.append("name: %s" % payload["name"])
    if "frame" in payload:
        degrees = payload["frame"]["degrees"]
        lines.append("degrees: " + ", ".join("%s:%s" % (d, degrees[d]) for d in sorted(degrees, key=int)))
    if "homology" in payload:
        hom = payload["homology"]
        if hom:
            for d in sorted(hom, key=int):
                lines.append("H_%s = %s" % (d, hom[d]))
        else:
            lines.append("homology: trivial")
    if "recovered" in payload:
        lines.append("difference_is_boundary: %s" % payload["difference_is_boundary"])
        lines.append("exact_match: %s" % payload["exact_match"])
    if "report" in payload:
        for item in payload["report"]:
            mark = "PASS" if item.status == "pass" else "FAIL"
            line = "%s %s @ %s" % (mark, item.check, item.location)
            if item.witness is not None:
                line += "  (%s)" % item.witness
            lines.append(line)
        s = payload["summary"]
        lines.append("summary: %d pass, %d fail" % (s["pass"], s["fail"]))
    return "\n".join(lines) + "\n"


def _emit(payload: dict, args: argparse.Namespace):
    if args.format == "json":
        text = canonical_json(payload) + "\n"
    else:
        text = _render_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- entry points ---------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and reused after it; parse_args
    leaves the parser unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="path to the input JSON file")
    common.add_argument(
        "--max-len",
        dest="max_len",
        type=int,
        default=3,
        help="truncation bound: sequences with domain size m <= MAX_LEN are enumerated (default 3)",
    )
    common.add_argument("--seed", type=int, default=0, help="seed echoed into the report metadata (default 0)")
    common.add_argument("--output", default=None, help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "text"), default="json", help="output format (default json)")

    parser = argparse.ArgumentParser(prog="dgframes", description="coherent chain-complex diagrams and their resolutions")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="check the coherence identities of a simplex")
    p_frame = sub.add_parser("frame", parents=[common], help="build one frame value")
    p_frame.add_argument("--alpha", required=True, help="comma-separated value sequence, e.g. 0,0,1")
    sub.add_parser("check", parents=[common], help="run the full identity suite over the truncated diagram")
    sub.add_parser("homology", parents=[common], help="homology table of a chain complex")
    sub.add_parser("recover", parents=[common], help="recover the edge of a 1-simplex from its cylinder frame")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "frame": cmd_frame,
    "check": cmd_check,
    "homology": cmd_homology,
    "recover": cmd_recover,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.max_len < 0:
            raise ValueError("--max-len must be >= 0")
        payload, code = _HANDLERS[args.command](args)
        _emit(payload, args)
    except (OSError, ValueError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    return code


def console_main():
    raise SystemExit(main(sys.argv[1:]))
