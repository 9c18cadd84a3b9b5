"""Command line front end.

Six subcommands: build, verify, cohomology, figure, gram, certificate.
All take --dim for the even ambient dimension, from 2 to MAX_DIM. Exit
codes: 0 means the requested check passed or the object was emitted, 1
means a verification failed, 2 means the invocation itself was malformed
(one line on stderr), 3 means an internal error (one line on stderr,
"error: internal: <type>: <message>", no traceback).

Heavy sweeps are kept off the default path: the cohomology oracle over
all ordered pairs is only run in full for dim 2 and 4, larger dimensions
fall back to a seeded 500-pair sample unless --allow-large forces the
full sweep. The full forbidden-cone sweep at dim 8 and above also needs
--allow-large; a --sample run does not. --out to a path that cannot be
written exits 2.

`windows` is imported by the generation and wall checks and by
certificate when they run, so no other command pays for loading it.

JSON output has the bytes of json.dumps(payload, indent=2). A verify
report's pair verdicts (its violations, and every pair under
--full-report) are written from its PairResult tuples one fixed template
at a time (_dumps): no dict is made per pair, and they skip the
pure-Python encoder that any indent selects. Text output reads only the
first five violations and their count.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache
from itertools import groupby
from json.encoder import encode_basestring_ascii as _string

from .cohomology import cohomology
from .collection import (
    METHODS,
    PairResult,
    Report,
    apply_mutation,
    build_Fn,
    build_Gn,
    collection_to_dict,
    expected_size,
    gram_matrix,
    labeled_blocks,
    verify_exceptional,
    verify_stability,
)
from .fan import build_Vn
from .picard import DivisorClass

WHATS = ("exceptional", "stability", "cardinality", "generation", "walls")
FORMATS = ("text", "json", "csv")
DEFAULT_SAMPLE = 500
# At n = 20 every check but walls, on the intact G_n and on a --mutate
# drop:0, takes 0.1-0.25 s and about 17 MB through the command: the full sweep
# and the generation check read their keys and Koszul terms off closed-form
# shapes (in process 0.5 s and 0.01 s at n = 40). Making or listing every
# member (build, gram) grows about 4x per step of 2: 4.3 s and 300 MB at
# n = 18, so about 20 s and 1.3 GB at n = 20. certificate lists one record per
# wall size, n/2 + 1 of them, read off closed-form shapes: about 0.1 s and
# 16 MB at n = 20
MAX_DIM = 20
REPORT_SCHEMA = "toric-exc/report/1"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dim < 2 or args.dim % 2:
        return _usage("n must be even")
    if args.dim > MAX_DIM:
        return _usage(f"n must be at most {MAX_DIM}")
    handler = {
        "build": cmd_build,
        "verify": cmd_verify,
        "cohomology": cmd_cohomology,
        "figure": cmd_figure,
        "gram": cmd_gram,
        "certificate": cmd_certificate,
    }[args.command]
    try:
        return handler(args)
    except OutputError as exc:
        return _usage(str(exc))
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one stderr line; subparsers share it."""

    def error(self, message):
        self.exit(2, f"error: {' '.join(message.split())}\n")


@cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toric-exc",
        description="Exceptional collections of line bundles on "
                    "centrally-symmetric toric Fano varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=FORMATS):
        p.add_argument("--dim", type=int, required=True,
                       help="even ambient dimension n")
        p.add_argument("--format", choices=fmt, default="text")
        p.add_argument("--out", help="write the payload to this file")
        p.add_argument("--allow-large", action="store_true",
                       help="permit sweeps that take minutes or more")

    p = sub.add_parser("build", help="emit the standard collection (or the fan)")
    common(p)
    p.add_argument("--fan", action="store_true", help="emit the fan instead")

    p = sub.add_parser("verify", help="run one of the verifiers")
    common(p, fmt=("text", "json"))
    p.add_argument("--what", choices=WHATS, default="exceptional")
    p.add_argument("--method", choices=METHODS, default="inequalities")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for pair sampling (default 0)")
    p.add_argument("--sample", type=int,
                   help="check only this many sampled ordered pairs")
    p.add_argument("--mutate",
                   help="damage the collection first: drop:IDX, add:c,J, swap:I,J")
    p.add_argument("--full-report", action="store_true",
                   help="include every pair verdict in the payload")

    p = sub.add_parser("cohomology", help="cohomology of one divisor class")
    common(p)
    p.add_argument("--coeffs", required=True,
                   help="comma-separated h,d_0,...,d_n")

    p = sub.add_parser("figure", help="emit the admissible (c, l) point set")
    common(p)

    p = sub.add_parser("gram", help="Euler pairing matrix of the collection")
    common(p)

    p = sub.add_parser("certificate", help="emit the generation certificate")
    common(p, fmt=("text", "json"))
    return parser


class OutputError(Exception):
    """The --out file cannot be opened, written or closed."""


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


# one PairResult at depth 2 of an indent-2 payload, as json.dumps writes the
# dict of its fields
_PAIR = ('    {\n      "source": %d,\n      "target": %d,\n      "relation": %s,\n'
         '      "ok": %s,\n      "detail": %s\n    }')


def _dumps(payload: dict) -> str:
    """json.dumps(payload, indent=2) of a non-empty dict, each PairResult
    written as the dict of its fields.

    json.dumps(d, indent=2) writes a dict as "{\n", then its items joined
    by ",\n", then "\n}"; an item is two spaces, the encoded key, ": " and
    the value written at depth 1, so its text depends on its key and value
    only. Each run of consecutive items whose value is not a non-empty
    tuple of PairResult is therefore cut out of json.dumps of the run
    alone, as a dict ([2:-2]). A non-empty tuple of PairResult (a
    report's violations or pair results) is written as json.dumps writes
    a list of dicts at depth 1, record by record from _PAIR: the two int
    positions with %d, as int.__repr__ writes them, ok as true or false,
    and the relation and detail strings through encode_basestring_ascii,
    the encoder json.dumps uses for every string under its default
    ensure_ascii. So no dict is made per pair, and the pairs skip the
    pure-Python encoder that any indent selects.
    """
    items = []  # the text between the commas that end a line, joined once
    for pairs, group in groupby(payload.items(), lambda item: _is_pairs(item[1])):
        if not pairs:
            items.append(json.dumps(dict(group), indent=2)[2:-2])
            continue
        for key, value in group:
            first = len(items)
            items += [_PAIR % (r.source, r.target, _string(r.relation),
                               "true" if r.ok else "false", _string(r.detail))
                      for r in value]
            items[first] = f"  {_string(key)}: [\n" + items[first]
            items[-1] += "\n  ]"
    items[0] = "{\n" + items[0]
    items[-1] += "\n}"
    return ",\n".join(items)


def _is_pairs(value) -> bool:
    return isinstance(value, tuple) and len(value) > 0 and isinstance(value[0], PairResult)


# -- build ---------------------------------------------------------------------


def cmd_build(args) -> int:
    n = args.dim
    if args.fan:
        fan = build_Vn(n)
        if args.format == "csv":
            return _usage("the fan has no csv form; use json or text")
        payload = {"schema": "toric-exc/fan/1", "rank": fan.rank,
                   "rays": [list(r) for r in fan.rays],
                   "cones": [sorted(c) for c in fan.max_cones]}
        if args.format == "json":
            _emit(args, _dumps(payload))
        else:
            lines = [f"rank {fan.rank}, {fan.nrays} rays, "
                     f"{len(fan.max_cones)} maximal cones"]
            lines += [f"ray {i}: {r}" for i, r in enumerate(fan.rays)]
            lines += [f"cone: {sorted(c)}" for c in fan.max_cones]
            _emit(args, "\n".join(lines))
        return 0
    collection = build_Gn(n)
    if args.format == "json":
        _emit(args, _dumps(collection_to_dict(collection)))
    elif args.format == "csv":
        lines = ["block,ell,c,J"]
        for bi, (ell, rows) in enumerate(labeled_blocks(collection)):
            lines += (f"{bi},{ell},{c},{'-'.join(map(str, j))}" for c, j in rows)
        _emit(args, "\n".join(lines))
    else:
        blocks = labeled_blocks(collection)
        lines = [f"collection for dim {n}: {collection.size} members "
                 f"in {len(blocks)} blocks"]
        for bi, (ell, rows) in enumerate(blocks):
            parts = (f"F({c},{{{','.join(map(str, j))}}})" for c, j in rows)
            lines.append(f"block {bi} (l = {ell}): " + "  ".join(parts))
        _emit(args, "\n".join(lines))
    return 0


# -- verify ----------------------------------------------------------------------


def sample_pairs(size: int, count: int, seed: int):
    """count distinct ordered pairs drawn without replacement, or None for all."""
    universe = size * (size - 1)
    if count >= universe:
        return None
    rng = random.Random(seed)
    pairs = []
    for p in rng.sample(range(universe), count):
        i, r = divmod(p, size - 1)
        pairs.append((i, r + (r >= i)))
    return pairs


def cmd_verify(args) -> int:
    n = args.dim
    what = args.what
    if what == "walls":
        if args.mutate:
            return _usage("the wall check has no collection to mutate")
        from .windows import WallMismatch, verify_walls
        try:
            check = verify_walls(n)
        except WallMismatch as exc:
            return _verdict(args, False, f"wall check FAILED: {exc}", error=str(exc))
        return _verdict(args, True,
                        f"wall check ok: {check.circuit_count} circuits "
                        f"({check.pair_count} antipodal pairs, "
                        f"{check.sign_choice_count} slot choices)",
                        circuits=check.circuit_count, pairs=check.pair_count,
                        sign_choices=check.sign_choice_count)

    collection = build_Gn(n)
    if args.mutate:
        try:
            collection = apply_mutation(collection, args.mutate)
        except ValueError as exc:
            return _usage(str(exc))

    if what == "cardinality":
        ok = collection.size == expected_size(n)
        return _verdict(args, ok,
                        f"cardinality {'ok' if ok else 'FAILED'}: "
                        f"{collection.size} members, expected {expected_size(n)}",
                        size=collection.size, expected=expected_size(n))

    if what == "stability":
        report = verify_stability(collection)
        return _verdict(args, report.ok, f"stability {report.headline()}",
                        failures=list(report.failures))

    if what == "generation":
        from .windows import KoszulEscape, WindowViolation, verify_generation
        try:
            check = verify_generation(n, collection)
        except (WindowViolation, KoszulEscape) as exc:
            return _verdict(args, False, f"generation FAILED: {exc}", error=str(exc))
        return _verdict(args, True,
                        f"generation ok: {check.walls} walls, "
                        f"{check.pieces} pieces, base case {check.base_case}",
                        walls=check.walls, pieces=check.pieces,
                        base_case=check.base_case)

    # what == "exceptional"
    method = args.method
    sample = None
    if args.sample is not None:
        if args.sample <= 0:
            return _usage("--sample must be positive")
        sample = sample_pairs(collection.size, args.sample, args.seed)
    elif method == "oracle" and n >= 6 and not args.allow_large:
        sample = sample_pairs(collection.size, DEFAULT_SAMPLE, args.seed)
    if method == "forbidden" and n >= 8 and args.sample is None and not args.allow_large:
        return _usage("the forbidden-cone sweep is slow for dim >= 8; "
                      "pass --allow-large to run it")
    report = verify_exceptional(collection, method, sample=sample,
                                full_report=args.full_report)
    return _verdict(args, report.ok, _report_text(report), **_report_fields(report))


def _report_fields(report: Report) -> dict:
    """The report's JSON fields; its PairResult tuples are left for _dumps to write."""
    fields = {"method": report.method, "size": report.size, "expected": report.expected,
              "complete": report.complete, "pairs_checked": report.pairs_checked,
              "sampled": report.sampled, "violations": report.violations}
    if report.pair_results is not None:
        fields["pair_results"] = report.pair_results
    return fields


def _report_text(report: Report) -> str:
    lines = [f"members: {report.size} (expected {report.expected})",
             f"method: {report.method}",
             f"pairs checked: {report.pairs_checked}"
             + (" (sampled)" if report.sampled else "")]
    for v in report.violations[:5]:
        lines.append(f"violation {v.source}->{v.target} ({v.relation}): {v.detail}")
    if len(report.violations) > 5:
        lines.append(f"... and {len(report.violations) - 5} more violations")
    lines.append("result: ok" if report.ok else "result: FAILED")
    return "\n".join(lines)


def _verdict(args, ok: bool, text: str, **fields) -> int:
    """Emit a check's report, as JSON or as text, and return its exit code."""
    if args.format == "json":
        _emit(args, _dumps({"schema": REPORT_SCHEMA, "what": args.what, "n": args.dim,
                            "ok": ok, **fields}))
    else:
        _emit(args, text)
    return 0 if ok else 1


# -- cohomology --------------------------------------------------------------------


def cmd_cohomology(args) -> int:
    n = args.dim
    try:
        coeffs = tuple(int(x) for x in args.coeffs.split(","))
    except ValueError:
        return _usage("--coeffs wants comma-separated integers")
    if len(coeffs) != n + 2:
        return _usage(f"--coeffs wants {n + 2} integers for dim {n}")
    graded = cohomology(build_Vn(n), DivisorClass(coeffs))
    if args.format == "json":
        _emit(args, _dumps({"schema": "toric-exc/cohomology/1", "n": n,
                            "coeffs": list(coeffs), "h": list(graded.ranks),
                            "euler": graded.euler}))
    elif args.format == "csv":
        lines = ["degree,rank"] + [f"{p},{r}" for p, r in enumerate(graded.ranks)]
        _emit(args, "\n".join(lines))
    else:
        terms = "  ".join(f"h^{p} = {r}" for p, r in enumerate(graded.ranks))
        _emit(args, f"{terms}  (euler {graded.euler})")
    return 0


# -- figure ------------------------------------------------------------------------

FIGURE_NOTE = ("note: listing derivations with multiplicity would show 27 "
               "tokens, with (4, 8) and (4, 9) each appearing twice; the 25 "
               "distinct pairs are emitted once each")


def cmd_figure(args) -> int:
    n = args.dim
    points = build_Fn(n)
    note = FIGURE_NOTE if n == 8 else None
    if args.format == "json":
        payload = {"schema": "toric-exc/figure/1", "n": n,
                   "points": [[c, ell] for c, ell in points]}
        if note:
            payload["note"] = note
        _emit(args, _dumps(payload))
    elif args.format == "csv":
        _emit(args, "\n".join(["c,ell"] + [f"{c},{ell}" for c, ell in points]))
    else:
        _emit(args, "\n".join(f"c = {c:3d}  l = {ell}" for c, ell in points))
    # after the payload, so an --out that cannot be written prints one line
    if note:
        print(note, file=sys.stderr)
    return 0


# -- gram --------------------------------------------------------------------------


def cmd_gram(args) -> int:
    n = args.dim
    if n >= 6 and not args.allow_large:
        return _usage("the Euler pairing sweep is slow for dim >= 6; "
                      "pass --allow-large to run it")
    matrix = gram_matrix(build_Gn(n))
    if args.format == "json":
        _emit(args, _dumps({"schema": "toric-exc/gram/1", "n": n,
                            "matrix": [list(row) for row in matrix]}))
    elif args.format == "csv":
        _emit(args, "\n".join(",".join(map(str, row)) for row in matrix))
    else:
        width = max(len(str(x)) for row in matrix for x in row)
        _emit(args, "\n".join(" ".join(f"{x:{width}d}" for x in row)
                              for row in matrix))
    return 0


# -- certificate -------------------------------------------------------------------


def cmd_certificate(args) -> int:
    from .windows import KoszulEscape, WindowViolation, build_certificate, certificate_to_dict

    n = args.dim
    try:
        certificate = build_certificate(n)
    except (WindowViolation, KoszulEscape) as exc:
        print(f"certificate construction failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit(args, _dumps(certificate_to_dict(certificate)))
    else:
        lines = [f"generation certificate for dim {n}: "
                 f"{sum(record.walls for record in certificate.sizes)} walls, "
                 f"gauge d = {certificate.d}, base case {certificate.base_case}"]
        for record in certificate.sizes:
            pieces = ", ".join(f"a = {a} ({branch}, {2 ** record.size} terms)"
                               for a, _, branch, _ in record.pieces)
            lines.append(f"|J| = {record.size}: {record.walls} walls, window {record.window}, "
                         f"wall range {record.wall_range}: {pieces}")
        _emit(args, "\n".join(lines))
    return 0
