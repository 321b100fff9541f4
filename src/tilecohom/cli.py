"""Command-line front end: check, homology, cohomology, spectral, limit.

Exit codes: 0 success, 1 domain error (validation or precondition failure),
2 usage error.  Output is deterministic for identical inputs; --json emits
exactly one document.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys

from . import complexes, spectral, tilings
from .dirlimit import direct_limit
from .exactalg import ExactAlgError, IntMatrix
from .groups import FgAbelianGroup, GroupError, GroupHom, from_divisors
from .record import Record, TilecohomError, decimal

# An integer on the command line, as in a spec file: int() alone would also
# read other Unicode digits, underscores and surrounding spaces.
_INTEGER = re.compile(r"[+-]?[0-9]+")

_DOMAIN_ERRORS = (TilecohomError, OSError)

# Help wraps at argparse's width for a pipe with $COLUMNS unset, in any terminal.
_HELP_FORMAT = functools.partial(argparse.HelpFormatter, width=78)


class CommandResult(Record):
    exit_code: int
    stdout: str


def _load_target(args) -> tilings.TilingSpec:
    if args.path is None:
        return tilings.builtin(args.builtin)
    try:
        fh = open(args.path, "r", encoding="utf-8")
    except ValueError as e:  # a NUL byte in the path
        raise tilings.SpecError("%r: %s" % (args.path, e)) from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise tilings.SpecError("%s: not UTF-8 text (%s)" % (args.path, e)) from None
    return tilings.load_spec(text)


def _add_target(sub):
    """Exactly one spec target: argparse reports a missing or doubled one."""
    target = sub.add_mutually_exclusive_group(required=True)
    target.add_argument("path", nargs="?", help="spec file (JSON)")
    target.add_argument("--builtin", help="name of a builtin spec")


def _json(doc):
    """doc as one JSON document.  A document of str, int, list and dict fails
    to encode only on an int with more digits than Python writes."""
    try:
        return CommandResult(0, json.dumps(doc, indent=2) + "\n")
    except ValueError:
        raise TilecohomError("an integer of the result is too long to print") from None


def _text(lines):
    return CommandResult(0, "\n".join(lines) + "\n")


def _cmd_check(args):
    spec = _load_target(args)
    issues = tilings.validate_spec(spec)
    lines = ["%s: %s" % (spec.name, "invalid" if issues else "ok")]
    lines.extend("  " + issue for issue in issues)
    return CommandResult(1 if issues else 0, "\n".join(lines) + "\n")


def _cmd_homology(args):
    spec = _load_target(args)
    analysis = complexes.build_chain_complex(spec, args.mode.replace("-", "_"))
    results = analysis.groups(None if args.degree is None else [args.degree], args.limit)
    doc = {"spec": spec.name, "mode": args.mode, "limit": bool(args.limit),
           "groups": {str(k): g.render() for k, g in results.items()}}
    if args.limit:
        doc["status"] = {str(k): g.status for k, g in results.items()}
    if args.json:
        return _json(doc)
    return _text(["H_%s = %s" % kg for kg in doc["groups"].items()])


def _cech(hc):
    """The Cech groups, extension flags and notes of a hull, as fields."""
    return {"cech": [g.render() for g in hc.groups],
            "flags": [list(f) for f in hc.extension_flags],
            "notes": list(hc.notes)}


def _flags_and_notes(doc):
    return (["flag H^%d: %s" % (i, f) for i, flags in enumerate(doc["flags"]) for f in flags]
            + ["note: " + n for n in doc["notes"]])


def _cmd_cohomology(args):
    spec = _load_target(args)
    hc = spectral.hull_cohomology(spec, args.hull.replace("-", "_"))
    doc = {"spec": spec.name, "hull": args.hull, **_cech(hc)}
    if args.json:
        return _json(doc)
    return _text(["H^%d = %s" % ig for ig in enumerate(doc["cech"])] + _flags_and_notes(doc))


def _page_row(page, q):
    return [page.entry(p, q).render() for p in range(3)]


def _cmd_spectral(args):
    spec = _load_target(args)
    ss = spectral.spectral_sequence(spec)
    sigma = ss.d2_class
    order = "infinite" if ss.d2_order is None else decimal(ss.d2_order)
    doc = {
        "spec": spec.name,
        "e2": {"q1": _page_row(ss.e2, 1), "q0": _page_row(ss.e2, 0)},
        "d2": {"image": {"free": list(sigma.free_coords), "torsion": list(sigma.torsion_coords)},
               "in": sigma.owner.render(), "order": order},
        "einf": {"q1": _page_row(ss.einf, 1), "q0": _page_row(ss.einf, 0)},
        **_cech(ss.cohomology),
    }
    if args.json:
        return _json(doc)
    d2 = doc["d2"]
    image = "(%s; %s)" % tuple(", ".join(map(decimal, c)) for c in d2["image"].values())
    return _text([
        "E2  q=1: " + "  ".join(doc["e2"]["q1"]),
        "E2  q=0: " + "  ".join(doc["e2"]["q0"]),
        "d2 image = %s in %s, order %s" % (image, d2["in"], d2["order"]),
        "Einf q=1: " + "  ".join(doc["einf"]["q1"]),
        "Einf q=0: " + "  ".join(doc["einf"]["q0"]),
        "Cech: " + "  ".join("H^%d = %s" % ig for ig in enumerate(doc["cech"])),
    ] + _flags_and_notes(doc))


def integer(token: str) -> int:
    """token by the _INTEGER rule; argparse names it in a bad --degree's error."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


def parse_group(text: str) -> FgAbelianGroup:
    """Inverse of the rendering: '0', 'Z', 'Z^r' and 'Z/d' joined by ' + '."""
    text = text.strip()
    if text == "0":
        return FgAbelianGroup.trivial()
    free = 0
    torsion = []
    for token in text.split("+"):
        token = token.strip()
        try:
            if token == "Z":
                free += 1
            elif token.startswith("Z^"):
                rank = integer(token[2:])
                if rank < 0:
                    raise ValueError(token)
                free += rank
            elif token.startswith("Z/"):
                torsion.append(integer(token[2:]))
            else:
                raise ValueError(token)
        except ValueError:
            raise GroupError("cannot parse group token %r" % token) from None
    return from_divisors(torsion, extra_free=free)


def parse_matrix(text: str) -> IntMatrix:
    """Rows separated by ';', entries by ','; blank text is the 0x0 matrix."""
    rows = []
    for row in text.split(";") if text.strip() else ():
        entries = row.replace(",", " ").split()
        try:
            rows.append([integer(e) for e in entries])
        except ValueError:
            raise ExactAlgError("cannot parse matrix row %r" % row.strip()) from None
    return IntMatrix.from_rows(rows)


def _cmd_limit(args):
    group = parse_group(args.group)
    matrix = parse_matrix(args.matrix)
    lim = direct_limit(group, GroupHom(group, group, matrix))
    doc = {
        "limit": lim.render(),
        "status": lim.status,
        "free_summands": [[m, r] for m, r in lim.free_summands],
        "torsion": list(lim.torsion.torsion),
        "notes": list(lim.notes),
    }
    if lim.status == "undetermined":
        doc["lattice_rank"] = lim.lattice_rank
        doc["p_divisible_ranks"] = [[p, r] for p, r in lim.p_divisible_ranks]
    if args.json:
        # The text omits the input group, whose normal form can be too long
        # to print when the limit is not (Z/a + Z/b is Z/ab for coprime a, b).
        return _json({"group": group.render(), **doc})
    lines = ["limit = %s (status %s)" % (doc["limit"], doc["status"])]
    lines.extend("note: " + n for n in doc["notes"])
    if "lattice_rank" in doc:
        profile = ", ".join("%d:%d" % tuple(pr) for pr in doc["p_divisible_ranks"])
        lines.append("lattice rank %d, p-divisible ranks %s"
                     % (doc["lattice_rank"], profile or "none"))
    return _text(lines)


def _cmd_builtin(args):
    return _text(tilings.builtin_names())


def _homology_arguments(p):
    _add_target(p)
    p.add_argument("--mode", choices=["rigid", "rigid-modified", "translation"], required=True)
    p.add_argument("--degree", type=integer, default=None)
    p.add_argument("--limit", action="store_true",
                   help="substitution direct limits instead of approximant groups")
    p.add_argument("--json", action="store_true")


def _cohomology_arguments(p):
    _add_target(p)
    p.add_argument("--hull", choices=["translation", "rotation-quotient", "rigid"],
                   required=True)
    p.add_argument("--json", action="store_true")


def _spectral_arguments(p):
    _add_target(p)
    p.add_argument("--json", action="store_true")


def _limit_arguments(p):
    p.add_argument("--group", required=True, help="e.g. 'Z^2 + Z/5'")
    p.add_argument("--matrix", required=True,
                   help="endomorphism on canonical coordinates, rows ';'-separated")
    p.add_argument("--json", action="store_true")


def _builtin_arguments(p):
    p.add_argument("action", choices=["list"])


# (name, help, add-arguments function, handler) of each subcommand, in usage order.
_COMMANDS = (
    ("check", "validate a spec", _add_target, _cmd_check),
    ("homology", "pattern-equivariant homology groups", _homology_arguments, _cmd_homology),
    ("cohomology", "Cech cohomology of a hull", _cohomology_arguments, _cmd_cohomology),
    ("spectral", "rigid-hull spectral sequence report", _spectral_arguments, _cmd_spectral),
    ("limit", "ad-hoc stationary direct limit", _limit_arguments, _cmd_limit),
    ("builtin", "corpus utilities", _builtin_arguments, _cmd_builtin),
)


def _build_parser(argv):
    """The parser, with the arguments of only the subcommands argv names:
    argparse runs a subcommand on its exact name alone, so every parse, help
    text and usage error is the full parser's."""
    parser = argparse.ArgumentParser(
        prog="tilecohom",
        formatter_class=_HELP_FORMAT,
        description="Exact homology, direct limits and rigid-hull spectral "
                    "sequences for combinatorial tiling specs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary, formatter_class=_HELP_FORMAT)
        if name in argv:
            add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def _attach_negative_matrix(argv):
    """'--matrix -1,0;0,1' as '--matrix=-1,0;0,1'.  argparse reads a spaced
    value that starts with '-' as an option unless it is a plain number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--matrix" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = "--matrix=" + arg
        else:
            out.append(arg)
    return out


def run_command(argv) -> CommandResult:
    argv = _attach_negative_matrix(argv)
    help_text = io.StringIO()  # --help: the command's stdout, not the process's
    try:
        with contextlib.redirect_stdout(help_text):
            args = _build_parser(argv).parse_args(argv)
    except SystemExit as e:  # argparse writes its usage errors to stderr
        return CommandResult(0 if e.code in (0, None) else 2, help_text.getvalue())
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return CommandResult(1, "")


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if not result.stdout:
        return result.exit_code
    problem = "stdout is closed"  # sys.stdout is None when fd 1 was closed at start
    if sys.stdout is not None:
        try:
            sys.stdout.write(result.stdout)
            sys.stdout.flush()
            return result.exit_code
        except BrokenPipeError as e:
            # stdout's fd goes to devnull, or the flush at exit raises again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            problem = e
    print("error: cannot write the result: %s" % problem, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
