"""Command-line front end: check, homology, cohomology, spectral, limit.

Exit codes: 0 success, 1 domain error (validation or precondition failure),
2 usage error.  Output is deterministic for identical inputs; --json emits
exactly one document.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys

from . import complexes, spectral, tilings
from .complexes import MODE_RIGID, MODE_RIGID_MODIFIED, MODE_TRANSLATION
from .dirlimit import DirectLimitError, direct_limit
from .exactalg import ExactAlgError, IntMatrix
from .groups import FgAbelianGroup, GroupError, GroupHom, from_divisors
from .record import Record

_MODE_FLAG = {
    "translation": MODE_TRANSLATION,
    "rigid": MODE_RIGID,
    "rigid-modified": MODE_RIGID_MODIFIED,
}

# An integer on the command line, as in a spec file: int() alone would also
# read other Unicode digits, underscores and surrounding spaces.
_INTEGER = re.compile(r"[+-]?[0-9]+")

_DOMAIN_ERRORS = (tilings.SpecError, complexes.ComplexError, GroupError,
                  spectral.SpectralError, DirectLimitError, ExactAlgError,
                  OSError)


class CommandResult(Record):
    exit_code: int
    stdout: str


class _UsageError(Exception):
    pass


def _load_target(args) -> tilings.TilingSpec:
    if args.builtin and args.path:
        raise _UsageError("give either a spec path or --builtin, not both")
    if args.builtin:
        return tilings.builtin(args.builtin)
    if args.path:
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
    raise _UsageError("a spec path or --builtin is required")


def _add_target(sub):
    sub.add_argument("path", nargs="?", help="spec file (JSON)")
    sub.add_argument("--builtin", help="name of a builtin spec")


def _element_json(el):
    return {"free": list(el.free_coords), "torsion": list(el.torsion_coords)}


def _element_text(el):
    free = ", ".join(str(x) for x in el.free_coords)
    tors = ", ".join(str(x) for x in el.torsion_coords)
    return "(%s; %s)" % (free, tors)


def _cmd_check(args):
    spec = _load_target(args)
    report = tilings.validate_spec(spec)
    lines = ["%s: %s" % (spec.name, "ok" if report.passed else "invalid")]
    lines.extend("  " + issue for issue in report.issues)
    return CommandResult(0 if report.passed else 1, "\n".join(lines) + "\n")


def _cmd_homology(args):
    spec = _load_target(args)
    analysis = complexes.Analysis(spec, _MODE_FLAG[args.mode])
    results = analysis.groups(None if args.degree is None else [args.degree], args.limit)
    if args.json:
        doc = {
            "spec": spec.name,
            "mode": args.mode,
            "limit": bool(args.limit),
            "groups": {str(k): g.render() for k, g in results.items()},
        }
        if args.limit:
            doc["status"] = {str(k): g.status for k, g in results.items()}
        return CommandResult(0, json.dumps(doc, indent=2) + "\n")
    lines = ["H_%d = %s" % (k, g.render()) for k, g in results.items()]
    return CommandResult(0, "\n".join(lines) + "\n")


def _cech_output(hc, as_json, inline=False):
    """Cech groups, extension flags and notes of a hull: JSON fields, or text
    lines with the groups one per line or, if inline, on one line."""
    if as_json:
        return {"cech": [g.render() for g in hc.groups],
                "flags": [list(f) for f in hc.extension_flags],
                "notes": list(hc.notes)}
    groups = ["H^%d = %s" % (i, g.render()) for i, g in enumerate(hc.groups)]
    lines = ["Cech: " + "  ".join(groups)] if inline else groups
    lines.extend("flag H^%d: %s" % (i, f)
                 for i, flags in enumerate(hc.extension_flags) for f in flags)
    lines.extend("note: " + n for n in hc.notes)
    return lines


def _cmd_cohomology(args):
    spec = _load_target(args)
    if args.hull == "rigid":
        hc = spectral.rigid_hull_cohomology(spec)
    elif args.hull == "rotation-quotient":
        hc = spectral.hull_cohomology(spec, spectral.HULL_ROTATION_QUOTIENT)
    else:
        hc = spectral.hull_cohomology(spec, spectral.HULL_TRANSLATION)
    if args.json:
        doc = {"spec": spec.name, "hull": args.hull}
        doc.update(_cech_output(hc, True))
        return CommandResult(0, json.dumps(doc, indent=2) + "\n")
    return CommandResult(0, "\n".join(_cech_output(hc, False)) + "\n")


def _page_row(page, q):
    return [page.entry(p, q).render() for p in range(3)]


def _cmd_spectral(args):
    spec = _load_target(args)
    ss = spectral.spectral_sequence(spec)
    sigma = ss.d2_class
    order_str = "infinite" if ss.d2_order is None else str(ss.d2_order)
    if args.json:
        doc = {
            "spec": spec.name,
            "e2": {"q1": _page_row(ss.e2, 1), "q0": _page_row(ss.e2, 0)},
            "d2": {"image": _element_json(sigma),
                   "in": sigma.owner.render(),
                   "order": order_str},
            "einf": {"q1": _page_row(ss.einf, 1), "q0": _page_row(ss.einf, 0)},
        }
        doc.update(_cech_output(ss.cohomology, True))
        return CommandResult(0, json.dumps(doc, indent=2) + "\n")
    lines = [
        "E2  q=1: " + "  ".join(_page_row(ss.e2, 1)),
        "E2  q=0: " + "  ".join(_page_row(ss.e2, 0)),
        "d2 image = %s in %s, order %s"
        % (_element_text(sigma), sigma.owner.render(), order_str),
        "Einf q=1: " + "  ".join(_page_row(ss.einf, 1)),
        "Einf q=0: " + "  ".join(_page_row(ss.einf, 0)),
    ]
    lines.extend(_cech_output(ss.cohomology, False, inline=True))
    return CommandResult(0, "\n".join(lines) + "\n")


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
    endo = GroupHom(group, group, matrix)
    lim = direct_limit(group, endo)
    if args.json:
        doc = {
            "group": group.render(),
            "limit": lim.render(),
            "status": lim.status,
            "free_summands": [[m, r] for m, r in lim.free_summands],
            "torsion": list(lim.torsion.torsion),
            "notes": list(lim.notes),
        }
        if lim.status == "undetermined":
            doc["lattice_rank"] = lim.lattice_rank
            doc["p_divisible_ranks"] = [[p, r] for p, r in lim.p_divisible_ranks]
        return CommandResult(0, json.dumps(doc, indent=2) + "\n")
    lines = ["limit = %s (status %s)" % (lim.render(), lim.status)]
    lines.extend("note: " + n for n in lim.notes)
    if lim.status == "undetermined":
        profile = ", ".join("%d:%d" % pr for pr in lim.p_divisible_ranks)
        lines.append("lattice rank %d, p-divisible ranks %s"
                     % (lim.lattice_rank, profile or "none"))
    return CommandResult(0, "\n".join(lines) + "\n")


def _cmd_builtin(args):
    return CommandResult(0, "\n".join(tilings.builtin_names()) + "\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tilecohom",
        description="Exact homology, direct limits and rigid-hull spectral "
                    "sequences for combinatorial tiling specs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a spec")
    _add_target(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("homology", help="pattern-equivariant homology groups")
    _add_target(p)
    p.add_argument("--mode", choices=sorted(_MODE_FLAG), required=True)
    p.add_argument("--degree", type=integer, default=None)
    p.add_argument("--limit", action="store_true",
                   help="substitution direct limits instead of approximant groups")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("cohomology", help="Cech cohomology of a hull")
    _add_target(p)
    p.add_argument("--hull", choices=["translation", "rotation-quotient", "rigid"],
                   required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("spectral", help="rigid-hull spectral sequence report")
    _add_target(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("limit", help="ad-hoc stationary direct limit")
    p.add_argument("--group", required=True, help="e.g. 'Z^2 + Z/5'")
    p.add_argument("--matrix", required=True,
                   help="endomorphism on canonical coordinates, rows ';'-separated")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("builtin", help="corpus utilities")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_builtin)

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
    parser = _build_parser()
    help_text = io.StringIO()  # --help: the command's stdout, not the process's
    try:
        with contextlib.redirect_stdout(help_text):
            args = parser.parse_args(_attach_negative_matrix(argv))
    except SystemExit as e:  # argparse writes its usage errors to stderr
        return CommandResult(0 if e.code in (0, None) else 2, help_text.getvalue())
    try:
        return args.func(args)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return CommandResult(2, "")
    except _DOMAIN_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return CommandResult(1, "")


def main(argv=None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(result.stdout)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
