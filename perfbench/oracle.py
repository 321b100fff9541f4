"""Correctness checks that never touch the program's SNF path.

Each check takes an op (as built by the workloads) and one observed outcome
(exit code, stdout) and returns None when the outcome is right, or a one-line
reason when it is wrong.

- corpus: byte comparison with golden outputs captured from the seed commit.
- scale: ranks over Q (fraction-free elimination) and over F_p (p = 2, 3, 5, 7)
  of the generated boundary matrices give, through the universal coefficient
  theorem, the free rank of each H_k and the number of its invariant factors
  divisible by p; the Euler characteristic is checked on the reported groups.
  `spectral` is also checked on its d2 class, E-infinity page, Cech groups,
  extension flags and notes.
- limits: comparison with the generator's derived stdout.
"""

from __future__ import annotations

import re

from gen import prime_factors, radical

PRIMES = (2, 3, 5, 7)

# --------------------------------------------------------------------------
# ranks


def rank_q(rows):
    """Exact rank over Q by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[rank])]
        prev = p
        rank += 1
        if rank == len(a):
            break
    return rank


def rank_mod(rows, p):
    a = [[x % p for x in r] for r in rows]
    a = [r for r in a if any(r)]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def homology_profile(ranks, boundaries):
    """Per degree k: (free rank, {p: number of invariant factors divisible by p}).

    `boundaries[k]` is d_k: C_k -> C_{k-1} for k = 1..top, as row lists.
    """
    top = len(ranks) - 1

    def rk(k, fn):
        return fn(boundaries[k]) if 1 <= k <= top else 0

    rq = {k: rk(k, rank_q) for k in range(top + 2)}
    free = [ranks[k] - rq[k] - rq[k + 1] for k in range(top + 1)]
    tors = [{} for _ in range(top + 1)]
    for p in PRIMES:
        rp = {k: rk(k, lambda m: rank_mod(m, p)) for k in range(top + 2)}
        below = 0
        for k in range(top + 1):
            # dim H_k(C; F_p) = free_k + t_k(p) + t_{k-1}(p)
            t = ranks[k] - rp[k] - rp[k + 1] - free[k] - below
            tors[k][p] = t
            below = t
    return [(free[k], tors[k]) for k in range(top + 1)]


# --------------------------------------------------------------------------
# parsing rendered groups

_TOKEN = re.compile(r"^Z(?:\[1/(\d+)\])?(?:\^(\d+))?$")


def parse_group(text):
    """(free summands {m: rank}, torsion list, undetermined rank) of a rendering."""
    text = text.strip()
    free, torsion, undetermined = {}, [], 0
    if text == "0":
        return free, torsion, undetermined
    for token in text.split(" + "):
        m = re.fullmatch(r"\(undetermined rank (\d+)\)", token)
        if m:
            undetermined = int(m.group(1))
            continue
        if token.startswith("Z/"):
            torsion.append(int(token[2:]))
            continue
        m = _TOKEN.match(token)
        if not m:
            raise ValueError("cannot parse group token %r" % token)
        base = int(m.group(1) or 1)
        free[base] = free.get(base, 0) + int(m.group(2) or 1)
    return free, torsion, undetermined


def _invariant_form(torsion):
    return all(d >= 2 for d in torsion) and all(
        b % a == 0 for a, b in zip(torsion, torsion[1:]))


def _check_group(text, expected, multiplier=None):
    """Compare a rendered group with the (free rank, torsion counts) profile.

    With a multiplier m the group is the direct limit under m*I: the free part
    is Z[1/rad(m)]^free and torsion keeps only primes not dividing m.
    """
    free, torsion, undetermined = parse_group(text)
    want_free, want_tors = expected
    if undetermined or not _invariant_form(torsion):
        return "group %r is not a normal form" % text
    base = 1 if multiplier is None else radical(multiplier)
    if want_free and free != {base: want_free}:
        return "group %r: free part should be rank %d over Z[1/%d]" % (text, want_free, base)
    if not want_free and free:
        return "group %r: free part should be trivial" % text
    for p, t in want_tors.items():
        if multiplier is not None and multiplier % p == 0:
            t = 0
        got = sum(1 for d in torsion if d % p == 0)
        if got != t:
            return "group %r: %d invariant factors divisible by %d, expected %d" % (
                text, got, p, t)
    return None


def _euler(groups):
    return sum((-1) ** k * sum(parse_group(g)[0].values()) for k, g in enumerate(groups))


# --------------------------------------------------------------------------
# scale


def scale_profiles(case):
    ranks = case["ranks"]
    plain = homology_profile(ranks, {1: case["d1"], 2: case["d2"]})
    modified = homology_profile(ranks, {1: case["d1"], 2: case["modified_d2"]})
    return plain, modified


def _lines_with(prefix, stdout):
    return [line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix)]


def _split_row(text):
    return [g.strip() for g in text.split("  ") if g.strip()]


def _sum_elementary(groups):
    """(free rank, sorted elementary divisors) of a direct sum of renderings."""
    free, elementary = 0, []
    for g in groups:
        f, torsion, _ = parse_group(g)
        free += sum(f.values())
        for d in torsion:
            for p in prime_factors(d):
                q = p
                while d % (q * p) == 0:
                    q *= p
                elementary.append(q)
    return free, sorted(elementary)


def check_scale(case, check, profiles, exit_code, stdout):
    if exit_code != 0:
        return "exit code %d" % exit_code
    plain, modified = profiles
    euler = sum((-1) ** k * c for k, c in enumerate(case["ranks"]))
    try:
        groups = [line.split(" = ", 1)[-1] for line in stdout.splitlines()]
        label = "H^%d" if check == "rotation_quotient" else "H_%d"
        if check != "spectral" and (len(groups) != 3 or stdout != "".join(
                "%s = %s\n" % (label % k, g) for k, g in enumerate(groups))):
            return "unexpected layout"
        if check in ("homology", "homology_limit"):
            mult = case["multiplier"] if check == "homology_limit" else None
            for k, g in enumerate(groups):
                bad = _check_group(g, plain[k], mult)
                if bad:
                    return "H_%d: %s" % (k, bad)
            if _euler(groups) != euler:
                return "Euler characteristic %d != %d" % (_euler(groups), euler)
            return None
        if check == "rotation_quotient":
            for i, g in enumerate(groups):  # H^i = H_{2-i} of the modified complex
                bad = _check_group(g, modified[2 - i])
                if bad:
                    return "H^%d: %s" % (i, bad)
            if _euler(groups[::-1]) != euler:
                return "Euler characteristic mismatch"
            return None
        return _check_spectral(case, plain, modified, stdout)
    except (ValueError, IndexError) as e:
        return "unparseable output: %s" % e


def _check_spectral(case, plain, modified, stdout):
    (e2u,) = _lines_with("E2  q=1: ", stdout)
    (e2m,) = _lines_with("E2  q=0: ", stdout)
    (d2,) = _lines_with("d2 image = ", stdout)
    (einfu,) = _lines_with("Einf q=1: ", stdout)
    (einfm,) = _lines_with("Einf q=0: ", stdout)
    (cech,) = _lines_with("Cech: ", stdout)
    e2u, e2m, einfu, einfm = map(_split_row, (e2u, e2m, einfu, einfm))
    for row, profile, label in ((e2u, plain, "q=1"), (e2m, modified, "q=0")):
        if len(row) != 3:
            return "E2 %s has %d entries" % (label, len(row))
        for p, g in enumerate(row):
            bad = _check_group(g, profile[p])
            if bad:
                return "E2 (%d,%s): %s" % (p, label, bad)
    # The graph is connected, so H_0 = Z via the augmentation and the winding
    # class is the total winding number s: infinite order unless s = 0.
    s = sum(case["winding"])
    m = re.fullmatch(r"\((-?\d+); \) in Z, order (\S+)", d2)
    if e2u[0] != "Z" or not m:
        return "d2 line %r" % d2
    if abs(int(m.group(1))) != abs(s) or m.group(2) != ("infinite" if s else "1"):
        return "d2 class %r, expected total winding %d" % (d2, s)
    want_inf = {(0, 1): "0" if abs(s) == 1 else ("Z/%d" % abs(s) if s else "Z"),
                (1, 1): e2u[1], (2, 1): e2u[2],
                (0, 0): e2m[0], (1, 0): e2m[1], (2, 0): "0" if s else "Z"}
    got_inf = {(p, 1): einfu[p] for p in range(3)}
    got_inf.update({(p, 0): einfm[p] for p in range(3)})
    if got_inf != want_inf:
        return "Einf %r, expected %r" % (got_inf, want_inf)
    cech_groups = re.findall(r"H\^(\d) = (.*?)(?=  H\^|$)", cech)
    if [int(i) for i, _ in cech_groups] != [0, 1, 2, 3]:
        return "Cech line %r" % cech
    for i, g in cech_groups:
        n = 3 - int(i)
        parts = [want_inf[(p, q)] for (p, q) in sorted(want_inf) if p + q == n]
        if _sum_elementary([g]) != _sum_elementary(parts) or not _invariant_form(
                parse_group(g)[1]):
            return "Cech H^%s = %r does not match E-infinity %r" % (i, g, parts)
    flags = {int(i) for i in re.findall(r"^flag H\^(\d): assumed_split$", stdout, re.M)}
    want_flags = set()
    for i in range(4):
        parts = [want_inf[(p, q)] for (p, q) in want_inf if p + q == 3 - i]
        nonzero = [g for g in parts if g != "0"]
        if len(nonzero) >= 2 and any(parse_group(g)[1] for g in nonzero):
            want_flags.add(i)
    if flags != want_flags:
        return "extension flags %r, expected %r" % (sorted(flags), sorted(want_flags))
    note = "note: winding class has infinite order; the (2,0) entry dies"
    if (note in stdout.splitlines()) != bool(s):
        return "winding note present=%s for total winding %d" % (note in stdout, s)
    return None


# --------------------------------------------------------------------------
# corpus and limits


def check_exact(expected_exit, expected_stdout, exit_code, stdout):
    if exit_code != expected_exit:
        return "exit code %d, expected %d" % (exit_code, expected_exit)
    if stdout != expected_stdout:
        return "stdout differs from the expected bytes"
    return None
