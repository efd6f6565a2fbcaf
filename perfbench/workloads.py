"""Seeded CLI requests for the benchmark, built with the standard library only.

Polynomials are dicts {exponent tuple: coefficient}, with int coefficients
over Q and ints in [0, p) over F_p; Fraction is used for the rank test of a
change over Q.  Linear changes are
expanded here rather than through hypersect.poly, so a later change to the
package cannot change the inputs it is measured on.  The package only ever
sees the argv text these functions return.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

P = 101  # the prime field used next to Q

WORKLOADS = ("probe-smooth", "singular-q", "certify-sweep")

# The reference kernel (reference.py) whose slowness tracks each workload's:
# the first two spend their time in large eliminations, certify-sweep in
# hundreds of small trials that make many small Python objects.
REFERENCE_KERNEL = {"probe-smooth": "elimination", "singular-q": "elimination", "certify-sweep": "objects"}

CERTIFY_BUDGET = 64


# -- polynomial arithmetic on dicts ------------------------------------------


def _clean(poly: dict, p: int) -> dict:
    if p:
        poly = {m: c % p for m, c in poly.items()}
    return {m: c for m, c in poly.items() if c}


def _mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return _clean(out, p)


def substitute(poly: dict, matrix: list[list[int]], p: int) -> dict:
    """poly(M x): each x_i becomes sum_j M[i][j] x_j, expanded term by term."""
    nv = len(matrix)
    images = []
    for row in matrix:
        images.append(_clean({tuple(int(k == j) for k in range(nv)): c for j, c in enumerate(row)}, p))
    powers: dict = {}
    out: dict = {}
    for mono, coeff in poly.items():
        term = {(0,) * nv: coeff}
        for i, e in enumerate(mono):
            if e:
                if (i, e) not in powers:
                    acc = {(0,) * nv: 1}
                    for _ in range(e):
                        acc = _mul(acc, images[i], p)
                    powers[i, e] = acc
                term = _mul(term, powers[i, e], p)
        for m, c in term.items():
            out[m] = out.get(m, 0) + c
    return _clean(out, p)


def _rank(matrix: list[list[int]], p: int) -> int:
    """Rank over Q (p = 0, with Fractions) or over F_p."""
    a = [[Fraction(x) if not p else x % p for x in row] for row in matrix]
    rank = 0
    for c in range(len(a[0])):
        pr = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        inv = 1 / a[rank][c] if not p else pow(a[rank][c], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][c] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
                if p:
                    a[i] = [x % p for x in a[i]]
        rank += 1
    return rank


def invertible_change(rng: random.Random, nv: int, entries, p: int) -> list[list[int]]:
    """A seeded matrix with entries drawn from `entries`, redrawn until invertible."""
    while True:
        m = [[rng.choice(entries) for _ in range(nv)] for _ in range(nv)]
        if _rank(m, p) == nv:
            return m


def _unit(nv: int, i: int, e: int) -> tuple:
    return tuple(e if k == i else 0 for k in range(nv))


def _nonzero(rng: random.Random, p: int) -> int:
    if p:
        return rng.randrange(1, p)
    return rng.choice((-3, -2, -1, 1, 2, 3))


def rotate_rescale(poly: dict, rng: random.Random, p: int) -> dict:
    """poly(l_0 x_r(0), ..., l_n x_r(n)) for a seeded rotation r and nonzero l.

    A change of coordinates, so smoothness is kept.  A rotation maps the
    cyclic chain onto itself, so the support and with it every elimination
    step stay the same; only the coefficients move with the seed.
    """
    nv = len(next(iter(poly)))
    shift = rng.randrange(nv)
    scale = [_nonzero(rng, p) for _ in range(nv)]
    out = {}
    for mono, coeff in poly.items():
        image = [0] * nv
        for i, e in enumerate(mono):
            image[(i + shift) % nv] = e
            coeff *= scale[i] ** e
        out[tuple(image)] = coeff
    return _clean(out, p)


def flip_signs(poly: dict, rng: random.Random) -> dict:
    """poly(s_0 x_0, ..., s_n x_n) for seeded signs s_i in {-1, 1}."""
    nv = len(next(iter(poly)))
    signs = [rng.choice((-1, 1)) for _ in range(nv)]
    out = {}
    for mono, coeff in poly.items():
        for s, e in zip(signs, mono):
            coeff *= s**e
        out[mono] = coeff
    return out


# -- shapes ------------------------------------------------------------------


def cyclic_fermat(n: int, d: int) -> dict:
    """sum x_i^d + sum x_j^(d-1) x_(j+1), indices mod n+1."""
    nv = n + 1
    poly = {_unit(nv, i, d): 1 for i in range(nv)}
    for j in range(nv):
        m = list(_unit(nv, j, d - 1))
        m[(j + 1) % nv] += 1
        poly[tuple(m)] = 1
    return poly


def diagonal_fermat(n: int, d: int, rng: random.Random, p: int) -> dict:
    return {_unit(n + 1, i, d): _nonzero(rng, p) for i in range(n + 1)}


def planted_node(n: int, d: int) -> dict:
    """x0^(d-2) * (x1^2 + ... + xn^2) + x1^d + ... + xn^d over Q.

    No x0^d and no x0^(d-1) x_i term, so every partial vanishes at
    (1:0:...:0), and the nondegenerate quadric makes that point a node.
    With these positive coefficients there is no other singular point for
    d = 3 and d = 4.
    """
    nv = n + 1
    poly = {}
    for i in range(1, nv):
        m = list(_unit(nv, 0, d - 2))
        m[i] += 2
        poly[tuple(m)] = 1
        poly[_unit(nv, i, d)] = 1
    return poly


# A fixed invertible change with entries in {-1, 0, 1} that makes the planted
# node dense (33 of 35 cubic monomials).
NODE_CHANGE = (
    (-1, 1, 1, 0, -1),
    (1, 1, 1, 1, -1),
    (0, 0, 1, 0, 1),
    (1, -1, 1, 1, 1),
    (1, 1, 1, -1, 1),
)


# -- text ----------------------------------------------------------------------


def to_text(poly: dict) -> str:
    """Polynomial text in the CLI grammar, terms in descending exponent order."""
    parts = []
    for mono in sorted(poly, reverse=True):
        coeff = poly[mono]
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e]
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        parts.append((sign, body))
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _smooth_argv(poly: dict, p: int) -> list[str]:
    nv = len(next(iter(poly)))
    return ["smooth", "--char", str(p), "--nvars", str(nv), "--f", to_text(poly)]


# -- workloads ---------------------------------------------------------------


def requests(workload: str, seed: int) -> list[dict]:
    """The workload's request list for one seed.

    Each entry has `label`, `argv` (without --json) and `expect`, the
    facts that hold by construction: exit code plus either the smoothness
    verdict or, for inconclusive certify, the verdict and trial count.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "probe-smooth":
        for p in (0, P):
            for n, d in ((4, 3), (3, 5), (5, 3), (4, 4)):
                poly = rotate_rescale(cyclic_fermat(n, d), rng, p)
                out.append({"label": f"cyclic({n},{d})/{p}", "argv": _smooth_argv(poly, p),
                             "expect": {"exit": 0, "smooth": True}})
            for n, d in ((4, 3), (3, 4), (3, 5)):
                change = invertible_change(rng, n + 1, (-2, -1, 0, 1, 2), p)
                poly = substitute(diagonal_fermat(n, d, rng, p), change, p)
                out.append({"label": f"dense({n},{d})/{p}", "argv": _smooth_argv(poly, p),
                             "expect": {"exit": 0, "smooth": True}})
    elif workload == "singular-q":
        # Over Q the seed only flips signs of variables.  That is a diagonal
        # +-1 change, so fraction-free elimination makes the same steps on
        # numbers of the same size; a seeded permutation or a random dense
        # change instead moves one request's time by up to 3.5x.
        for n, d in ((3, 3), (4, 3), (3, 4)):
            poly = flip_signs(planted_node(n, d), rng)
            out.append({"label": f"node({n},{d})", "argv": _smooth_argv(poly, 0),
                         "expect": {"exit": 1, "smooth": False}})
        signs = [rng.choice((-1, 1)) for _ in NODE_CHANGE]
        change = [[x * s for x, s in zip(row, signs)] for row in NODE_CHANGE]
        poly = substitute(planted_node(4, 3), change, 0)
        out.append({"label": "dense-node(4,3)", "argv": _smooth_argv(poly, 0),
                     "expect": {"exit": 1, "smooth": False}})
        poly = flip_signs(cyclic_fermat(3, 4), rng)
        out.append({"label": "cyclic(3,4)", "argv": _smooth_argv(poly, 0),
                     "expect": {"exit": 1, "smooth": False}})
    elif workload == "certify-sweep":
        def certify(label, source, p, budget=None, expect=None):
            argv = ["certify", "--char", str(p), *source, "--seed", str(rng.randrange(2**31))]
            if budget is not None:
                argv += ["--budget", str(budget)]
            out.append({"label": label, "argv": argv, "expect": expect or {}})

        certify("threefold/0", ["--fixture", "cubic-threefold"], 0)
        certify(f"threefold/{P}", ["--fixture", "cubic-threefold"], P)
        for n, d, p in ((4, 3, 0), (4, 3, P), (4, 4, 0), (3, 4, 0)):
            certify(f"fermat({n},{d})/{p}", ["--fixture", "fermat", "--n", str(n), "--d", str(d)], p)
        for p in (0, 5, 2):
            certify(f"fermat(3,3)/{p}", ["--fixture", "fermat", "--n", "3", "--d", "3"], p,
                    budget=CERTIFY_BUDGET,
                    expect={"exit": 1, "verdict": "inconclusive", "trial_count": CERTIFY_BUDGET})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def check_facts(request: dict, stdout: bytes, code: int) -> str | None:
    """Why the output breaks a fact that holds by construction, or None."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    if "error" in report:
        return f"error {report['error'].get('code')}"
    result = report.get("result", {})
    command = request["argv"][0]
    if report.get("command") != command:
        return f"command {report.get('command')!r}"
    expect = request["expect"]
    if command == "certify":
        certified = result.get("verdict") == "certified"
        if code != (0 if certified else 1):
            return f"exit {code} with verdict {result.get('verdict')!r}"
        if len(result.get("trials", ())) != result.get("trial_count"):
            return "trial_count disagrees with the trial list"
    if "exit" in expect and code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    for key in ("smooth", "verdict", "trial_count"):
        if key in expect and result.get(key) != expect[key]:
            return f"{key} {result.get(key)!r}, expected {expect[key]!r}"
    return None
