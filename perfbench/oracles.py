"""Answer checks computed with the benchmark's own stdlib arithmetic.

Nothing here imports jumploci.  Each check takes a query (from workloads.py)
and the program's parsed output and returns a list of problems; an empty list
means the answer agrees with the oracle.  The routes differ from the
program's: closed formulas for torus knots, surfaces, free groups, Z^n,
product and zero forms and coprime Brieskorn triples; rank over a prime field
for genericity; the program's own Delta against its own charvar ranks for
random presentations; and relations that tie the fields of a Seifert record
together.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm, prod

# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_poly(text, num_vars):
    """Parse the CLI's polynomial text into {exponent tuple: int}."""
    text = text.strip()
    if text == "0":
        return {}
    parts = _TERM_SPLIT.split(text)
    signed = [(1, parts[0])] + [
        (1 if parts[i] == "+" else -1, parts[i + 1]) for i in range(1, len(parts), 2)
    ]
    out = {}
    for sign, body in signed:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff = 1
        exps = [0] * num_vars
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            idx = 0 if name == "t" else int(name[1:]) - 1
            exps[idx] += int(power) if power else 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def unit_normal(terms):
    """Representative of terms up to +-monomials: minimal exponents 0, lex-leading > 0."""
    if not terms:
        return {}
    n = len(next(iter(terms)))
    mins = [min(e[i] for e in terms) for i in range(n)]
    shifted = {tuple(a - b for a, b in zip(e, mins)): c for e, c in terms.items()}
    if shifted[max(shifted)] < 0:
        shifted = {e: -c for e, c in shifted.items()}
    return shifted


def _dense(terms):
    """Univariate {(k,): c} with exponents >= 0 to a coefficient list."""
    if not terms:
        return []
    out = [0] * (max(e[0] for e in terms) + 1)
    for (k,), c in terms.items():
        out[k] = c
    return out


def _sparse_univariate(coeffs):
    return {(k,): c for k, c in enumerate(coeffs) if c}


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod_monic(a, b):
    """Quotient and remainder of integer lists a / b, b with leading coefficient +-1."""
    a = list(a)
    lead = b[-1]
    if lead not in (1, -1):
        raise ValueError("divisor must have a unit leading coefficient")
    terms = [(k, c) for k, c in enumerate(b) if c]
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top] * lead
        if c:
            q[top - db] = c
            for k, bc in terms:
                a[top - db + k] -= c * bc
    rem = a[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


def _binomial_minus_one(k):
    """t^k - 1 as a coefficient list."""
    return [-1] + [0] * (k - 1) + [1]


@lru_cache(maxsize=None)
def torus_delta(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), unit-normalized."""
    num = _mul(_binomial_minus_one(p * q), _binomial_minus_one(1))
    den = _mul(_binomial_minus_one(p), _binomial_minus_one(q))
    quo, rem = _divmod_monic(num, den)
    if rem:
        raise ArithmeticError("torus knot quotient is not exact")
    return unit_normal(_sparse_univariate(quo))


@lru_cache(maxsize=None)
def cyclotomic(m):
    """Phi_m as a coefficient list, by dividing t^m - 1 by Phi_d for d | m, d < m."""
    poly = _binomial_minus_one(m)
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _divmod_monic(poly, list(cyclotomic(d)))
            if rem:
                raise ArithmeticError("cyclotomic division is not exact")
    return tuple(poly)


def vanishes_at_root(terms, m):
    """True when the univariate polynomial vanishes at a primitive m-th root of unity."""
    coeffs = _dense(unit_normal(terms))
    if not coeffs:
        return True
    _, rem = _divmod_monic(coeffs, list(cyclotomic(m)))
    return not rem


def _char_order(m, exps):
    return m // gcd(m, *exps)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _torus_in_v1(p, q, order):
    return (p * q) % order == 0 and p % order != 0 and q % order != 0


def _torsion_order_2x3(rows):
    """|Tors H_1| for two relators on three generators of rank 2: gcd of 2x2 minors."""
    (a, b, c), (d, e, f) = rows
    return gcd(a * e - b * d, a * f - c * d, b * f - c * e)


def expected_alex(expect):
    """(b1, torsion order, normalized Delta or None when only Delta(1) is known)."""
    fam = expect.get("family")
    if "p" in expect:
        return 1, 1, torus_delta(expect["p"], expect["q"])
    if "g" in expect:
        return 2 * expect["g"], 1, {}
    if fam == "zn":
        n = expect["n"]
        return n, 1, {(0,) * n: 1}
    if fam == "free":
        return expect["n"], 1, {}
    return 1, _torsion_order_2x3(expect["sums"]), None


def check_alex(query, out, deltas):
    exp = dict(query["expect"], family=query["family"])
    b1, tors, delta = expected_alex(exp)
    problems = []
    if out["b1"] != b1:
        problems.append(f"b1 {out['b1']} != {b1}")
    if prod(out["torsion"]) != tors:
        problems.append(f"torsion {out['torsion']} has order != {tors}")
    got = parse_poly(out["delta"], out["b1"]) if out["b1"] else {}
    deltas[exp["pres"]] = got
    if delta is not None:
        if unit_normal(got) != delta:
            problems.append(f"delta {out['delta']!r} is not the expected polynomial")
    elif abs(sum(got.values())) != tors:
        problems.append(f"delta(1) = {sum(got.values())} is not +-|Tors| = {tors}")
    wanted = [1, 2] if "--ideal-d" in query["argv"] else [1]
    if [i["d"] for i in out["ideals"]] != wanted:
        problems.append(f"ideal depths {[i['d'] for i in out['ideals']]} != {wanted}")
    if any(i["delta"] != out["delta"] for i in out["ideals"]):
        problems.append("an ideal record repeats a different delta")
    return problems


def check_charvar(query, out, deltas):
    exp = query["expect"]
    fam = query["family"]
    order = _char_order(exp["order"], exp["exponents"])
    d = exp["d"]
    problems = []
    if out["character"] != {"order": exp["order"], "exponents": exp["exponents"]}:
        problems.append("character echo differs from the query")
    if not out["agree"]:
        problems.append("rank test and ideal test disagree")
    if out["rank_based"] != (out["twisted_h1_dim"] >= d):
        problems.append("rank_based does not follow twisted_h1_dim >= d")
    dim = None
    if fam in ("torus", "power"):
        dim = 1 if _torus_in_v1(exp["p"], exp["q"], order) else 0
    elif fam == "surface":
        dim = 2 * exp["g"] - 2
    elif fam == "free":
        dim = exp["n"] - 1
    elif fam == "zn":
        dim = 0
    if dim is not None:
        if out["twisted_h1_dim"] != dim:
            problems.append(f"twisted_h1_dim {out['twisted_h1_dim']} != {dim}")
        if out["rank_based"] != (dim >= d) or out["ideal_based"] != (dim >= d):
            problems.append(f"membership in V_{d} should be {dim >= d}")
    elif exp["pres"] in deltas:
        in_v1 = vanishes_at_root(deltas[exp["pres"]], order)
        if (out["twisted_h1_dim"] >= 1) != in_v1:
            problems.append(f"V_1 membership {not in_v1} contradicts Delta at order {order}")
    return problems


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

PRIME = 2_147_483_647


def _contraction_mod_p(n, terms, x, p):
    a = [[0] * n for _ in range(n)]
    for i, j, k, c in terms:
        for r, s, t in ((i, j, k), (j, k, i), (k, i, j)):
            a[r][s] = (a[r][s] + c * x[t]) % p
            a[s][r] = (a[s][r] - c * x[t]) % p
    return a


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


GENERIC_TRIALS = 12


def is_generic(n, terms):
    """Some vector has a contraction of rank n - 1, tested at random points mod p.

    A rank of n - 1 mod p certifies rank n - 1 over Q.  Conversely, a nonzero
    sub-Pfaffian of degree < n is missed by one random point with probability
    below n / p, so GENERIC_TRIALS misses in a row do not happen in practice.
    """
    rng = random.Random(repr((n, terms)))
    for _ in range(GENERIC_TRIALS):
        x = [rng.randrange(PRIME) for _ in range(n)]
        if _rank_mod_p(_contraction_mod_p(n, terms, x, PRIME), PRIME) == n - 1:
            return True
    return False


def _rank_q(rows):
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def witt(n, d):
    """Dimension of the degree-d part of the free Lie algebra on n generators."""
    return sum(_mobius(d // k) * n ** k for k in range(1, d + 1) if d % k == 0) // d


def surface_lcs_ranks(g, up_to):
    """phi_d of the genus-g surface group from prod (1 - t^d)^phi_d = 1 - 2g t + t^2."""
    s = [2, 2 * g]  # power sums of the roots of t^2 - 2g t + 1
    for _ in range(2, up_to + 1):
        s.append(2 * g * s[-1] - s[-2])
    return [
        sum(_mobius(d // k) * s[k] for k in range(1, d + 1) if d % k == 0) // d
        for d in range(1, up_to + 1)
    ]


def _relation_rows(n, terms):
    """Rows eta(e_i, e_j, e_k) over pairs i < j, one per k (the holonomy relations)."""
    full = {}
    for i, j, k, c in terms:
        for (a, b, t), s in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                             ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)):
            full[(a, b, t)] = s * c
    return [[full.get((a, b, k), 0) for a, b in combinations(range(n), 2)] for k in range(n)]


def check_classify(query, out):
    exp = query["expect"]
    fam = query["family"]
    n = exp["n"]
    problems = []
    if fam == "classify-zero":
        want = {"class": "Free", "rank": n, "corank": n, "isotropy_index": n}
        mode = None
    else:
        g = (n - 1) // 2
        generic = fam == "classify-product" or is_generic(n, exp["terms"])
        want = ({"class": "ZxSurface", "g": g, "corank": g, "isotropy_index": g}
                if generic else {"class": "Obstructed"})
        mode = "symbolic" if n <= exp["threshold"] else "sampled"
    for key, val in want.items():
        if out.get(key) != val:
            problems.append(f"{key} {out.get(key)!r} != {val!r}")
    got_mode = out["genericity_mode"] and out["genericity_mode"]["mode"]
    if got_mode != mode:
        problems.append(f"genericity mode {got_mode!r} != {mode!r}")
    return problems


def check_holonomy(query, out):
    exp = query["expect"]
    fam = query["family"]
    n, deg = exp["n"], exp["degree"]
    ranks = out["ranks"]
    problems = []
    if len(ranks) != deg:
        return [f"{len(ranks)} ranks for degree {deg}"]
    if fam == "holonomy-product":
        want = [n] + surface_lcs_ranks(exp["g"], deg)[1:]
    elif fam == "holonomy-zero":
        want = [witt(n, d) for d in range(1, deg + 1)]
    else:
        want = None
    if want is not None and ranks != want:
        problems.append(f"ranks {ranks} != {want}")
    rel_rank = _rank_q(_relation_rows(n, exp["terms"])) if exp["terms"] else 0
    if out["num_relations"] != rel_rank:
        problems.append(f"{out['num_relations']} relations, rank is {rel_rank}")
    if ranks[0] != n or (deg >= 2 and ranks[1] != comb(n, 2) - rel_rank):
        problems.append("degree-1 or degree-2 rank is wrong")
    if any(r > witt(n, d) or r < 0 for d, r in enumerate(ranks, 1)):
        problems.append("a rank exceeds the free Lie dimension")
    return problems


def _contract(terms, n, x, y):
    """The functional eta(x, y, .) from the cofactor expansion of each term."""
    out = [Fraction(0)] * n
    for i, j, k, c in terms:
        out[i] += c * (x[j] * y[k] - x[k] * y[j])
        out[j] += c * (x[k] * y[i] - x[i] * y[k])
        out[k] += c * (x[i] * y[j] - x[j] * y[i])
    return out


def check_isotropy(query, out):
    exp = query["expect"]
    n = exp["n"]
    basis = [[Fraction(v) for v in vec] for vec in out["basis"]]
    dim = out["dimension"]
    problems = []
    if len(basis) != dim or not 1 <= dim <= n - 1:
        problems.append(f"dimension {dim} with {len(basis)} basis vectors for n = {n}")
    if basis and _rank_q(basis) != len(basis):
        problems.append("witness basis is not independent")
    for x, y in combinations(basis, 2):
        if any(_contract(exp["terms"], n, x, y)):
            problems.append("witness is not isotropic")
            break
    return problems


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------

GOLDEN = {
    (2, 3, 5): {"orbits": [[2, 1, 1], [3, 1, 1], [5, 1, 1]], "g": 0, "e": "-1/30",
                "b": -1, "T": 1, "translated": 0},
    (2, 3, 7): {"orbits": [[2, 1, 1], [3, 2, 1], [7, 6, 1]], "g": 0, "e": "-1/42",
                "b": -2, "T": 1, "translated": 0},
    (3, 3, 6): {"orbits": [[2, 1, 3]], "g": 1, "e": "-3/2", "T": 12, "ord_h": 3,
                "alpha": 4, "components": 3, "translated": 3},
}


def check_seifert_row(row):
    """Field relations every Brieskorn record must satisfy, plus closed forms.

    With a = prod a_j and l = lcm a_j: e = -a / l^2; e = -(b + sum s beta/alpha);
    |T| = prod alpha^s |e|, ord(h) = lcm(alpha) |e|, alpha = |T| / ord(h);
    components, formality and the tangent cone follow the base genus.
    Pairwise-coprime triples have g = 0, |T| = 1 and e = -1/(abc).
    """
    exps = tuple(row["exponents"])
    g = row["g"]
    e = Fraction(row["e"])
    orbits = row["orbits"]
    problems = []
    if e != -Fraction(prod(exps), lcm(*exps) ** 2):
        problems.append(f"e = {e} != -a/l^2")
    if e != -(row["b"] + sum(Fraction(b * s, a) for a, b, s in orbits)):
        problems.append("e != -(b + sum s beta/alpha)")
    ap = prod(a ** s for a, _, s in orbits)
    al = lcm(*(a for a, _, _ in orbits)) if orbits else 1
    if (row["T"], row["ord_h"], row["alpha"]) != (ap * -e, al * -e, Fraction(ap, al)):
        problems.append("torsion data do not follow the orbits and e")
    alpha = row["alpha"]
    comps = {0: (0, 0, False, 0), 1: (alpha - 1, 2, False, alpha - 1)}.get(
        g, (alpha, 2 * g, True, alpha - 1))
    if (row["components"], row["dim"], row["includes_identity"], row["translated"]) != comps:
        problems.append(f"components {row['components']} do not follow g = {g}")
    if row["one_formal"] != (g == 0) or row["tc_holds"] != (g != 1):
        problems.append("formality or tangent-cone verdict does not follow g")
    if "germ" in row:
        germ = ("identity", 0) if g <= 1 else ("torus", 2 * g)
        if (row["germ"], row["germ_dim"], row["r1_dim"]) != germ + (2 * g,):
            problems.append("tangent-cone germ does not follow g")
    if len(exps) == 3 and all(gcd(a, b) == 1 for a, b in combinations(exps, 2)):
        if (g, row["T"], e) != (0, 1, -Fraction(1, prod(exps))):
            problems.append("coprime triple is not a homology sphere with e = -1/abc")
    for key, val in GOLDEN.get(tuple(sorted(exps)), {}).items():
        if row[key] != val:
            problems.append(f"golden {key} {row[key]!r} != {val!r}")
    return problems


def _json_row(rec):
    """Flatten a JSON Brieskorn record to the CSV row's fields, keeping the germ."""
    row = dict(rec, **rec["torsion"])
    tc = rec["tangent_cone"]
    row.update(tc_holds=tc["holds"], germ=tc["germ"], germ_dim=tc["germ_dim"],
               r1_dim=tc["r1_dim"])
    return row


CSV_COLUMNS = ("exponents,orbits,g,e,b,T,ord_h,alpha,components,dim,translated,"
               "includes_identity,one_formal,tc_holds")


def _csv_rows(text):
    lines = text.rstrip("\n").split("\n")
    if lines[0] != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        orbits = []
        for part in filter(None, cells[1].split(";")):
            ab, mult = part.split(")x")
            a, b = ab.lstrip("(").split(":")
            orbits.append([int(a), int(b), int(mult)])
        ints = [int(c) for c in cells[2:3] + cells[4:11]]
        rows.append({
            "exponents": [int(a) for a in cells[0].split()], "orbits": orbits,
            "g": ints[0], "e": cells[3], "b": ints[1], "T": ints[2], "ord_h": ints[3],
            "alpha": ints[4], "components": ints[5], "dim": ints[6], "translated": ints[7],
            "includes_identity": cells[11] == "true", "one_formal": cells[12] == "true",
            "tc_holds": cells[13] == "true",
        })
    return rows


def check_brieskorn(query, out_text, parsed):
    exp = query["expect"]
    if query["family"] != "sweep":
        if parsed["exponents"] != exp["exponents"]:
            return ["exponents echo differs from the query"]
        return check_seifert_row(_json_row(parsed))
    if exp["format"] == "csv":
        rows = _csv_rows(out_text)
    else:
        rows = [_json_row(r) for r in parsed["rows"]]
    n, mx = exp["n"], exp["max"]
    problems = []
    if len(rows) != (mx - 1) ** n:
        problems.append(f"{len(rows)} rows, expected {(mx - 1) ** n}")
    if [r["exponents"] for r in rows] != sorted(r["exponents"] for r in rows):
        problems.append("rows are not in lexicographic order")
    for r in rows:
        bad = check_seifert_row(r)
        if bad:
            problems.append(f"{r['exponents']}: {bad[0]}")
            break
    return problems
