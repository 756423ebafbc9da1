"""Seeded input generators for the three benchmark workloads.

Each workload is a sequence of rounds.  Round r of a workload under seed s is
generated from its own `random.Random(f"{workload}:{s}:{r}")`, so the same
(workload, seed, round) always writes the same input files and the same query
list.  Every round holds the same families in the same counts; the seed picks
the concrete presentations, forms, characters and tuples.  The counts below
are documented in perfbench/README.md and echoed in every result record.

A query is a dict:
  id      "r<round>.q<index>", stable for a (workload, seed)
  family  input family name (one per line of FAMILIES)
  kind    "cli" (argv for jumploci.cli.main) or "isotropy" (library call)
  argv    CLI argument list (kind "cli")
  file    input path (kind "isotropy"), plus "seed" for the search
  expect  oracle parameters, read only by oracles.py
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import gcd
from pathlib import Path

WORKLOADS = ("groups", "forms", "links")
# Z^5 and Z^6, on which the program's answers go wrong (see ZN_SIZES): a
# workload run only on request, not one of the benchmark's workloads
DEFECTS = "defects"

# family -> (queries per round, description); summed per workload below
FAMILIES = {
    "groups": {
        "torus": (16, "4 torus knots <x,y | x^p y^-q>, one from each of 4 sets of similar (p,q): "
                      "1 alex + 3 charvar each"),
        "surface": (18, "surface groups of genus 2, 3, 4: 1 alex + 5 charvar each"),
        "free": (18, "free groups F_2, F_3, F_4: 1 alex + 5 charvar each"),
        "zn": (8, "Z^3 and Z^4, all commutators, fixed: 1 alex + 3 charvar each"),
        "random": (12, "3 random 3-generator 2-relator presentations, words of length 200 "
                       "with a fixed exponent-sum pattern up to permutation: 1 alex + 3 charvar each"),
        "power": (10, "<x,y | x^p y^-1>, p in [990,1010]: 1 alex + 5 charvar; "
                      "<x,y | x^p y^-2>, odd p in [295,305]: 1 alex + 3 charvar"),
    },
    "forms": {
        "classify-random": (30, "classify on random integer 3-forms: 2 with n=5, 4 with n=7, "
                                "2 with n=9, 22 with n=11 of which 3 pass --symbolic-threshold 11"),
        "classify-product": (4, "classify on the product forms of genus 2..5, coordinates permuted"),
        "classify-zero": (4, "classify on the zero form on Q^n, n in 2,4,6,8"),
        "holonomy-product": (4, "holonomy on the genus-2 and genus-3 product forms (standard "
                                "coordinates) at degrees 4 and 5"),
        "holonomy-random": (3, "holonomy on random forms: n=4 at degrees 4 and 5, n=5 at degree 4"),
        "holonomy-zero": (2, "holonomy on the zero form on Q^3 and Q^4 at degree 5"),
        "isotropy": (4, "isotropy_lower_bound on one random form for each n in 6..9"),
    },
    "links": {
        "tuple": (60, "60 distinct random Brieskorn tuples: 20 each of n=3 (entries 2..30), "
                      "n=4 (2..20), n=5 (2..12)"),
        "golden": (3, "(2,3,5), (2,3,7), (3,3,6) with seeded exponent order"),
        "sweep": (10, "brieskorn sweep --max 12 --n 3, --max 8 --n 4, --max 3 --n 3, --max 3 --n 4 "
                      "and --max 3 --n 5, each as json and csv"),
    },
    DEFECTS: {
        "zn": (20, "Z^5 and Z^6, all commutators, fixed: 1 alex with --ideal-d 1 --ideal-d 2, "
                   "1 plain alex and 8 charvar each"),
    },
}


def round_size(workload):
    return sum(count for count, _ in FAMILIES[workload].values())


def _rng(workload, seed, rnd):
    return random.Random(f"{workload}:{seed}:{rnd}")


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _zn_text(n):
    gens = ", ".join(f"x{i}" for i in range(n))
    rels = ", ".join(f"[x{i},x{j}]" for i, j in combinations(range(n), 2))
    return f"<{gens} | {rels}>"


def _surface_text(g):
    gens = ", ".join(f"a{i}, b{i}" for i in range(1, g + 1))
    rel = " ".join(f"[a{i},b{i}]" for i in range(1, g + 1))
    return f"<{gens} | {rel}>"


def _free_text(n):
    return "<" + ", ".join(f"f{i}" for i in range(1, n + 1)) + " | >"


# exponent-sum rows of the two random relators, before a random permutation
# of the generators; the pattern fixes b1 = 1 and keeps Delta's degree (and
# so the cost of a query) in a narrow band while the words stay random
RANDOM_SUM_PATTERN = ((1, 2, -1), (3, -1, 2))
RANDOM_WORD_LENGTH = 200


def _word_with_sums(rng, sums, length):
    letters = []
    for g, s in enumerate(sums):
        letters += [(g, 1 if s > 0 else -1)] * abs(s)
    while len(letters) < length:
        g = rng.randrange(len(sums))
        letters += [(g, 1), (g, -1)]
    rng.shuffle(letters)
    return letters


def _letters_text(letters, names):
    return " ".join(names[g] + ("^-1" if e < 0 else "") for g, e in letters)


# character orders of the three charvar queries on each presentation: fixed, so
# that the size of the cyclotomic field, which sets a query's cost, does not
# depend on the seed; the seed picks the exponents
CHAR_ORDERS = (2, 3, 4)
# free and surface groups get five cheap charvar queries, so that the median
# query of the round falls inside their block of near-equal latencies
CHAR_ORDERS_CHEAP = (2, 3, 4, 5, 6)


def _random_character(rng, m, num_vars):
    while True:
        exps = [rng.randrange(m) for _ in range(num_vars)]
        if any(exps):
            return m, exps


def _torus_characters(rng, p, q):
    """The smallest-order character class of V_1 (order d | pq, d not dividing p
    or q, d <= 60) when there is one, then characters of orders 2 and 3.

    A knot without such a class (T(p,1), an unknot) gets the five orders of
    CHAR_ORDERS_CHEAP: its queries cost the same whatever the character, and they
    form the block of near-equal latencies around the 90th percentile of a round.
    """
    hits = [d for d in range(2, 61) if (p * q) % d == 0 and p % d and q % d]
    if not hits:
        return [_random_character(rng, m, 1) for m in CHAR_ORDERS_CHEAP]
    m = hits[0]
    hit = (m, [rng.choice([e for e in range(1, m) if gcd(e, m) == 1])])
    return [hit] + [_random_character(rng, m, 1) for m in CHAR_ORDERS[:2]]


def _char_spec(m, exps):
    return f"{m}:" + ",".join(str(e) for e in exps)


# torus knot T(p,q) per slot: one pair from each set; pairs in a set have a
# similar Delta degree (p-1)(q-1), so the slot's cost barely depends on the seed
TORUS_SLOTS = (
    ((3, 2), (5, 2), (4, 3)),
    ((5, 3), (7, 2), (7, 3)),
    ((5, 4), (6, 5), (7, 4)),
    ((7, 5), (7, 6), (8, 5)),
)


# Z^n up to n = 4 only: from n = 5 on, the Alexander matrix has more minors
# than elementary_ideal keeps (512), and the program's answers go wrong (Z^6
# alex reports Delta = t1 - 1; some Z^5 and Z^6 charvar queries report
# agree: false).  Those inputs form the DEFECTS workload instead.
ZN_SIZES = (3, 4)
DEFECT_ZN_SIZES = (5, 6)
DEFECT_CHAR_ORDERS = (2, 2, 3, 3, 4, 4, 5, 6)


def _charvar_query(rng, family, path, key, expect, m, exps):
    d = 2 if rng.random() < 0.25 else 1
    argv = ["charvar", str(path), _char_spec(m, exps), "--d", str(d)]
    return {"family": family, "kind": "cli", "argv": argv,
            "expect": dict(expect, command="charvar", pres=key, order=m, exponents=exps, d=d)}


def _defects_round(rng, rnd, workdir):
    queries = []
    for k, n in enumerate(DEFECT_ZN_SIZES):
        path = workdir / f"r{rnd}-p{k}.grp"
        path.write_text(_zn_text(n) + "\n")
        key, expect = f"r{rnd}.p{k}", {"n": n}
        for extra in (["--ideal-d", "1", "--ideal-d", "2"], []):
            queries.append({"family": "zn", "kind": "cli",
                            "argv": ["--seed", str(rng.randrange(1000)), "alex", str(path)] + extra,
                            "expect": dict(expect, command="alex", pres=key)})
        for m in DEFECT_CHAR_ORDERS:
            m, exps = _random_character(rng, m, n)
            queries.append(_charvar_query(rng, "zn", path, key, expect, m, exps))
    return queries


def _groups_round(rng, rnd, workdir):
    pres = []  # (family, text, expect, b1)
    for choices in TORUS_SLOTS:
        p, q = rng.choice(choices)
        pres.append(("torus", f"<x, y | x^{p} y^-{q}>", {"p": p, "q": q}, 1))
    for g in (2, 3, 4):
        pres.append(("surface", _surface_text(g), {"g": g}, 2 * g))
    for n in (2, 3, 4):
        pres.append(("free", _free_text(n), {"n": n}, n))
    for n in ZN_SIZES:
        pres.append(("zn", _zn_text(n), {"n": n}, n))
    for _ in range(3):
        perm = list(range(3))
        rng.shuffle(perm)
        rows = [[row[perm[i]] for i in range(3)] for row in RANDOM_SUM_PATTERN]
        words = [_word_with_sums(rng, row, RANDOM_WORD_LENGTH) for row in rows]
        names = ("a", "b", "c")
        text = "<a, b, c | " + ", ".join(_letters_text(w, names) for w in words) + ">"
        pres.append(("random", text, {"sums": rows}, 1))
    p1 = rng.randint(990, 1010)
    p2 = rng.randrange(295, 306, 2)
    pres.append(("power", f"<x, y | x^{p1} y^-1>", {"p": p1, "q": 1}, 1))
    pres.append(("power", f"<x, y | x^{p2} y^-2>", {"p": p2, "q": 2}, 1))

    queries = []
    for k, (family, text, expect, b1) in enumerate(pres):
        path = workdir / f"r{rnd}-p{k}.grp"
        path.write_text(text + "\n")
        key = f"r{rnd}.p{k}"
        alex = ["--seed", str(rng.randrange(1000)), "alex", str(path)]
        if k % 2:
            alex += ["--ideal-d", "1", "--ideal-d", "2"]
        queries.append({"family": family, "kind": "cli", "argv": alex,
                        "expect": dict(expect, command="alex", pres=key)})
        if family in ("torus", "power"):
            chars = _torus_characters(rng, expect["p"], expect["q"])
        else:
            orders = CHAR_ORDERS_CHEAP if family in ("free", "surface") else CHAR_ORDERS
            chars = [_random_character(rng, m, b1) for m in orders]
        for m, exps in chars:
            queries.append(_charvar_query(rng, family, path, key, expect, m, exps))
    return queries


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

FORM_COEFFS = (-3, -2, -1, 1, 2, 3)


def random_form_terms(rng, n):
    """Integer 3-form coefficients {(i, j, k): c}, 0-based, i < j < k.

    Half of the index triples carry a coefficient from FORM_COEFFS, so forms
    of one n cost about the same to classify.
    """
    triples = list(combinations(range(n), 3))
    chosen = rng.sample(triples, round(len(triples) / 2))
    return {ijk: rng.choice(FORM_COEFFS) for ijk in sorted(chosen)}


def product_form_terms(g, perm):
    """Circle-times-surface form (e1^e2 + ... + e_{2g-1}^e_{2g}) ^ e_{2g+1}, relabelled."""
    n = 2 * g + 1
    out = {}
    for i in range(g):
        idx = [perm[2 * i], perm[2 * i + 1], perm[n - 1]]
        sign = 1
        for a in range(2):
            for b in range(2 - a):
                if idx[b] > idx[b + 1]:
                    idx[b], idx[b + 1] = idx[b + 1], idx[b]
                    sign = -sign
        out[tuple(idx)] = sign
    return out


def _form_json(n, terms):
    return json.dumps({
        "n": n,
        "terms": [{"i": i + 1, "j": j + 1, "k": k + 1, "c": c}
                  for (i, j, k), c in sorted(terms.items())],
    })


# random classify queries per odd n.  The counts place the round's median
# inside the block of sampled n = 11 queries, whose cost varies least from
# form to form, and its 90th percentile inside the block of ~1 s queries
# (symbolic n = 11 and genus-3 holonomy at degree 5), so that neither
# percentile sits on the edge between two cost classes.
CLASSIFY_COUNTS = {5: 2, 7: 4, 9: 2, 11: 22}
SYMBOLIC_N11 = 3  # n = 11 queries that pass --symbolic-threshold 11


def _forms_round(rng, rnd, workdir):
    forms = []  # (family, n, terms, extra)
    for n, count in CLASSIFY_COUNTS.items():
        for k in range(count):
            forms.append(("classify-random", n, random_form_terms(rng, n),
                          {"symbolic": n == 11 and k < SYMBOLIC_N11}))
    for g in (2, 3, 4, 5):
        perm = list(range(2 * g + 1))
        rng.shuffle(perm)
        forms.append(("classify-product", 2 * g + 1, product_form_terms(g, perm), {"g": g}))
    for n in (2, 4, 6, 8):
        forms.append(("classify-zero", n, {}, {}))
    for g in (2, 3):
        # unpermuted: the echelon order, and so the cost, of lie_ranks follows the labels
        terms = product_form_terms(g, list(range(2 * g + 1)))
        for deg in (4, 5):
            forms.append(("holonomy-product", 2 * g + 1, terms, {"g": g, "degree": deg}))
    t4 = random_form_terms(rng, 4)
    forms.append(("holonomy-random", 4, t4, {"degree": 4}))
    forms.append(("holonomy-random", 4, t4, {"degree": 5}))
    forms.append(("holonomy-random", 5, random_form_terms(rng, 5), {"degree": 4}))
    for n in (3, 4):
        forms.append(("holonomy-zero", n, {}, {"degree": 5}))
    for n in (6, 7, 8, 9):
        forms.append(("isotropy", n, random_form_terms(rng, n), {"seed": rng.randrange(1000)}))

    queries = []
    for k, (family, n, terms, extra) in enumerate(forms):
        path = workdir / f"r{rnd}-f{k}.json"
        path.write_text(_form_json(n, terms) + "\n")
        expect = dict(extra, n=n, terms=[[i, j, kk, c] for (i, j, kk), c in sorted(terms.items())])
        if family == "isotropy":
            queries.append({"family": family, "kind": "isotropy", "file": str(path),
                            "seed": extra["seed"], "expect": expect})
            continue
        if family.startswith("holonomy"):
            argv = ["holonomy", str(path), "--degree", str(extra["degree"])]
            queries.append({"family": family, "kind": "cli", "argv": argv, "expect": expect})
            continue
        threshold = n if extra.get("symbolic") else 9
        expect["threshold"] = threshold
        argv = ["--seed", str(rng.randrange(1000)), "--symbolic-threshold", str(threshold),
                "classify", str(path)]
        queries.append({"family": family, "kind": "cli", "argv": argv, "expect": expect})
    return queries


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------

# (max, n) of the sweeps.  The three small ones (8 to 32 rows, 3 to 8 ms) form
# a block of queries dearer than any single tuple, and the round's 90th
# percentile falls inside it rather than in the thin tail of tuple latencies.
SWEEPS = ((12, 3), (8, 4), (3, 3), (3, 4), (3, 5))
TUPLE_RANGES = {3: 30, 4: 20, 5: 12}
GOLDEN = ((2, 3, 5), (2, 3, 7), (3, 3, 6))


def _links_round(rng, rnd, workdir):
    tuples = []
    seen = set()
    for n, hi in TUPLE_RANGES.items():
        count = 0
        while count < 20:
            t = tuple(rng.randint(2, hi) for _ in range(n))
            if tuple(sorted(t)) in seen or tuple(sorted(t)) in GOLDEN:
                continue
            seen.add(tuple(sorted(t)))
            tuples.append(("tuple", t))
            count += 1
    for t in GOLDEN:
        t = list(t)
        rng.shuffle(t)
        tuples.append(("golden", tuple(t)))
    queries = [
        {"family": family, "kind": "cli", "argv": ["brieskorn", ",".join(map(str, t))],
         "expect": {"exponents": list(t)}}
        for family, t in tuples
    ]
    for mx, n in SWEEPS:
        for fmt in ("json", "csv"):
            argv = ["--format", fmt, "brieskorn", "sweep", "--max", str(mx), "--n", str(n)]
            queries.append({"family": "sweep", "kind": "cli", "argv": argv,
                            "expect": {"max": mx, "n": n, "format": fmt}})
    return queries


_BUILDERS = {"groups": _groups_round, "forms": _forms_round, "links": _links_round,
             DEFECTS: _defects_round}


def make_round(workload, seed, rnd, workdir):
    """Write round `rnd`'s input files under workdir and return its query list.

    The queries are shuffled with the round's generator, so a presentation's
    alex and charvar queries are interleaved with other inputs.
    """
    rng = _rng(workload, seed, rnd)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    queries = _BUILDERS[workload](rng, rnd, workdir)
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = f"r{rnd}.q{i}"
    if len(queries) != round_size(workload):
        raise AssertionError(f"{workload} round has {len(queries)} queries, "
                             f"expected {round_size(workload)}")
    return queries
