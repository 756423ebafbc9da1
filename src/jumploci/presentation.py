"""Finite group presentations, free differential calculus, and abelianization.

A `Word` is a freely reduced word in the free group on the presentation's
generators; a `Presentation` is a list of generator names plus relator words.
The module parses the textual grammar

    < g1, g2, ... | w1, w2, ... >

where words juxtapose ``g``, ``g^-1``, ``g^k`` and nestable commutator sugar
``[u, v]`` = u v u^-1 v^-1, nested at most ``MAX_COMMUTATOR_DEPTH`` deep; a
word longer than ``MAX_WORD_LENGTH`` letters before free reduction is
refused, and a power or commutator is checked before it is built.
A word is scanned left to right by one loop: it reads each atom (a
generator, ``1`` or ``[u, v]``), then the atom's optional ``^k`` through one
set of compiled exponent groups; a generator is read with its power by one
match and appended as |k| letters.  The letters of a word, of a power
``w^k`` and of a commutator are collected first and freely reduced in one
pass, so parsing is linear in the expanded length.  Names follow
``str.isalpha`` and ``str.isalnum`` (plus ``_``) in the header, in words and
in JSON generator lists alike; an exponent is ``str.isdecimal`` digits that
``int()`` converts.  It also computes Smith normal forms of integer matrices,
the abelianization data (Betti number, invariant factors, generator images),
and each relator's row of free derivatives, read in one pass over the word
and pushed through the maximal torsion-free abelian quotient into the
Laurent ring on b1 variables.

Relators are not cyclically reduced automatically; derivatives of cyclic
permutations of a relator differ by unit monomials, which the project-wide
unit normalization absorbs.

Which constructors check their input: `Word(letters)` reads each generator
index and sign with `operator.index` and refuses a sign other than +/-1, and
`Presentation(names, relators)` refuses repeated names and generator
indices out of range.  The private `Word._of(letters)` and
`Presentation._of(names, relators)` trust data the package built itself: a
freely reduced tuple of (int, +/-1) letters, and distinct names with
relators over them.  Products, powers, inverses and commutators of words,
the parser and `parse_presentation` build their results that way, and
`fox_derivative` hands its term maps to `LaurentPoly._of`.  JSON input goes
through the checking constructors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, index, sub

from ._limits import PresentationParseError
from .laurent import LaurentPoly

_set = object.__setattr__

__all__ = [
    "Word",
    "Presentation",
    "Abelianization",
    "GeneratorImage",
    "SmithNormalForm",
    "PresentationParseError",
    "parse_presentation",
    "parse_word",
    "format_word",
    "format_presentation",
    "presentation_from_json",
    "smith_normal_form",
    "abelianization",
    "fox_derivative",
    "word_image",
]


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

class Word:
    """Freely reduced word: a sequence of (generator index, sign) letters."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        checked = []
        for g, s in letters:
            g, s = index(g), index(s)
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")
            checked.append((g, s))
        _set(self, "letters", _reduce_letters(checked))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def _of(cls, letters):
        """Trusted: a freely reduced tuple of (int, +/-1) letters."""
        w = object.__new__(cls)
        _set(w, "letters", letters)
        return w

    @classmethod
    def generator(cls, i, sign=1):
        return cls(((i, sign),))

    @property
    def is_empty(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        return Word._of(_reduce_letters(self.letters + other.letters))

    def inverse(self):
        # the inverse of a freely reduced word is freely reduced
        return Word._of(_inverse_letters(self.letters))

    def __pow__(self, k):
        # free reduction is confluent: reducing the |k|-fold concatenation once
        # gives the same word as |k| successive products, in linear time.  The
        # empty word is returned before a huge |k| can overflow the repeat
        k = index(k)
        if not self.letters:
            return self
        base = self.letters if k >= 0 else _inverse_letters(self.letters)
        return Word._of(_reduce_letters(base * abs(k)))

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.letters!r})"


def _reduce_letters(letters):
    """Free reduction of (int, +/-1) letters in one pass; the letters are not checked."""
    stack = []
    push, pop = stack.append, stack.pop
    for letter in letters:
        g, s = letter
        if stack and stack[-1] == (g, -s):
            pop()
        else:
            push(letter)
    return tuple(stack)


def _inverse_letters(letters):
    return tuple([(g, -s) for g, s in reversed(letters)])


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1, freely reduced in one pass."""
    a, b = u.letters, v.letters
    return Word._of(_reduce_letters(a + b + _inverse_letters(a) + _inverse_letters(b)))


# ---------------------------------------------------------------------------
# presentations and parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    generator_names: tuple
    relators: tuple

    def __post_init__(self):
        names = tuple(self.generator_names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        rels = tuple(self.relators)
        for r in rels:
            for g, _ in r.letters:
                if not 0 <= g < len(names):
                    raise ValueError(f"generator index {g} out of range")
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", rels)

    @classmethod
    def _of(cls, names, relators):
        """Trusted: a tuple of distinct names and a tuple of words over them."""
        p = object.__new__(cls)
        _set(p, "generator_names", names)
        _set(p, "relators", relators)
        return p

    @property
    def num_generators(self):
        return len(self.generator_names)

    @property
    def num_relators(self):
        return len(self.relators)


# bracket nesting allowed in a word; deeper input is refused by the parser
# before the recursion can exhaust the interpreter stack
MAX_COMMUTATOR_DEPTH = 100

# letters a word may reach, counted before free reduction; powers and
# commutators are checked before they are built, since each nesting level
# doubles a word and a few bytes of input could otherwise exhaust memory
MAX_WORD_LENGTH = 2**18


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch, what=None):
        self.skip_ws()
        if self.peek() != ch:
            raise PresentationParseError(what or f"expected '{ch}'", self.pos)
        self.pos += 1

    def fail(self, message, offset=None):
        raise PresentationParseError(message, self.pos if offset is None else offset)


def _is_ident_start(ch):
    return ch.isalpha() or ch == "_"


# an atom's optional power: '^' with the whitespace after it (group 2), then
# the exponent if the pattern can read it (group 3).  A generator is read with
# its power by one match, and every name of the grammar by this pattern; `1`
# and `[u, v]` read their power alone, the empty group keeping the numbers.
# In str patterns \s, \w and \d match exactly what str.isspace, str.isalnum
# (or "_") and str.isdecimal accept; `_is_ident_start` checks a name's first
# character, since \w also admits digits such as '²' that str.isalpha refuses
_POWER = r"\s*(?:(\^\s*)(-?\d+)?)?"
_GENERATOR_POWER = re.compile(r"\s*(\w+)" + _POWER)
_ATOM_POWER = re.compile(r"()" + _POWER)


def _match_name(text, pos=0):
    """The name after whitespace at pos, matched with its power; None if none starts there."""
    name = _GENERATOR_POWER.match(text, pos)
    return name if name is not None and _is_ident_start(name[1][0]) else None


def _parse_word(cur, gen_index, stop_chars, depth=0):
    text = cur.text
    match = _GENERATOR_POWER.match
    letters = []
    while True:
        atom = match(text, cur.pos)
        if atom is not None and _is_ident_start(atom[1][0]):
            start = atom.start(1)
            g = gen_index.get(atom[1])
            if g is None:
                cur.fail(f"unknown generator name '{atom[1]}'", start)
            word = None
        else:
            cur.skip_ws()
            start = cur.pos
            ch = cur.peek()
            if ch == "" or ch in stop_chars:
                return Word._of(_reduce_letters(letters))
            if ch == "1":
                cur.pos += 1
                word = Word._of(())
            elif ch == "[":
                if depth >= MAX_COMMUTATOR_DEPTH:
                    cur.fail(f"commutators nested deeper than {MAX_COMMUTATOR_DEPTH}", start)
                cur.pos += 1
                u = _parse_word(cur, gen_index, ",]>", depth + 1)
                cur.skip_ws()
                if cur.peek() != ",":
                    cur.fail("unbalanced brackets: expected ',' in commutator", start)
                cur.pos += 1
                v = _parse_word(cur, gen_index, ",]>", depth + 1)
                cur.skip_ws()
                if cur.peek() != "]":
                    cur.fail("unbalanced brackets: expected ']'", start)
                cur.pos += 1
                if len(letters) + 2 * (len(u) + len(v)) > MAX_WORD_LENGTH:
                    cur.fail(f"word longer than {MAX_WORD_LENGTH} letters", start)
                word = commutator(u, v)
            elif ch == "]":
                cur.fail("unbalanced brackets: unexpected ']'")
            else:
                cur.fail(f"unexpected character {ch!r} in word")
            atom = _ATOM_POWER.match(text, cur.pos)
        cur.pos = end = atom.end()
        if atom[2] is None:
            k = 1
        else:
            # malformed: no exponent the pattern reads, a digit int() refuses
            # right after it (such as '²'), or more digits than int() converts
            try:
                if atom[3] is None or text[end:end + 1].isdigit():
                    raise ValueError
                k = int(atom[3])
            except ValueError:
                cur.fail("malformed exponent", atom.end(2))
        # the power is checked against MAX_WORD_LENGTH before it is built; a
        # generator's |k| letters (g, sign k) are appended directly
        if len(letters) + abs(k) * (1 if word is None else len(word)) > MAX_WORD_LENGTH:
            cur.fail(f"word longer than {MAX_WORD_LENGTH} letters", start)
        if word is not None:
            letters.extend((word if k == 1 else word ** k).letters)
        elif k == 1 or k == -1:
            letters.append((g, k))
        else:
            letters += [(g, 1 if k > 0 else -1)] * abs(k)


def parse_word(text, generator_names):
    """Parse a single word over the given generator names."""
    gen_index = {name: i for i, name in enumerate(generator_names)}
    return _parse_word(_Cursor(text), gen_index, "")


def parse_presentation(text):
    """Parse `< g1, g2, ... | w1, w2, ... >` into a Presentation."""
    cur = _Cursor(text)
    cur.expect("<", "expected '<' to open presentation")
    names = []
    cur.skip_ws()
    if cur.peek() != "|":
        while True:
            cur.skip_ws()
            match = _match_name(cur.text, cur.pos)
            if match is None:
                cur.fail("expected identifier")
            name = match[1]
            if name in names:
                cur.fail(f"duplicate generator name '{name}'", match.start(1))
            names.append(name)
            cur.pos = match.end(1)
            cur.skip_ws()
            if cur.peek() == ",":
                cur.pos += 1
                continue
            break
    cur.expect("|", "expected '|' between generators and relators")
    gen_index = {name: i for i, name in enumerate(names)}
    relators = []
    while True:
        cur.skip_ws()
        if cur.peek() == ">":
            cur.pos += 1
            break
        if cur.peek() == "":
            cur.fail("expected '>' to close presentation")
        w = _parse_word(cur, gen_index, ",>")
        relators.append(w)
        cur.skip_ws()
        if cur.peek() == ",":
            cur.pos += 1
    cur.skip_ws()
    if cur.pos != len(cur.text):
        cur.fail("trailing input after '>'")
    return Presentation._of(tuple(names), tuple(relators))


def format_word(word, generator_names):
    if word.is_empty:
        return "1"
    parts = []
    for g, s in word.letters:
        name = generator_names[g]
        parts.append(name if s == 1 else f"{name}^-1")
    return " ".join(parts)


def format_presentation(p):
    gens = ", ".join(p.generator_names)
    rels = ", ".join(format_word(r, p.generator_names) for r in p.relators)
    return f"<{gens} | {rels}>"


def presentation_from_json(obj):
    """Build a Presentation from {"generators": [...], "relators": [...]}."""
    try:
        names = obj["generators"]
        rel_texts = obj["relators"]
    except (KeyError, TypeError) as exc:
        raise ValueError("presentation JSON needs 'generators' and 'relators'") from exc
    for field in (names, rel_texts):
        if not isinstance(field, (list, tuple)) or not all(isinstance(x, str) for x in field):
            raise ValueError("'generators' and 'relators' must be lists of strings")
    names = tuple(names)
    for name in names:
        match = _match_name(name)
        if match is None or match.span(1) != (0, len(name)):
            raise ValueError(f"generator name {name!r} is not a name of the grammar")
    relators = []
    for i, text in enumerate(rel_texts):
        try:
            relators.append(parse_word(text, names))
        except PresentationParseError as exc:
            # the offset counts inside the relator, so the message names it
            raise PresentationParseError(f"relator {i}: {exc.message}", exc.offset) from None
    return Presentation(names, tuple(relators))


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithNormalForm:
    """U*M*V = D = diag(d1 | d2 | ...) with U, V unimodular; only V is kept."""

    diagonal: tuple
    right: tuple

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(matrix):
    rows = [list(map(index, r)) for r in matrix]
    r = len(rows)
    g = len(rows[0]) if r else 0
    if any(len(row) != g for row in rows):
        raise ValueError("ragged matrix")
    a = [row[:] for row in rows]
    v = [[int(i == j) for j in range(g)] for i in range(g)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(r, g):
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, g):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, g):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # force the pivot to divide every remaining entry
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, g):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    diag = tuple(a[i][i] for i in range(min(r, g)))
    return SmithNormalForm(diagonal=diag, right=tuple(tuple(row) for row in v))


# ---------------------------------------------------------------------------
# abelianization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorImage:
    free: tuple
    torsion: tuple


@dataclass(frozen=True)
class Abelianization:
    """H1 data: Betti number, invariant factors, and generator images.

    `gen_images[j].free` is the image of generator j in the maximal
    torsion-free abelian quotient Z^{b1}; torsion coordinates are recorded
    but the Laurent-ring machinery only uses the free part.
    """

    b1: int
    torsion: tuple
    gen_images: tuple

    @property
    def num_generators(self):
        return len(self.gen_images)


def exponent_matrix(p):
    rows = []
    for rel in p.relators:
        row = [0] * p.num_generators
        for g, s in rel.letters:
            row[g] += s
        rows.append(row)
    return rows


def abelianization(p):
    g = p.num_generators
    # no relators: one zero row gives b1 = g and the identity as V
    snf = smith_normal_form(exponent_matrix(p) or [[0] * g])
    diag = snf.diagonal
    rank = snf.rank
    torsion_info = [(i, diag[i]) for i in range(rank) if diag[i] > 1]
    free_indices = list(range(rank, g))
    b1 = g - rank
    images = []
    v = snf.right
    for j in range(g):
        row = v[j]
        free = tuple(row[i] for i in free_indices)
        tors = tuple(row[i] % d for i, d in torsion_info)
        images.append(GeneratorImage(free=free, torsion=tors))
    return Abelianization(
        b1=b1,
        torsion=tuple(d for _, d in torsion_info),
        gen_images=tuple(images),
    )


def word_image(word, ab):
    """Image of a word in Z^{b1} (the torsion-free abelian quotient)."""
    out = [0] * ab.b1
    for g, s in word.letters:
        img = ab.gen_images[g].free
        for i, x in enumerate(img):
            out[i] += s * x
    return tuple(out)


# ---------------------------------------------------------------------------
# Fox derivatives, fused with the abelianization
# ---------------------------------------------------------------------------

def fox_derivative(word, ab):
    """Row (d(word)/d(x_0), ..., d(word)/d(x_{g-1})) of the Fox Jacobian.

    Product rule d(uv) = du + u dv with d(x_i) = e_i and d(x_i^-1) = -x_i^-1 e_i,
    pushed into the Laurent ring on b1 variables: the word is walked once,
    keeping the image of its prefix in Z^{b1}, and each letter adds or
    subtracts that monomial in its own generator's column only.  Torsion is
    discarded on the fly, which avoids materializing exponentially long free
    group-ring elements.
    """
    images = [img.free for img in ab.gen_images]
    prefix = (0,) * ab.b1
    columns = [{} for _ in images]
    for g, s in word.letters:
        if s < 0:
            prefix = tuple(map(sub, prefix, images[g]))
        terms = columns[g]
        c = terms.get(prefix, 0) + s
        if c:
            terms[prefix] = c
        else:
            del terms[prefix]
        if s > 0:
            prefix = tuple(map(add, prefix, images[g]))
    return tuple(LaurentPoly._of(ab.b1, terms) for terms in columns)
