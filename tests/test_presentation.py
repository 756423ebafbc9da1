"""Presentation parsing, Smith normal forms, abelianization, Fox calculus."""

import random
from itertools import combinations
from math import gcd, prod

import pytest

from jumploci import (
    LaurentPoly,
    Presentation,
    PresentationParseError,
    Word,
    abelianization,
    format_presentation,
    fox_derivative,
    parse_presentation,
    parse_word,
    presentation_from_json,
    smith_normal_form,
    word_image,
)
from jumploci.presentation import MAX_COMMUTATOR_DEPTH, MAX_WORD_LENGTH, commutator

from _corpus import (
    FREE_1,
    TREFOIL,
    Z2,
    int_det,
    mat_mul,
    random_commutator_presentation,
    random_unimodular_matrix,
    random_word,
)


class TestWords:
    def test_free_reduce_cancellation(self):
        w = Word(((0, 1), (0, -1), (1, 1)))
        assert w.letters == ((1, 1),)

    def test_empty(self):
        assert Word().is_empty

    def test_commutator_of_equal_letters(self):
        x = Word.generator(0)
        assert (x * x * x.inverse() * x.inverse()).is_empty

    def test_reduce_idempotent_and_shortening(self):
        rng = random.Random(3)
        for _ in range(200):
            letters = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(12)]
            w = Word(letters)
            assert Word(w.letters) == w
            assert len(w) <= 12

    def test_inverse(self):
        rng = random.Random(4)
        for _ in range(50):
            w = random_word(rng, 3, 8)
            assert (w * w.inverse()).is_empty

    def test_commutator_is_the_fourfold_product(self):
        rng = random.Random(5)
        for _ in range(300):
            u = random_word(rng, 3, rng.randint(0, 10))
            v = random_word(rng, 3, rng.randint(0, 10))
            for a, b in ((u, v), (u, u), (u, u.inverse()), (u * v, v)):
                assert commutator(a, b) == a * b * a.inverse() * b.inverse()

    def test_power_matches_repeated_product(self):
        rng = random.Random(21)
        seam_cancellations = 0
        for trial in range(80):
            w = random_word(rng, 3, rng.randint(0, 8))
            if trial % 2:
                # a conjugate u w u^-1 cancels u^-1 u where two copies meet
                u = random_word(rng, 3, rng.randint(1, 4))
                w = u * w * u.inverse()
            if len(w * w) < 2 * len(w):
                seam_cancellations += 1
            for k in range(-6, 7):
                step = w if k >= 0 else w.inverse()
                expected = Word()
                for _ in range(abs(k)):
                    expected = expected * step
                assert w ** k == expected, (w, k)
        assert seam_cancellations >= 20


class TestParser:
    def test_commutator_sugar(self):
        p = parse_presentation("<x, y | [x,y]>")
        assert p.generator_names == ("x", "y")
        assert p.relators[0].letters == ((0, 1), (1, 1), (0, -1), (1, -1))

    def test_trefoil_expansion(self):
        p = parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>")
        expected = ((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))
        assert p.relators[0].letters == expected

    def test_free_group(self):
        p = parse_presentation("<x | >")
        assert p.num_generators == 1
        assert p.num_relators == 0

    def test_whitespace_insensitive(self):
        a = parse_presentation("<x,y|[x,y]>")
        b = parse_presentation("  < x , y |  [ x , y ] >  ")
        assert a == b

    def test_powers_and_nesting(self):
        p = parse_presentation("<a, b, c | [a, [b, c]]^2, a^-3>")
        assert p.num_relators == 2
        assert p.relators[1].letters == ((0, -1),) * 3

    def test_identity_word(self):
        p = parse_presentation("<x | 1>")
        assert p.relators[0].is_empty

    def test_unknown_generator_offset(self):
        text = "<x, y | x z>"
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert exc.value.offset == text.index("z")

    def test_malformed_exponent(self):
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation("<x | x^a>")
        assert "exponent" in str(exc.value)

    def test_unbalanced_brackets(self):
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation("<x, y | [x,y >")
        assert "bracket" in str(exc.value)

    @staticmethod
    def _nested(depth):
        # [[...[x, x], y]..., y]: every level collapses to the empty word
        return "<x, y | " + "[" * depth + "x, x]" + ", y]" * (depth - 1) + ">"

    def test_nesting_limit_is_a_parse_error(self):
        text = self._nested(3000)
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert "nested" in exc.value.message
        # the offset is that of the first '[' past the limit
        assert exc.value.offset == text.index("[") + MAX_COMMUTATOR_DEPTH
        assert text[exc.value.offset] == "["

    def test_nesting_within_limit(self):
        for depth in (50, MAX_COMMUTATOR_DEPTH):
            p = parse_presentation(self._nested(depth))
            assert p.relators[0].is_empty
        with pytest.raises(PresentationParseError):
            parse_presentation(self._nested(MAX_COMMUTATOR_DEPTH + 1))

    @staticmethod
    def _doubling(depth):
        # [[...[x, y], y]..., y]: the reduced word has 2^(depth + 1) letters
        return "<x, y | " + "[" * depth + "x, y]" + ", y]" * (depth - 1) + ">"

    def test_word_length_limit(self):
        p = parse_presentation(self._doubling(16))
        assert len(p.relators[0]) == 2**17
        text = self._doubling(17)
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert "longer than" in exc.value.message
        assert exc.value.offset == text.index("[")
        text = "<x, y | y x^1000000000000>"
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert exc.value.offset == text.index("x^")
        # the letters already in the word count towards the limit
        half = MAX_WORD_LENGTH // 2
        assert len(parse_presentation(f"<x | x^{half} x^{half}>").relators[0]) == 2 * half
        with pytest.raises(PresentationParseError):
            parse_presentation(f"<x | x^{half} x^{half} x>")

    def test_overlong_exponent(self):
        # past int()'s digit limit where there is one, past the word length otherwise
        with pytest.raises(PresentationParseError):
            parse_presentation("<x | x^" + "1" * 5000 + ">")

    def test_empty_word_to_a_huge_power(self):
        # 1 or a commutator that reduces to 1, raised past the index range,
        # once ended in an OverflowError traceback
        huge = "9" * 20
        for text in (f"<a | 1^{huge} a>", f"<a | [a, a]^-{huge} a>"):
            assert parse_presentation(text).relators[0].letters == ((0, 1),)
        assert Word() ** 10**30 == Word()

    def test_long_powers_and_words(self):
        p = parse_presentation("<x, y | x^1000 y^-1, " + "x y^-1 " * 500 + ">")
        assert p.relators[0].letters == ((0, 1),) * 1000 + ((1, -1),)
        assert p.relators[1].letters == ((0, 1), (1, -1)) * 500

    def test_missing_close(self):
        with pytest.raises(PresentationParseError):
            parse_presentation("<x | x")

    def test_trailing_garbage(self):
        with pytest.raises(PresentationParseError):
            parse_presentation("<x | x> extra")

    def test_json_form(self):
        p = presentation_from_json(
            {"generators": ["x", "y"], "relators": ["[x,y]"]}
        )
        assert p == Z2

    def test_roundtrip(self):
        rng = random.Random(9)
        samples = [FREE_1, Z2, TREFOIL]
        samples += [random_commutator_presentation(rng) for _ in range(20)]
        for p in samples:
            assert parse_presentation(format_presentation(p)) == p

    def test_parse_word_standalone(self):
        w = parse_word("[x, y] x^2", ("x", "y"))
        assert word_image(w, abelianization(FREE_FOR_IMAGES)) == (2, 0)


FREE_FOR_IMAGES = parse_presentation("<x, y | >")


# malformed inputs with the message and offset of the character-by-character
# parser that the one-match generator scanner replaced; every one must fail alike
PINNED_ERRORS = [
    ("<a | a^>", "malformed exponent", 7),
    ("<a | a^->", "malformed exponent", 7),
    ("<a | a^x>", "malformed exponent", 7),
    ("<a | a ^>", "malformed exponent", 8),
    ("<a | a ^ - 2 b>", "malformed exponent", 9),
    ("<a | a ^\t-\n3>", "malformed exponent", 9),
    ("<a | a^--1>", "malformed exponent", 7),
    ("<a | a^+1>", "malformed exponent", 7),
    ("<a | a^\u2003-\u20032>", "malformed exponent", 8),
    # '²' is a digit that int() refuses, alone or after decimal digits
    ("<a | a^²>", "malformed exponent", 7),
    ("<a | a^ ²>", "malformed exponent", 8),
    ("<a | a^-²>", "malformed exponent", 7),
    ("<a | a^2²>", "malformed exponent", 7),
    ("<a | a^" + "0" * 5000 + "1>", "malformed exponent", 7),
    ("<a | b>", "unknown generator name 'b'", 5),
    ("<a | a1>", "unknown generator name 'a1'", 5),
    ("<a | aa>", "unknown generator name 'aa'", 5),
    ("<a | a²>", "unknown generator name 'a²'", 5),
    ("<a | a٣>", "unknown generator name 'a٣'", 5),
    ("<a | _>", "unknown generator name '_'", 5),
    ("<a|a^3_>", "unknown generator name '_'", 6),
    ("<a | [a, a b>", "unknown generator name 'b'", 11),
    # '²' and '½' are alphanumeric but not alphabetic, so they start no name
    ("<a | ²a>", "unexpected character '²' in word", 5),
    ("<a | ½>", "unexpected character '½' in word", 5),
    ("<a | a^3½>", "unexpected character '½' in word", 8),
    ("<a | a^3 ٣>", "unexpected character '٣' in word", 9),
    ("<a | a $>", "unexpected character '$' in word", 7),
    ("<a | a^2^3>", "unexpected character '^' in word", 8),
    ("<a | 12>", "unexpected character '2' in word", 6),
    ("<a, b | [a,b>", "unbalanced brackets: expected ']'", 8),
    ("<a | [a>", "unbalanced brackets: expected ',' in commutator", 5),
    ("<a, b | a]>", "unbalanced brackets: unexpected ']'", 9),
    ("<a | ]>", "unbalanced brackets: unexpected ']'", 5),
    ("<a | " + "[" * 101 + "a,a" + "]" * 101 + ">", "commutators nested deeper than 100", 105),
    ("<a | a^262145>", "word longer than 262144 letters", 5),
    ("<a | a^-262145>", "word longer than 262144 letters", 5),
    ("<a | a^00000000000000000000262145>", "word longer than 262144 letters", 5),
    ("<a | a^9223372036854775808>", "word longer than 262144 letters", 5),
    ("<a | a^99999999999999999999999999>", "word longer than 262144 letters", 5),
    ("<a, b | [a, b]^131073>", "word longer than 262144 letters", 8),
    ("<a | a^2 [a^131072, a]>", "word longer than 262144 letters", 9),
    ("<a | " + "a " * 262145 + ">", "word longer than 262144 letters", 524293),
    ("<²a | a>", "expected identifier", 1),
    ("<a, a | a>", "duplicate generator name 'a'", 4),
    ("a | a>", "expected '<' to open presentation", 0),
    ("<a  a>", "expected '|' between generators and relators", 4),
    ("<a | a", "expected '>' to close presentation", 6),
    ("<a | a> x", "trailing input after '>'", 8),
    # powers of '1' and of commutators read their exponent like a generator's
    ("<a, b | [a,b]^²>", "malformed exponent", 14),
    ("<a, b | [a,b]^>", "malformed exponent", 14),
    ("<a, b | [a,b]^" + "0" * 5000 + "1>", "malformed exponent", 14),
    ("<a, b | [a,b]^ - 1>", "malformed exponent", 15),
    ("<a | 1^-a>", "malformed exponent", 7),
]

# edge inputs the same parser accepted, with their letters
PINNED_WORDS = [
    ("<a | a^٣>", ((0, 1),) * 3),  # an Arabic-Indic 3 is a decimal digit
    ("<a | a^-٣>", ((0, -1),) * 3),
    ("<a | a^0002>", ((0, 1),) * 2),
    ("<a | a^-000000000000000000003>", ((0, -1),) * 3),
    ("<a|a^ -3>", ((0, -1),) * 3),
    ("<a | a^3a>", ((0, 1),) * 4),
    ("<a | a\u2003a>", ((0, 1),) * 2),
    ("<a | a^0>", ()),
    ("<a | 1^5>", ()),
    ("<a | 1a>", ((0, 1),)),
    ("<a | [a,a] ^ 2 a>", ((0, 1),)),
    ("<a, b | a^-1b^-1 1 b>", ((0, -1),)),
    ("<a, b1 | b1^2 a^-1b1^-1 >", ((1, 1), (1, 1), (0, -1), (1, -1))),
    ("<é, b | é b é^-1 b^-1>", ((0, 1), (1, 1), (0, -1), (1, -1))),
    ("<_x | _x^3>", ((0, 1),) * 3),
    ("<a | a^262144>", ((0, 1),) * 262144),
    ("<a, b | [a,b] ^ -2>", ((1, 1), (0, 1), (1, -1), (0, -1)) * 2),
    ("<a | 1 ^ 3 a>", ((0, 1),)),
    ("<a | 1^99999999999999999999>", ()),
    ("<a, b | [a,b]^٣>", ((0, 1), (1, 1), (0, -1), (1, -1)) * 3),
]


class TestPinnedParser:
    @pytest.mark.parametrize("text, message, offset", PINNED_ERRORS,
                             ids=[f"error-{i}" for i in range(len(PINNED_ERRORS))])
    def test_malformed_input_fails_alike(self, text, message, offset):
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert (exc.value.message, exc.value.offset) == (message, offset)

    @pytest.mark.parametrize("text, letters", PINNED_WORDS,
                             ids=[f"word-{i}" for i in range(len(PINNED_WORDS))])
    def test_edge_input_reads_alike(self, text, letters):
        [relator] = parse_presentation(text).relators
        assert relator.letters == letters

    def test_roundtrip_with_powers_commutators_and_unicode_names(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        starts = "abxyéλЖß_"
        name = st.tuples(st.sampled_from(starts),
                         st.text(alphabet=starts + "0129²٣", max_size=2)).map("".join)
        exponent = st.integers(-3, 3)
        leaf = st.one_of(st.tuples(st.just("gen"), st.integers(0, 3), exponent),
                         st.just(("one",)))
        atom = st.recursive(
            leaf,
            lambda inner: st.tuples(st.just("comm"), st.lists(inner, min_size=1, max_size=3),
                                    st.lists(inner, min_size=1, max_size=3), exponent),
            max_leaves=10)
        relator = st.lists(atom, min_size=1, max_size=5)

        def render(node, names):
            if node[0] == "one":
                return "1", Word()
            if node[0] == "gen":
                _, i, k = node
                text, word = names[i % len(names)], Word.generator(i % len(names))
            else:
                _, u, v, k = node
                (ut, uw), (vt, vw) = render_word(u, names), render_word(v, names)
                text, word = f"[{ut}, {vt}]", uw * vw * uw.inverse() * vw.inverse()
            return (text if k == 1 else f"{text}^{k}"), word ** k

        def render_word(atoms, names):
            parts = [render(a, names) for a in atoms]
            word = Word()
            for _, w in parts:
                word = word * w
            return " ".join(t for t, _ in parts), word

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(name, min_size=1, max_size=4, unique=True),
                          st.lists(relator, max_size=3))
        def check(names, relators):
            rendered = [render_word(r, names) for r in relators]
            text = f"<{', '.join(names)} | {', '.join(t for t, _ in rendered)}>"
            p = parse_presentation(text)
            assert p == Presentation(tuple(names), tuple(w for _, w in rendered)), text
            assert parse_presentation(format_presentation(p)) == p

        check()


class TestSmithNormalForm:
    def test_diag_2_0(self):
        snf = smith_normal_form([[2, 0], [0, 0]])
        assert snf.diagonal == (2, 0)

    def test_single_zero(self):
        assert smith_normal_form([[0]]).diagonal == (0,)

    def test_2468(self):
        # gcd of the entries is 2 and |det| = 8, so the invariants are (2, 4)
        snf = smith_normal_form([[2, 4], [6, 8]])
        assert snf.diagonal == (2, 4)

    def test_transforms_multiply_out(self):
        # d_1 ... d_k is the gcd of the k x k minors, V is unimodular, and
        # column i of M V is divisible by d_i and zero past the rank
        rng = random.Random(21)
        for _ in range(100):
            r = rng.randint(1, 4)
            g = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(r)]
            snf = smith_normal_form(m)
            for k in range(1, min(r, g) + 1):
                minors = [int_det([[m[i][j] for j in cols] for i in rows])
                          for rows in combinations(range(r), k)
                          for cols in combinations(range(g), k)]
                assert prod(snf.diagonal[:k]) == gcd(*minors), (m, k)
            assert abs(int_det(snf.right)) == 1
            product = mat_mul(m, snf.right)
            for j in range(g):
                if j < snf.rank:
                    assert all(row[j] % snf.diagonal[j] == 0 for row in product)
                else:
                    assert all(row[j] == 0 for row in product)
            diag = [d for d in snf.diagonal if d]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_invariants_under_unimodular_action(self):
        rng = random.Random(22)
        for _ in range(50):
            r = rng.randint(1, 3)
            g = rng.randint(1, 3)
            m = [[rng.randint(-5, 5) for _ in range(g)] for _ in range(r)]
            u = random_unimodular_matrix(rng, r)
            v = random_unimodular_matrix(rng, g)
            transformed = mat_mul(mat_mul(u, m), v)
            assert smith_normal_form(m).diagonal == smith_normal_form(transformed).diagonal


class TestAbelianization:
    def test_trefoil(self):
        ab = abelianization(TREFOIL)
        assert ab.b1 == 1
        assert ab.torsion == ()
        assert ab.gen_images[0].free == ab.gen_images[1].free
        assert ab.gen_images[0].free in ((1,), (-1,))

    def test_z2(self):
        ab = abelianization(Z2)
        assert ab.b1 == 2
        assert ab.torsion == ()
        images = {ab.gen_images[0].free, ab.gen_images[1].free}
        # the two generators map to a basis of Z^2
        assert len(images) == 2

    def test_z_mod_2(self):
        ab = abelianization(parse_presentation("<x | x^2>"))
        assert ab.b1 == 0
        assert ab.torsion == (2,)
        assert ab.gen_images[0].torsion == (1,)

    @pytest.mark.parametrize("text, g", [("< | >", 0), ("<a | >", 1), ("<a, b, c | >", 3)])
    def test_no_relators(self, text, g):
        # a free group: b1 = g, no torsion, each generator a basis vector
        ab = abelianization(parse_presentation(text))
        assert ab.b1 == g
        assert ab.torsion == ()
        assert [img.free for img in ab.gen_images] == [
            tuple(int(i == j) for j in range(g)) for i in range(g)
        ]
        assert all(img.torsion == () for img in ab.gen_images)

    def test_relators_die(self):
        rng = random.Random(30)
        for _ in range(20):
            p = random_commutator_presentation(rng)
            ab = abelianization(p)
            for rel in p.relators:
                assert word_image(rel, ab) == (0,) * ab.b1


class TestFoxCalculus:
    def test_commutator_x(self):
        ab = abelianization(Z2)
        d = fox_derivative(Z2.relators[0], ab)[0]
        t2 = LaurentPoly.variable(2, 1)
        assert d == 1 - t2

    def test_commutator_y(self):
        ab = abelianization(Z2)
        d = fox_derivative(Z2.relators[0], ab)[1]
        t1 = LaurentPoly.variable(2, 0)
        assert d == t1 - 1

    def test_power_formula(self):
        free = parse_presentation("<x | >")
        ab = abelianization(free)
        x = Word.generator(0)
        for n in range(1, 6):
            d = fox_derivative(x ** n, ab)[0]
            expected = LaurentPoly(1, {(k,): 1 for k in range(n)})
            assert d == expected

    def test_fundamental_identity(self):
        rng = random.Random(41)
        presentations = [FREE_FOR_IMAGES, Z2, TREFOIL]
        presentations += [random_commutator_presentation(rng) for _ in range(5)]
        for p in presentations:
            ab = abelianization(p)
            b1 = ab.b1
            for _ in range(20):
                w = random_word(rng, p.num_generators, rng.randint(0, 10))
                row = fox_derivative(w, ab)
                lhs = LaurentPoly.zero(b1)
                for j in range(p.num_generators):
                    tj = LaurentPoly.monomial(b1, ab.gen_images[j].free)
                    lhs = lhs + row[j] * (tj - 1)
                rhs = LaurentPoly.monomial(b1, word_image(w, ab)) - 1
                assert lhs == rhs

    def test_each_column_on_its_own(self):
        # the fundamental identity sums the columns, so a wrong column can
        # cancel there; the generators and the product rule pin each column
        rng = random.Random(43)
        torsion = parse_presentation("<z, x, y | z^2, [x, z], x y x y^-1 x^-1 y^-1>")
        assert abelianization(torsion).torsion == (2,)
        for p in (FREE_FOR_IMAGES, TREFOIL, torsion):
            ab = abelianization(p)
            g, b1 = p.num_generators, ab.b1
            zero = LaurentPoly.zero(b1)
            for i in range(g):
                inverse = -LaurentPoly.monomial(b1, tuple(-x for x in ab.gen_images[i].free))
                for sign, entry in ((1, LaurentPoly.one(b1)), (-1, inverse)):
                    expected = tuple(entry if j == i else zero for j in range(g))
                    assert fox_derivative(Word.generator(i, sign), ab) == expected
            for _ in range(40):
                u = random_word(rng, g, rng.randint(0, 10))
                v = random_word(rng, g, rng.randint(0, 10))
                tu = LaurentPoly.monomial(b1, word_image(u, ab))
                du, dv, duv = (fox_derivative(w, ab) for w in (u, v, u * v))
                assert len(duv) == g
                for j in range(g):
                    assert duv[j] == du[j] + tu * dv[j]
