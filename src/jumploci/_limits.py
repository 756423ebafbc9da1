"""Errors and limits shared by the CLI and the computing modules.

This module imports nothing, so the CLI can name what it catches and checks
at start-up without loading a module that computes.  Each name is also
exported, as the same object, by the module that documents it: `seifert`
(`LimitError`, `IntegralityError`, `MAX_INVARIANT_BITS`), `presentation`
(`PresentationParseError`) and `holonomy` (the degree caps).
"""


class LimitError(ValueError):
    """An input beyond a documented limit, such as MAX_SWEEP_ROWS or MAX_INVARIANT_BITS."""


class IntegralityError(ArithmeticError):
    """A quantity that must be an integer failed to be one."""


class PresentationParseError(ValueError):
    """Parse failure, carrying the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


# bits any integer of the invariants may need.  Bounded from bit lengths
# before the product it bounds is formed: sum(bitlen(a_j)) for the exponent
# product a (which bounds e, the multiplicities, the genus and b, and the
# exponent count at MAX_INVARIANT_BITS / 2), and sum(s * bitlen(alpha)) +
# bitlen(|e|) for |T| = prod(alpha^s) * |e|, which is doubly exponential in
# the exponent count (2,3,...,3).  2^8192 has 2467 digits, so every integer
# stays printable under Python's 4300-digit conversion limit.
MAX_INVARIANT_BITS = 2**13

DEFAULT_DEGREE_CAP = 6

# the CLI refuses a larger --degree-cap.  For n >= 2 it bounds nothing more:
# MAX_LIE_DIMENSION already refuses degree 19 (the free Lie algebra on 2
# letters has dimension 14532 in degree 18 and 27594 in degree 19).  For
# n <= 1 the ranks stop at the first zero degree, so the cap bounds only the
# length of the ranks list and the divisor sum _moebius(up_to); degree 16000
# on one generator takes about 2 ms
MAX_DEGREE_CAP = 18
