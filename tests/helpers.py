"""Shared deterministic generators for the test suite."""

from twistlab import HomologyClass, Surface, TwistLetter, TwistWord, canonicalize_word


def random_class(surface: Surface, rng, lo=-3, hi=3):
    return surface.homology_class(
        [rng.randint(lo, hi) for _ in range(surface.betti)]
    )


def random_exponent(rng, lo=-3, hi=3) -> int:
    e = 0
    while e == 0:
        e = rng.randint(lo, hi)
    return e


def random_word(
    surface: Surface, rng, classes=None, max_len=6, exp_lo=-3, exp_hi=3
) -> TwistWord:
    length = rng.randint(0, max_len)
    letters = []
    for _ in range(length):
        curve = rng.choice(classes) if classes else random_class(surface, rng)
        letters.append(TwistLetter(curve, random_exponent(rng, exp_lo, exp_hi)))
    return TwistWord(tuple(letters), surface)


def cycled(word: TwistWord, shift: int) -> TwistWord:
    """Cyclic permutation of the letters (a conjugate word)."""
    if not word.letters:
        return word
    shift %= len(word.letters)
    return TwistWord(word.letters[shift:] + word.letters[:shift], word.surface)


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def parse_word(text: str, surface: Surface) -> TwistWord:
    """Parse twist-word text on the given surface."""
    return canonicalize_word(text, surface)[0]


def format_class(cls: HomologyClass) -> str:
    """Render a class as a basis token when it is one, else as a vector."""
    coords = cls.coords
    nonzero = [i for i, c in enumerate(coords) if c != 0]
    if len(nonzero) == 1 and coords[nonzero[0]] == 1:
        position = nonzero[0]
        genus = cls.surface.genus
        if position < 2 * genus:
            family = "a" if position % 2 == 0 else "b"
            return f"{family}{position // 2 + 1}"
        return f"d{position - 2 * genus + 1}"
    return "[" + ",".join(str(c) for c in coords) + "]"


def format_word(word: TwistWord) -> str:
    """Canonical text of a word built programmatically."""
    parts = []
    for letter in word.letters:
        body = format_class(letter.curve)
        parts.append(body if letter.exponent == 1 else f"{body}^{letter.exponent}")
    return " ".join(parts)
