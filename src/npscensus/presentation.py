"""Parser and printer for finite group presentations.

Text form:  ``gens | relators``  e.g. ``a,b | a^4 = 1, b^2 = a^2, b^-1 a b = a^-1``

Grammar notes:
  * a word is a juxtaposition of factors; whitespace is insignificant;
  * ``^`` binds tighter than juxtaposition;
  * ``x^n`` with an integer literal n (negative allowed) is a power,
    ``x^y`` with y a generator or parenthesized word is the conjugate
    y^-1 x y;
  * ``[x, y]`` is the commutator x^-1 y^-1 x y;
  * ``u = v = w`` expands pairwise into relators u v^-1 and v w^-1;
    a lone word is itself a relator.

Words are stored as sequences of (generator index, sign) letters in
freely reduced form.
"""

from __future__ import annotations

from .core import Record

Letter = tuple[int, int]  # (generator index, +1 or -1)
Word = tuple[Letter, ...]


class PresentationError(ValueError):
    """Syntax or scope error in presentation text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def reduce_word(letters: list[Letter] | Word) -> Word:
    """Freely reduce: cancel adjacent (g, s)(g, -s) pairs."""
    out: list[Letter] = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple((g, -s) for g, s in reversed(word))


def concat(*words: Word) -> Word:
    letters: list[Letter] = []
    for w in words:
        letters.extend(w)
    return reduce_word(letters)


def word_power(word: Word, n: int) -> Word:
    if n < 0:
        word, n = invert_word(word), -n
    return reduce_word(list(word) * n)


def conjugate_word(x: Word, y: Word) -> Word:
    return concat(invert_word(y), x, y)


def commutator_word(x: Word, y: Word) -> Word:
    return concat(invert_word(x), invert_word(y), x, y)


class Presentation(Record):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        ng = len(self.generators)
        for rel in self.relators:
            for g, s in rel:
                if not 0 <= g < ng or s not in (1, -1):
                    raise ValueError(f"relator letter {(g, s)} out of range")

    def to_text(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(self.format_word(r) for r in self.relators)
        return f"{gens} | {rels}" if self.relators else f"{gens} |"

    def format_word(self, word: Word) -> str:
        if not word:
            return "1"
        parts: list[str] = []
        i = 0
        while i < len(word):
            g, s = word[i]
            j = i
            while j < len(word) and word[j] == (g, s):
                j += 1
            e = (j - i) * s
            name = self.generators[g]
            parts.append(name if e == 1 else f"{name}^{e}")
            i = j
        return " ".join(parts)


class _Parser:
    _NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
    _NAME_CONT = _NAME_START | set("0123456789")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> PresentationError:
        return PresentationError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def try_take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in self._NAME_START:
            raise self.error("expected a generator name")
        while self.pos < len(self.text) and self.text[self.pos] in self._NAME_CONT:
            self.pos += 1
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; raises PresentationError with position."""
    p = _Parser(text)
    names: list[str] = []
    p.skip_ws()
    if p.peek() != "|":
        names.append(p.name())
        while p.try_take(","):
            names.append(p.name())
    if len(set(names)) != len(names):
        raise PresentationError("duplicate generator name")
    p.take("|")
    gen_index = {nm: i for i, nm in enumerate(names)}

    def parse_atom() -> Word:
        c = p.peek()
        if c == "(":
            p.take("(")
            w = parse_word()
            p.take(")")
            return w
        if c == "[":
            p.take("[")
            x = parse_word()
            p.take(",")
            y = parse_word()
            p.take("]")
            return commutator_word(x, y)
        if c == "1":
            p.pos += 1
            return ()
        nm = p.name()
        if nm not in gen_index:
            raise p.error(f"undeclared generator {nm!r}")
        return ((gen_index[nm], 1),)

    def parse_factor() -> Word:
        w = parse_atom()
        while p.peek() == "^":
            p.take("^")
            c = p.peek()
            if c == "-" or c.isdigit():
                w = word_power(w, p.integer())
            else:
                w = conjugate_word(w, parse_atom())
        return w

    def at_word_start() -> bool:
        c = p.peek()
        return c in _Parser._NAME_START or c in ("(", "[", "1")

    def parse_word() -> Word:
        w = parse_factor()
        while at_word_start():
            w = concat(w, parse_factor())
        return w

    relators: list[Word] = []
    p.skip_ws()
    if p.pos < len(p.text):
        while True:
            sides = [parse_word()]
            while p.try_take("="):
                sides.append(parse_word())
            if len(sides) == 1:
                relators.append(sides[0])
            else:
                for u, v in zip(sides, sides[1:]):
                    relators.append(concat(u, invert_word(v)))
            if not p.try_take(","):
                break
        p.skip_ws()
        if p.pos < len(p.text):
            raise p.error("unexpected trailing input")

    return Presentation(tuple(names), tuple(relators))
