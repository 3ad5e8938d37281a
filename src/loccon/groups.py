"""Group presentations: free groups (``FreeGroup``, dense models of
topologically finitely generated profinite groups) and finite groups given
by multiplication tables (``FiniteGroup``).

Words are tuples of (generator index, exponent sign).  Finite-group elements
are integers 0..order-1 with generator words from a breadth-first search;
free-group elements are reduced words, enumerated up to a word-length cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from loccon.padic import DomainError


@dataclass(frozen=True)
class _Group:
    """The word utilities that free and finite groups share."""

    generators: tuple

    # here, not on each kind: a finite group's own would never read the cap
    def elements(self, cap=None):
        """Every element of a finite group (the cap ignored), or the reduced
        words of length <= cap of a free group (``capped``)."""
        return self.words_up_to(cap) if self.capped else range(self.order)

    def element_words(self, cap=None):
        """{element: word in the generators} over ``elements(cap)``."""
        if self.capped:
            return {w: w for w in self.words_up_to(cap)}
        return self._bfs_words()

    # -- word utilities ---------------------------------------------------

    def reduce_word(self, word):
        out = []
        for gi, s in word:
            if out and out[-1][0] == gi and out[-1][1] == -s:
                out.pop()
            else:
                out.append((gi, s))
        return tuple(out)

    def invert_word(self, word):
        return tuple((gi, -s) for gi, s in reversed(word))

    @cached_property
    def letters(self):
        """The generators, then their inverses, as one-letter keys."""
        return tuple((i, s) for s in (1, -1) for i in range(len(self.generators)))

    def right_multiples(self, word):
        """``word`` times each letter that does not cancel its last letter."""
        cancel = (word[-1][0], -word[-1][1]) if word else None
        return [word + (let,) for let in self.letters if let != cancel]

    def word_text(self, word):
        """The word in spec syntax: ``g1 g2^-1``, or ``e`` when empty."""
        return " ".join(self.generators[gi] + ("" if s > 0 else "^-1")
                        for gi, s in word) or "e"

    def words_up_to(self, cap):
        """All reduced words of length <= cap over the generators."""
        out = [()]
        frontier = [()]
        for _ in range(cap):
            frontier = [v for w in frontier for v in self.right_multiples(w)]
            out.extend(frontier)
        return out


@dataclass(frozen=True)
class FreeGroup(_Group):
    """A free group: reduced words, with no relations and no order."""

    identity = ()
    capped = True  # elements(cap) stops at the cap

    @property
    def gen_elements(self):
        return tuple(((i, 1),) for i in range(len(self.generators)))

    @property
    def order(self):
        raise DomainError("a free group has no order: this needs a finite group")

    def multiply(self, a, b):
        return self.reduce_word(a + b)

    normal_form = _Group.reduce_word
    inverse_element = _Group.invert_word

    def relations(self):
        return ()


@dataclass(frozen=True)
class FiniteGroup(_Group):
    """A finite group: elements 0..order-1, ``table[i][j]`` their product,
    ``gen_elements`` the element of each generator."""

    table: tuple
    identity: int
    gen_elements: tuple
    capped = False

    def __post_init__(self):
        t = self.table
        n = len(t)
        if any(len(row) != n for row in t):
            raise DomainError("multiplication table must be square")
        for x in itertools.chain(*t, (self.identity,), self.gen_elements):
            if not 0 <= x < n:
                raise DomainError(f"element index {x} is outside 0..{n - 1}")
        e = self.identity
        if any(t[e][i] != i or t[i][e] != i for i in range(n)):
            raise DomainError("identity element does not act as identity")
        for i in range(n):
            if not any(t[i][j] == e and t[j][i] == e for j in range(n)):
                raise DomainError(f"element {i} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise DomainError("multiplication table is not associative")
        if len(self.gen_elements) != len(self.generators):
            raise DomainError("finite groups need one element index per generator")
        if len(self._bfs_words()) != n:
            raise DomainError("declared generators do not generate the group")

    @property
    def order(self):
        return len(self.table)

    def normal_form(self, x):
        return x

    def multiply(self, a, b):
        return self.table[a][b]

    def inverse_element(self, a):
        return self.table[a].index(self.identity)

    def relations(self):
        """(w, gi, v) for each element x and generator gi: the word w of x
        times generator gi is the word v of their product."""
        words = self.element_words()
        for x, w in words.items():
            for gi, g in enumerate(self.gen_elements):
                yield w, gi, words[self.table[x][g]]

    def _bfs_words(self):
        """Word in the generators for each reachable element."""
        e = self.identity
        words = {e: ()}
        frontier = [e]
        gens = list(self.gen_elements)
        inv = [self.inverse_element(g) for g in gens]
        while frontier:
            nxt = []
            for a in frontier:
                for gi, g in enumerate(gens):
                    for sign, gel in ((1, g), (-1, inv[gi])):
                        b = self.table[a][gel]
                        if b not in words:
                            words[b] = words[a] + ((gi, sign),)
                            nxt.append(b)
            frontier = nxt
        return words


def free_group(r):
    if r < 1:
        raise DomainError(f"free groups need rank r >= 1, not r = {r}")
    return FreeGroup(tuple(f"g{i+1}" for i in range(r)))


def cyclic_group(n):
    if n < 1:
        raise DomainError(f"cyclic groups need n >= 1, not n = {n}")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(("g",), table, 0, (1 % n,))


def _perm_group(perms, gen_names, gen_perms):
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = tuple(
        tuple(index[tuple(perms[i][perms[j][k]] for k in range(len(perms[0])))]
              for j in range(n))
        for i in range(n))
    ident = index[tuple(range(len(perms[0])))]
    return FiniteGroup(gen_names, table, ident,
                       tuple(index[p] for p in gen_perms))


def symmetric_group(n):
    if not 2 <= n <= 4:
        raise DomainError("symmetric groups supported for 2 <= n <= 4, "
                          f"not n = {n}")
    perms = list(itertools.permutations(range(n)))
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return _perm_group(perms, ("s", "c"), (transposition, cycle))


def dihedral_group(n):
    """Symmetries of the regular n-gon, as permutations of vertices."""
    if n < 1:
        raise DomainError(f"dihedral groups need n >= 1, not n = {n}")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    perms = {tuple((s * i + k) % n for i in range(n))  # i -> +-i + k
             for s in (1, -1) for k in range(n)}
    return _perm_group(perms, ("r", "f"), (rot, ref))
