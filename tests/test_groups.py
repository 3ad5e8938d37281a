"""Group presentations: multiplication tables, BFS words, free-group words."""

import pytest

from loccon import groups
from loccon.groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    free_group,
    symmetric_group,
)
from loccon.padic import DomainError


def test_orders():
    assert cyclic_group(6).order == 6
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert dihedral_group(4).order == 8


def closure_dihedral_perms(n):
    """The former construction of ``dihedral_group``: {rot, ref} closed
    under composition."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    perms = set()
    frontier = {tuple(range(n))}
    while frontier:
        nxt = set()
        for p in frontier:
            for q in (rot, ref):
                comp = tuple(p[q[i]] for i in range(n))
                if comp not in perms:
                    nxt.add(comp)
            perms.add(p)
        frontier = nxt - perms
    return perms


def test_dihedral_group_lists_the_closure_of_rotation_and_reflection(
        monkeypatch):
    """Listing i -> +-i + k gives the closure's set of permutations, which
    ``_perm_group`` sorts, so tables and generator indices are unchanged."""
    listed = []
    monkeypatch.setattr(groups, "_perm_group",
                        lambda perms, names, gens: listed.append(set(perms)))
    for n in range(1, 40):
        dihedral_group(n)
        assert listed.pop() == closure_dihedral_perms(n)


def test_identity_and_inverses():
    for g, cap in ((dihedral_group(5), None), (free_group(2), 3)):
        e = g.identity
        for x in g.elements(cap):
            assert g.multiply(x, g.inverse_element(x)) == e
            assert g.multiply(e, x) == x == g.multiply(x, e)


def test_element_words_reproduce_elements():
    for g, cap in ((cyclic_group(4), None), (symmetric_group(3), None),
                   (dihedral_group(4), None), (free_group(2), 3)):
        words = g.element_words(cap)
        assert sorted(words) == sorted(g.elements(cap))
        for el, w in words.items():
            acc = g.identity
            for gi, sign in w:
                factor = g.gen_elements[gi]
                if sign < 0:
                    factor = g.inverse_element(factor)
                acc = g.multiply(acc, factor)
            assert acc == el


def test_bad_table_rejected():
    with pytest.raises(DomainError):
        FiniteGroup(generators=("g",), table=((0, 1), (1, 1)), identity=0,
                    gen_elements=(1,))


C2_TABLE = ((0, 1), (1, 0))


@pytest.mark.parametrize("table,identity,gen_elements,bad", [
    (C2_TABLE, 9, (1,), 9),
    (C2_TABLE, 0, (9,), 9),
    (C2_TABLE, 0, (-1,), -1),
    (((0, 1, 2), (1, 2, 0), (2, 0, 7)), 0, (1,), 7),
    (((0, 1, 2), (1, 2, 0), (2, 0, -1)), 0, (1,), -1),
], ids=["identity-9", "gen-9", "gen-minus-1", "entry-7", "entry-minus-1"])
def test_element_index_outside_the_table_rejected(table, identity,
                                                  gen_elements, bad):
    """Every table entry, the identity and each generator element is an
    index 0..n-1; a negative one is not read from the end of a row."""
    with pytest.raises(DomainError,
                       match=rf"element index {bad} is outside 0\.\.{len(table) - 1}"):
        FiniteGroup(generators=("g",), table=table, identity=identity,
                    gen_elements=gen_elements)


def test_nongenerating_set_rejected():
    # the transposition alone does not generate S_3
    s3 = symmetric_group(3)
    with pytest.raises(DomainError):
        FiniteGroup(generators=("s",), table=s3.table, identity=s3.identity,
                    gen_elements=(s3.gen_elements[0],))


def test_free_word_reduction():
    f = free_group(2)
    w = ((0, 1), (1, 1), (1, -1), (0, -1), (0, 1))
    assert f.reduce_word(w) == ((0, 1),)
    assert f.reduce_word(()) == ()


def test_free_invert_word():
    f = free_group(2)
    w = ((0, 1), (1, -1))
    assert f.reduce_word(tuple(w) + f.invert_word(w)) == ()


def test_words_up_to_counts():
    f = free_group(1)
    # reduced words of length <= 2 in one generator: e, g, g^-1, g^2, g^-2
    assert len(f.words_up_to(2)) == 5
    f2 = free_group(2)
    # 1 + 4 + 4*3
    assert len(f2.words_up_to(2)) == 17


def test_words_up_to_are_distinct_reduced_words_in_length_order():
    f2 = free_group(2)
    words = f2.words_up_to(3)
    assert len(set(words)) == len(words) == 1 + 4 + 12 + 36
    assert all(f2.reduce_word(w) == w for w in words)
    assert [len(w) for w in words] == sorted(len(w) for w in words)


def test_word_text_reads_back_through_the_spec_parser():
    from loccon.specfile import _parse_word
    f2 = free_group(2)
    assert f2.word_text(()) == "e"
    assert f2.word_text(((0, 1), (1, -1))) == "g1 g2^-1"
    for w in f2.words_up_to(3):
        assert _parse_word(f2.word_text(w).split(), f2, None) == w


def test_symmetric_group_3_is_nonabelian():
    s3 = symmetric_group(3)
    s, c = s3.gen_elements
    assert s3.multiply(s, c) != s3.multiply(c, s)
