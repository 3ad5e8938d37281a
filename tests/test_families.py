"""Matrix families over mixed algebras: constancy and trace-algebra tests."""

import pytest

from loccon.domains import ModelPoint, describe
from loccon.families import RepFamily
from loccon.groups import cyclic_group, free_group
from loccon.lattice import IntegralRep, ResidueRep
from loccon.padic import DomainError, PadicContext
from loccon.series import AlgebraModel, Annulus

Z5 = PadicContext(5, precision=14)
DISC = AlgebraModel(Z5, open_vars=("T",), degree_cap=6)
ORIGIN = ModelPoint(DISC, {"T": Z5.zero()})

FREE1 = free_group(1)


def unramified_family(scale=1):
    """Frob -> [[1 + scale*T, 0], [0, 1]] over the open unit disc."""
    t = DISC.var("T").scale(scale)
    one = DISC.constant(1)
    zero = DISC.zero()
    return RepFamily(FREE1, 2, DISC, {"g1": [[one + t, zero], [zero, one]]})


def test_generator_images_must_be_invertible():
    t = DISC.var("T")
    with pytest.raises(DomainError):
        RepFamily(FREE1, 2, DISC, {"g1": [[t, DISC.zero()],
                                          [DISC.zero(), DISC.constant(1)]]})


def _elements(images):
    return {g: [[Z5.from_int(x) for x in row] for row in M]
            for g, M in images.items()}


# the three representation classes, as build(group, dim, integer images)
# and the constant of their ring
CLASSES = {
    "family": (lambda group, dim, images: RepFamily(group, dim, DISC, images),
               DISC.constant),
    "integral": (lambda group, dim, images: IntegralRep(
        group, dim, Z5, _elements(images)), Z5.from_int),
    "residue": (lambda group, dim, images: ResidueRep(
        group, dim, Z5, 2, _elements(images)), Z5.from_int),
}


def test_finite_relations_are_checked():
    for build, const in CLASSES.values():
        good = build(cyclic_group(2), 1, {"g": [[-1]]})
        assert good.trace_of_word(((0, 1),)) == const(-1)
        for group in (cyclic_group(2), cyclic_group(3)):
            with pytest.raises(DomainError, match="relations"):
                build(group, 1, {"g": [[2]]})


def test_residue_relations_hold_mod_pi_m():
    """24^2 = 1 mod 25, but not mod 125 and not in Z_5."""
    c2, g = cyclic_group(2), {"g": [[Z5.from_int(24)]]}
    ResidueRep(c2, 1, Z5, 2, g)
    for build in (lambda: ResidueRep(c2, 1, Z5, 3, g),
                  lambda: IntegralRep(c2, 1, Z5, g)):
        with pytest.raises(DomainError, match="relations"):
            build()


@pytest.mark.parametrize("kind", sorted(CLASSES))
@pytest.mark.parametrize("images,error", [
    ({}, "missing matrix for generator 'g'"),
    ({"g": [[-1, 0], [0, 1]]}, "not 1 x 1"),
    ({"g": [[-1]], "h": [[1]]}, "'h', which is not a generator"),
    ({"g": [[5]]}, "non-unit determinant"),
])
def test_one_unit_matrix_per_generator(kind, images, error):
    build, _ = CLASSES[kind]
    with pytest.raises(DomainError, match=error):
        build(cyclic_group(2), 1, images)


def test_element_entries_become_constant_series():
    fam = RepFamily(FREE1, 2, DISC, {"g1": [[Z5.from_int(2), 0],
                                            [0, DISC.constant(1) + DISC.var("T")]]})
    rep = fam.specialize(ModelPoint(DISC, {"T": Z5.from_int(5)}))
    assert rep.gen_images["g1"] == [[Z5.from_int(2), Z5.zero()],
                                    [Z5.zero(), Z5.from_int(6)]]


def test_matrix_of_word_respects_inverses():
    fam = unramified_family()
    m = fam.matrix_of_word(((0, 1), (0, -1)))
    assert m[0][0] == DISC.constant(1)
    assert m[0][1] == DISC.zero()


def test_trace_oracle():
    fam = unramified_family()
    assert fam.trace_of_word(((0, 1),)) == DISC.constant(2) + DISC.var("T")


def test_specialize_at_point():
    fam = unramified_family()
    rep = fam.specialize(ModelPoint(DISC, {"T": Z5.from_int(5)}))
    top = rep.gen_images["g1"][0][0]
    assert (top - Z5.from_int(6)).pi_valuation() is None


def test_readers_do_not_check_a_built_point_again(monkeypatch):
    """specialize, member and the family audit read ModelPoints as checked:
    the audit checks only the points it builds (one center per extension
    and the sampler's draws)."""
    from loccon import series
    pt = ModelPoint(DISC, {"T": Z5.from_int(25)})
    dom = describe(DISC, ORIGIN, 2, "U")
    checks = []
    check = series._check_point
    monkeypatch.setattr(series, "_check_point",
                        lambda *args: checks.append(args[1]) or check(*args))
    fam = unramified_family()
    fam.specialize(pt)
    assert dom.member(pt)
    assert checks == []
    built = []
    sample = dom.sample

    def counted(ext, count, seed=0):
        before = len(checks)
        out = sample(ext, count, seed=seed)
        built.append(len(checks) - before)
        return out
    monkeypatch.setattr(dom, "sample", counted)
    exts = [Z5, PadicContext(5, e=2, precision=14)]
    assert fam.pointwise_constancy_audit(dom, 2, exts, 4)["verdict"] == "pass"
    assert len(checks) == len(exts) + sum(built)


# -- strict constancy --------------------------------------------------------


def test_strict_constancy_on_affinoid_coordinates():
    fam = unramified_family()
    for n in (1, 2, 3):
        ok, witness, consts = fam.strict_constancy_check(ORIGIN, n)
        assert ok and witness is None
        assert (consts["g1"][0][0] - Z5.one()).pi_valuation() is None


def test_strict_constancy_fails_on_wide_open_coordinates():
    fam = unramified_family()
    ok, witness, _ = fam.strict_constancy_check(ORIGIN, 2, scale=1)
    assert not ok
    assert witness[0] == "g1" and witness[3] == "T"


def test_strict_constancy_at_scale_zero_runs_the_check():
    # recentering without rescaling leaves 1 + T, not constant mod pi^2
    fam = unramified_family()
    ok, witness, consts = fam.strict_constancy_check(ORIGIN, 2, scale=0)
    assert not ok and consts is None
    assert witness[0] == "g1" and witness[3] == "T"


# -- pointwise audit ---------------------------------------------------------


def test_pointwise_audit_passes_on_wide_open():
    fam = unramified_family()
    dom = describe(DISC, ORIGIN, 2, "U")
    exts = [Z5, PadicContext(5, e=2, precision=14)]
    rep = fam.pointwise_constancy_audit(dom, 2, exts, 8, seed=0)
    assert rep["verdict"] == "pass"
    assert all(e["failures"] == 0 for e in rep["extensions"])


def test_pointwise_audit_catches_boundary_points():
    """A point with v(T) = n - 1 sits outside U^(n) and breaks congruence."""
    fam = unramified_family()
    n = 2
    bad = ModelPoint(DISC, {"T": Z5.from_int(5)})  # v = n - 1

    class FixedDomain:
        center = ORIGIN
        model = DISC

        def sample(self, ext, count, seed=0):
            return [bad]

    rep = fam.pointwise_constancy_audit(FixedDomain(), n, [Z5], 1)
    assert rep["verdict"] == "fail"
    assert rep["witnesses"]


@pytest.mark.parametrize("n,samples,message", [
    (2, 0, "samples must be at least 1, got 0"),
    (2, -3, "samples must be at least 1, got -3"),
    (0, 4, "depth n must be at least 1, got 0"),
])
def test_pointwise_audit_refuses_an_empty_audit(n, samples, message):
    """No sample or no depth checks nothing, so it is refused, not a pass."""
    dom = describe(DISC, ORIGIN, 2, "U")
    with pytest.raises(DomainError) as exc:
        unramified_family().pointwise_constancy_audit(dom, n, [Z5], samples)
    assert str(exc.value) == message


# -- trace algebra -----------------------------------------------------------


def test_trace_algebra_full_for_unit_slope():
    fam = unramified_family()
    out = fam.trace_algebra_full(2)
    assert out["verdict"] == "full"


def test_trace_algebra_proper_for_p_scaled_family():
    fam = unramified_family(scale=5)
    out = fam.trace_algebra_full(2)
    assert out["verdict"] == "proper"


def test_trace_algebra_proper_for_constant_family():
    one = DISC.constant(1)
    zero = DISC.zero()
    fam = RepFamily(FREE1, 2, DISC,
                    {"g1": [[one + one, zero], [zero, one]]})
    out = fam.trace_algebra_full(2)
    assert out["verdict"] == "proper"


@pytest.mark.parametrize("scale,n,word_cap,verdict,rounds", [
    (1, 2, 3, "full", 1),
    (1, 1, 2, "full", 2),
    (1, 2, 1, "full", 3),
    (5, 1, 3, "proper", 1),
    (5, 2, 3, "proper", 2),
])
def test_trace_algebra_rounds(scale, n, word_cap, verdict, rounds):
    """A full span reports the round that filled it; a proper one counts
    its last round too, in which nothing grew."""
    out = unramified_family(scale).trace_algebra_full(n, word_cap=word_cap)
    assert out == {"verdict": verdict, "rounds": rounds, "modulus": n,
                   "degree_budget": 6}


def test_trace_algebra_one_monomial_span_reports_one_round():
    """With degree cap 0 the span is full at the start, which counts as
    one round."""
    point = AlgebraModel(Z5, open_vars=("T",), degree_cap=0)
    fam = RepFamily(FREE1, 1, point, {"g1": [[point.constant(2)]]})
    assert fam.trace_algebra_full(2) == {"verdict": "full", "rounds": 1,
                                         "modulus": 2, "degree_budget": 0}


def test_trace_algebra_needs_disc_model():
    ann = AlgebraModel(Z5, bounded_vars=("zeta1", "zeta2"),
                       relation=Annulus(1), degree_cap=4)
    fam = RepFamily(FREE1, 1, ann, {"g1": [[ann.constant(1)]]})
    with pytest.raises(DomainError):
        fam.trace_algebra_full(1)
