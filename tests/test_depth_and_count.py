"""A depth (an exponent of pi) or a sample count below 1 is refused by the
library itself, with one wording, before any other check: a check mod pi^0
or over no point would pass vacuously."""

import pathlib

import pytest

from loccon.domains import cover_compare
from loccon.galois import crystalline_congruence_disc, semistable_congruence_bound
from loccon.lattice import carayol_audit, reduce_rep_mod
from loccon.padic import DomainError, gamma_exponent
from loccon.series import constancy_audits
from loccon.specfile import load_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
# a free group: kernel must refuse the depth before it refuses the group
FAMILY = load_spec(str(SPECS / "unramified_family.spec"))
# residually reducible: carayol_audit must refuse the depth before it
# reports the failed precondition
ISO = load_spec(str(SPECS / "iso_pair.spec"))
COVER = load_spec(str(SPECS / "cover.spec"))
# values in O, not series: constancy_audit must refuse the depth or count
# before it refuses the values
S3 = load_spec(str(SPECS / "s3_standard.spec")).sole("pseudoreps")

FAM = FAMILY.sole("families")
DOM = FAMILY.sole("domains")
EXTS = FAMILY.extensions()
REP_A, REP_B = ISO.reps.values()
COVER_DOM = COVER.sole("domains")
ENTRY = {"g1": FAM.gen_images["g1"][0][0]}

# (what the error names, call with the value under test)
CALLS = {
    "gamma_exponent": ("depth n", lambda v: gamma_exponent(1, v)),
    "strict_constancy_check":
        ("depth n", lambda v: FAM.strict_constancy_check(DOM.center, v)),
    "trace_algebra_full": ("depth n", lambda v: FAM.trace_algebra_full(v)),
    "reduce_rep_mod": ("depth m", lambda v: reduce_rep_mod(REP_A, v)),
    "carayol_audit": ("depth n", lambda v: carayol_audit(REP_A, REP_B, v)),
    "PseudoRep2.kernel":
        ("depth m", lambda v: FAMILY.sole("pseudoreps").kernel(v)),
    "PseudoRep2.constancy_audit-n":
        ("depth n", lambda v: S3.constancy_audit(DOM, v, EXTS, 4)),
    "PseudoRep2.constancy_audit-samples":
        ("samples", lambda v: S3.constancy_audit(DOM, 2, EXTS, v)),
    "ResidueDomain.sample": ("samples", lambda v: DOM.sample(EXTS[0], v)),
    "constancy_audits-n":
        ("depth n", lambda v: constancy_audits(ENTRY, DOM, v, EXTS, 4)),
    "constancy_audits-samples":
        ("samples", lambda v: constancy_audits(ENTRY, DOM, 2, EXTS, v)),
    "cover_compare-n":
        ("depth n", lambda v: cover_compare(COVER_DOM.model, COVER_DOM.center,
                                            v, COVER_DOM.model.base,
                                            samples=4)),
    "cover_compare-samples":
        ("samples", lambda v: cover_compare(COVER_DOM.model, COVER_DOM.center,
                                            2, COVER_DOM.model.base,
                                            samples=v)),
    "crystalline_congruence_disc":
        ("depth n", lambda v: crystalline_congruence_disc(2, 3, 1, v)),
    "semistable_congruence_bound":
        ("depth n", lambda v: semistable_congruence_bound(4, 3, v)),
    "pointwise_constancy_audit-n":
        ("depth n", lambda v: FAM.pointwise_constancy_audit(DOM, v, EXTS, 4)),
    "pointwise_constancy_audit-samples":
        ("samples", lambda v: FAM.pointwise_constancy_audit(DOM, 2, EXTS, v)),
}


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_value_below_one_is_refused(name, value):
    what, call = CALLS[name]
    with pytest.raises(DomainError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be at least 1, got {value}"

