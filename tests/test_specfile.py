"""Spec-file syntax: literals, block parsing, diagnostics, round trips."""

import pytest

from loccon import specfile as sf
from loccon.groups import FreeGroup
from loccon.padic import DomainError, PadicContext
from loccon.series import AlgebraModel, Annulus, Cover

Z5 = PadicContext(5, precision=12)
RAM2 = PadicContext(5, e=2, precision=12)

BASIC = """
[context base]
p = 5
precision = 12

[context ram2]
p = 5
e = 2
precision = 12

[model disc]
context = base
open = T
degree_cap = 6

[model ann]
context = base
bounded = zeta1 zeta2
degree_cap = 6
relation = annulus 2

[model cov]
context = base
bounded = Y T
degree_cap = 6
relation = cover 2 Y : -1*T

[family F]
model = disc
group = free 1
dim = 2
matrix g1 = 1 + 1*T , 0 ; 0 , 1

[group C3]
kind = finite
generators = a
gen_elements = 1
identity = 0
table = 0 1 2 ; 1 2 0 ; 2 0 1

[group S3]
kind = symmetric 3

[rep R]
context = base
group = cyclic 2
dim = 1
matrix g = -1

[rep Q]
context = base
group = C3
dim = 1
matrix a = 1

[rep S]
context = base
group = S3
dim = 2
matrix s = 0 , 1 ; 1 , 0
matrix c = 0 , -1 ; 1 , -1

[pseudorep P]
family = F
word_cap = 3

[domain D]
model = disc
kind = wideopen
n = 2
center = T : 0

[params]
n = 2
samples = 10
seed = 1
extensions = base ram2
"""


def test_parse_basic_blocks():
    spec = sf.parse_spec(BASIC)
    assert set(spec.contexts) == {"base", "ram2"}
    assert spec.models["ann"].relation == Annulus(2)
    assert isinstance(spec.models["cov"].relation, Cover)
    assert isinstance(spec.families["F"].group, FreeGroup)
    assert spec.groups["C3"].order == 3 and spec.groups["S3"].order == 6
    assert spec.reps["S"].group is spec.groups["S3"]
    assert spec.domains["D"].kind == "U" and spec.domains["D"].n == 2
    assert spec.params["extensions"] == ("base", "ram2")


def test_round_trip_equality():
    spec = sf.parse_spec(BASIC)
    assert sf.parse_spec(sf.print_spec(spec)) == spec


def test_precision_override():
    spec = sf.parse_spec(BASIC, precision_override=8)
    assert spec.contexts["base"].precision == 8


def test_element_token_round_trips():
    for tok in ("17", "0", "-3", "pi^3*2", "pi^1", "coords(2,3)"):
        x = sf.parse_element_token(tok, RAM2)
        y = sf.parse_element_token(sf.element_literal(x), RAM2)
        assert (x - y).pi_valuation() is None


def test_series_literal_round_trip():
    model = AlgebraModel(Z5, open_vars=("T",), degree_cap=6)
    s = model.series({(0,): Z5.from_int(4) * Z5.pi_power(2),
                      (1,): 3, (2,): -1})
    assert sf.parse_series_literal(sf.series_literal(s), model) == s
    assert sf.series_literal(model.zero()) == "0"
    assert sf.parse_series_literal("0", model) == model.zero()


def test_series_literal_pi_tokens():
    model = AlgebraModel(RAM2, open_vars=("T",), degree_cap=4)
    s = model.series({(1,): RAM2.pi() * RAM2.from_int(3)})
    lit = sf.series_literal(s)
    assert "pi^1*3" in lit
    assert sf.parse_series_literal(lit, model) == s


def test_unknown_variable_rejected_with_location():
    model = AlgebraModel(Z5, open_vars=("T",), degree_cap=4)
    with pytest.raises(sf.SpecError):
        sf.parse_series_literal("1*X", model)


def test_series_factor_pi_negative_power_names_the_token():
    """A series factor that is not a variable is read as an element token,
    so a negative pi power is refused with the token in the message."""
    model = AlgebraModel(Z5, open_vars=("T",), degree_cap=4)
    with pytest.raises(sf.SpecError, match=r"'pi\^-1'"):
        sf.parse_series_literal("pi^-1*T", model)


# f = 2: coords(c0,c1) entries hold a comma, which must not split a row
COORDS_SPEC = """[context u]
p = 5
f = 2

[model disc]
context = u
open = T
degree_cap = 4

[rep R]
context = u
group = free 1
dim = 2
matrix g1 = coords(1,1) , coords(0,1) ; 0 , 1

[family F]
model = disc
group = free 1
dim = 2
matrix g1 = 1 + coords(0,1)*T , 0 ; 0 , 1

[domain D]
model = disc
kind = U
n = 1
center = T : coords(5,0)
"""


def test_coords_entries_in_matrices_and_points():
    spec = sf.parse_spec(COORDS_SPEC)
    u = spec.contexts["u"]
    row = spec.reps["R"].gen_images["g1"][0]
    assert row == [u.from_coords([1, 1]), u.from_coords([0, 1])]
    entry = spec.families["F"].gen_images["g1"][0][0]
    assert entry.terms[(1,)] == u.from_coords([0, 1])
    assert spec.domains["D"].center.coords["T"] == u.from_int(5)
    assert sf.parse_spec(sf.print_spec(spec)) == spec


REP_BLOCK = "[context c]\np = 5\n[rep R]\ncontext = c\n"


@pytest.mark.parametrize("text,needle", [
    ("p = 5", "before the first"),
    ("[context c]\nq = 1", "missing key 'p'"),
    ("[model m]\ncontext = nosuch", "line 2"),
    ("[context c]\np = 4", "not prime"),
    ("[context c]\np = 5\np = 7", "duplicate key"),
    ("[widget w]\nx = 1", "unknown block type"),
    ("[context c]\nnonsense line", "key = value"),
    ("[context c]\np = 5\n = 7", "line 3, col 5: expected 'key = value'"),
    (REP_BLOCK + "group = free 2\ndim = 2\nmatrix g1 = 1 , 0 ; 0 , 1",
     "line 3: invalid [rep] block: missing matrix for generator 'g2'"),
    (REP_BLOCK + "group = free 1\ndim = 2\n"
     "matrix g1 = 1 , 0 , 0 ; 0 , 1 , 0 ; 0 , 0 , 1",
     "line 3: invalid [rep] block: matrix for generator 'g1' is not 2 x 2"),
    (REP_BLOCK + "group = free 1\ndim = 1\nmatrix g1 = 1\nmatrix h = 1",
     "line 3: invalid [rep] block: matrix for 'h', which is not a generator"),
    (REP_BLOCK + "group = free 1\ndim = 1\nmatrix g1 = 1\nmatrix g1 = 2",
     "line 8: duplicate key 'matrix g1'"),
    (COORDS_SPEC.replace("T : coords(5,0)", "T : coords(5,0) , T : 0"),
     "line 26: center names variable 'T' twice"),
    (COORDS_SPEC.replace("T : coords(5,0)", "T : coords(5,0) , X : 3"),
     "line 26: center: point names 'X', which is not a variable of the model"),
])
def test_diagnostics_carry_locations(text, needle):
    with pytest.raises(sf.SpecError) as err:
        sf.parse_spec(text)
    assert needle in str(err.value)


@pytest.mark.parametrize("key", ["open", "bounded"])
def test_a_model_variable_named_pi_is_refused(key):
    """pi^2 in a literal is the uniformizer squared, so a variable named pi
    would make the family cell 1 + pi^2 the constant 26 and print back as
    a constant: the model refuses the name, in a spec and in the library."""
    text = ("[context base]\np = 5\n[model m]\ncontext = base\n"
            f"{key} = T pi\n[family F]\nmodel = m\ngroup = free 1\n"
            "dim = 1\nmatrix g1 = 1 + pi^2\n")
    with pytest.raises(sf.SpecError) as err:
        sf.parse_spec(text)
    assert str(err.value) == ("line 3: invalid [model] block: a variable "
                              "cannot be named pi, the uniformizer")
    with pytest.raises(DomainError, match="cannot be named pi"):
        AlgebraModel(PadicContext(5), **{f"{key}_vars": ("T", "pi")})


def test_unresolved_family_model_reference():
    text = "[family F]\nmodel = ghost\ngroup = free 1\ndim = 1\nmatrix g1 = 1"
    with pytest.raises(sf.SpecError) as err:
        sf.parse_spec(text)
    assert "unresolved" in str(err.value)


def test_invariants_checked_at_load_time():
    text = """
[context base]
p = 5
[model disc]
context = base
open = T
[family F]
model = disc
group = cyclic 2
dim = 1
matrix g = 2
"""
    with pytest.raises(sf.SpecError) as err:
        sf.parse_spec(text)
    assert "relations" in str(err.value)


def test_explicit_pseudorep_values():
    text = """
[context base]
p = 5
[pseudorep Q]
group = free 1
context = base
word_cap = 2
value e = 2
value g1 = 7
value g1 g1 = 47
value g1^-1 = 0
value g1^-1 g1^-1 = 0
"""
    spec = sf.parse_spec(text)
    q = spec.pseudoreps["Q"]
    assert q.value(((0, 1),)).coords[0] == 7
    assert sf.parse_spec(sf.print_spec(spec)) == spec


def test_shipped_specs_round_trip():
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent / "specs"
    names = sorted(p.name for p in here.glob("*.spec"))
    assert names  # the repo ships example specs
    for name in names:
        spec = sf.load_spec(here / name)
        assert sf.parse_spec(sf.print_spec(spec)) == spec


def test_builtin_group_prints_its_kind_line():
    """A built-in group prints back as its one kind line, not as a table."""
    spec = sf.parse_spec("[group S4]\nkind = symmetric 4\n")
    printed = sf.print_spec(spec).splitlines()
    assert printed[:2] == ["[group S4]", "kind = symmetric 4"]
    assert not any(line.startswith("table") for line in printed)
    assert sf.parse_spec(sf.print_spec(spec)) == spec


def test_precision_override_is_printed_into_every_context():
    """The override replaces a context's precision line, or is added to a
    context without one, and the printed spec parses back at it."""
    text = "[context a]\np = 5\nprecision = 12\n\n[context b]\np = 3\ne = 2\n"
    spec = sf.parse_spec(text, precision_override=8)
    printed = sf.print_spec(spec)
    assert printed == ("[context a]\np = 5\nprecision = 8\n\n"
                       "[context b]\np = 3\ne = 2\nprecision = 8\n")
    again = sf.parse_spec(printed)
    assert [c.precision for c in again.contexts.values()] == [8, 8]
    assert again == spec
    assert sf.parse_spec(text) != spec


def test_print_drops_comments():
    text = "# a base ring\n[context c]   # Z_5\np = 5  # the prime\n# end\n"
    assert sf.print_spec(sf.parse_spec(text)) == "[context c]\np = 5\n"


def test_multi_key_entries_and_unnamed_params_print_verbatim():
    text = """[context base]
p = 5

[rep R]
context = base
group = free 1
dim = 2
matrix g1 = 1 ,1; 0, 1

[pseudorep Q]
group = free 1
context = base
value e = 2
value g1 = 2
value g1 g1 = 2
value g1^-1 g1^-1 = 2

[params]
n = 2
extensions = base
"""
    assert sf.print_spec(sf.parse_spec(text)) == text
