"""Text spec files: contexts, models, groups, families, representations,
pseudorepresentations, domains and audit parameters, in a line-oriented
key-value syntax with location-carrying diagnostics.

Each kind of literal has one reader: ``parse_element_token`` for an element
token (a decimal integer, ``pi^k`` / ``pi^k*u``, or ``coords(c0,c1,...)``),
``parse_series_literal`` for a sum of terms ``coeff*var^a*var^b`` (each
factor a model variable or an element token), ``parse_point`` for a point
``var : token, ...`` and ``_ints`` for a list of integers.  Matrix rows and
points split at the commas outside ``coords(...)``.  A ``SpecFile`` keeps
the blocks it was parsed from, and ``print_spec`` writes them back, so
``parse_spec(print_spec(s)) == s``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from loccon.padic import DomainError, PadicContext
from loccon.series import AlgebraModel, Annulus, Cover, ModelPoint
from loccon.groups import (
    FiniteGroup,
    FreeGroup,
    cyclic_group,
    dihedral_group,
    free_group,
    symmetric_group,
)


class SpecError(DomainError):
    """Spec-file problem with a source location."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


# -- element and series literals --------------------------------------------


def element_literal(x):
    """Canonical token for an integral element: decimal integer when the
    element is rational, ``pi^k*u`` when pi^k times a rational unit, else a
    full ``coords(...)`` vector."""
    coords = list(x.coords)
    if all(c == 0 for c in coords[1:]):
        return str(coords[0])
    v = x.pi_valuation()
    if v is not None and v > 0:
        u = x.shift_down(v)
        uc = list(u.coords)
        if all(c == 0 for c in uc[1:]):
            return f"pi^{v}*{uc[0]}"
    return "coords(" + ",".join(str(c) for c in coords) + ")"


_COORDS_RE = re.compile(r"coords\(([-0-9,\s]*)\)$")
_PI_RE = re.compile(r"pi\^(-?\d+)$")
_INT_RE = re.compile(r"-?\d+$")
_VAR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")
# a comma outside coords(...): separates matrix entries and point parts
_LIST_SEP_RE = re.compile(r",(?![^()]*\))")


def _int(text, what, line=None):
    """``text`` as an integer; anything else is a spec error at ``line``."""
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{what} must be an integer, got {text!r}", line) from None


def _ints(text, what, line=None):
    """The whitespace-separated integers of ``text``."""
    return [_int(c, what, line) for c in text.split()]


def parse_element_token(tok, ctx, line=None):
    tok = tok.strip()
    m = _INT_RE.match(tok)
    if m:
        return ctx.from_int(int(tok))
    m = _COORDS_RE.match(tok)
    if m:
        coords = [_int(c, "a coords entry", line)
                  for c in m.group(1).split(",") if c.strip()]
        if len(coords) != ctx.degree:
            raise SpecError(f"coords(...) needs {ctx.degree} entries", line)
        return ctx.from_coords(coords)
    parts = tok.split("*")
    m = _PI_RE.match(parts[0].strip())
    if m and len(parts) <= 2:
        k = int(m.group(1))
        if k < 0:
            raise SpecError("pi^k tokens need k >= 0 for integral elements, "
                            f"got {tok!r}", line)
        u = 1 if len(parts) == 1 else _int(parts[1], f"u in {tok!r}", line)
        return ctx.from_int(u) * ctx.pi_power(k)
    raise SpecError(f"cannot parse element token {tok!r}", line)


def series_literal(series):
    """Printable literal for an AdicSeries, terms in graded-lex order."""
    model = series.model
    items = sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    parts = []
    for mono, c in items:
        factors = [element_literal(c)]
        for name, a in zip(model.vars, mono):
            if a == 1:
                factors.append(name)
            elif a > 1:
                factors.append(f"{name}^{a}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def parse_series_literal(text, model, line=None):
    """A sum of terms, each a ``*``-product of factors: a factor that names a
    variable of ``model`` (``T``, ``T^2``) is a variable, any other an
    element token (so ``pi^k`` is a coefficient)."""
    ctx = model.base
    terms = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise SpecError("empty term in series literal", line)
        mono = [0] * len(model.vars)
        coeff = ctx.one()
        for f in term.split("*"):
            f = f.strip()
            m = _VAR_RE.match(f)
            if m and m.group(1) in model.vars and not _PI_RE.match(f):
                mono[model.var_index(m.group(1))] += int(m.group(2) or 1)
            else:
                coeff = coeff * parse_element_token(f, ctx, line)
        key = tuple(mono)
        terms[key] = terms.get(key, ctx.zero()) + coeff
    return model.series(terms)


def parse_point(text, model, ctx, what, line=None):
    """The point ``var : token, ...`` of ``model`` with coordinates over
    ``ctx``.  Each variable of the model is named exactly once; an error
    names ``what`` (the key or option that gave the text) and ``line``."""
    coords = {}
    for part in _LIST_SEP_RE.split(text):
        var, colon, tok = part.partition(":")
        var = var.strip()
        if not colon:
            raise SpecError(f"{what} entries look like 'var : token'", line)
        if var in coords:
            raise SpecError(f"{what} names variable {var!r} twice", line)
        coords[var] = parse_element_token(tok, ctx, line)
    try:
        return ModelPoint(model, coords)
    except DomainError as exc:
        raise SpecError(f"{what}: {exc}", line) from exc


# -- spec files --------------------------------------------------------------


@dataclass
class SpecFile:
    contexts: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    reps: dict = field(default_factory=dict)
    pseudoreps: dict = field(default_factory=dict)
    domains: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    # (kind, name, [(key, value), ...]) per block, in load order
    blocks: list = field(default_factory=list)

    def sole(self, kind, name=None):
        """The block of a kind with the given name, or without a name the
        only block of that kind."""
        table = getattr(self, kind)
        noun = kind[:-3] + "y" if kind.endswith("ies") else kind[:-1]
        if name is not None:
            if name not in table:
                raise SpecError(f"no {noun} block named {name!r} "
                                f"(declared: {', '.join(table) or 'none'})")
            return table[name]
        if len(table) != 1:
            raise SpecError(f"spec must contain exactly one {noun} block "
                            f"(found {len(table)})")
        return next(iter(table.values()))

    def extensions(self):
        """The contexts that ``[params] extensions`` names (one name or
        several).  Without that key: the base of the only model, else the
        only context."""
        names = self.params.get("extensions")
        if names is None:
            return [self.sole("models").base if self.models
                    else self.sole("contexts")]
        if isinstance(names, str):
            names = (names,)
        for name in names:
            if name not in self.contexts:
                raise SpecError(f"extension {name!r} is not a declared context")
        return [self.contexts[name] for name in names]

    def __eq__(self, other):
        if not isinstance(other, SpecFile):
            return NotImplemented
        return self.blocks == other.blocks


_HEADER_RE = re.compile(r"\[(\w+)(?:\s+([\w.-]+))?\]$")

_GROUP_BUILTIN = {
    "free": free_group,
    "cyclic": cyclic_group,
    "symmetric": symmetric_group,
    "dihedral": dihedral_group,
}


def parse_spec(text, precision_override=None):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _HEADER_RE.match(line.strip())
        if m:
            current = {"type": m.group(1), "name": m.group(2),
                       "line": lineno, "entries": []}
            blocks.append(current)
            continue
        if current is None:
            raise SpecError("content before the first [block] header", lineno,
                            col=len(raw) - len(raw.lstrip()) + 1)
        key, eq, val = line.partition("=")
        if not eq or not key.strip():
            raise SpecError("expected 'key = value'", lineno,
                            col=len(line) + 1)
        if not val.strip():
            raise SpecError(f"empty value for key {key.strip()!r}", lineno)
        current["entries"].append((key.strip(), val.strip(), lineno))
    spec = SpecFile()
    order = {"context": 0, "model": 1, "group": 2, "family": 3, "rep": 4,
             "pseudorep": 5, "domain": 6, "params": 7}
    for b in blocks:
        if b["type"] not in order:
            raise SpecError(f"unknown block type {b['type']!r}", b["line"])
        if b["type"] != "params" and not b["name"]:
            raise SpecError(f"{b['type']} block needs a name", b["line"])
    for b in sorted(blocks, key=lambda b: (order[b["type"]], b["line"])):
        if b["type"] == "context" and precision_override is not None:
            _override_precision(b, precision_override)
        _load_block(spec, b)
        spec.blocks.append((b["type"], b["name"],
                            [(key, val) for key, val, _ in b["entries"]]))
    return spec


def _override_precision(block, precision):
    """Write ``precision`` into a context block's entries, in place of its
    own ``precision`` line or after its last line."""
    entries = block["entries"]
    for i, (key, _, lineno) in enumerate(entries):
        if key.split()[0] == "precision":
            entries[i] = (key, str(precision), lineno)
            return
    entries.append(("precision", str(precision), block["line"]))


def load_spec(path, precision_override=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SpecError(f"spec file {path} is not UTF-8 text: {exc.reason}") from None
    return parse_spec(text, precision_override)


def _entries_dict(block, multi=()):
    out = {}
    for key, val, lineno in block["entries"]:
        base = key.split()[0]
        if base in multi:
            out.setdefault(base, []).append((key, val, lineno))
        elif base in out:
            raise SpecError(f"duplicate key {key!r}", lineno)
        else:
            out[base] = (key, val, lineno)
    return out


def _get(entries, key, block, required=True, default=None):
    if key not in entries:
        if required:
            raise SpecError(f"missing key {key!r} in [{block['type']}] block",
                            block["line"])
        return default, block["line"]
    _, val, lineno = entries[key]
    return val, lineno


def _get_int(entries, key, block, required=True, default=None):
    val, lineno = _get(entries, key, block, required, default)
    if val is default and not required:
        return default
    return _int(val, key, lineno)


def _resolve(table, name, what, lineno):
    if name not in table:
        raise SpecError(f"unresolved reference to {what} {name!r}", lineno)
    return table[name]


def _load_block(spec, block):
    t = block["type"]
    try:
        if t == "context":
            spec.contexts[block["name"]] = _load_context(block)
        elif t == "model":
            spec.models[block["name"]] = _load_model(spec, block)
        elif t == "group":
            spec.groups[block["name"]] = _load_group(block)
        elif t == "family":
            spec.families[block["name"]] = _load_rep(spec, block)
        elif t == "rep":
            spec.reps[block["name"]] = _load_rep(spec, block)
        elif t == "pseudorep":
            spec.pseudoreps[block["name"]] = _load_pseudorep(spec, block)
        elif t == "domain":
            spec.domains[block["name"]] = _load_domain(spec, block)
        elif t == "params":
            _load_params(spec, block)
    except SpecError:
        raise
    except DomainError as exc:
        raise SpecError(f"invalid [{t}] block: {exc}", block["line"]) from exc


def _load_context(block):
    e = _entries_dict(block)
    p = _get_int(e, "p", block)
    f = _get_int(e, "f", block, required=False, default=1)
    ram = _get_int(e, "e", block, required=False, default=1)
    prec = _get_int(e, "precision", block, required=False, default=20)
    unram = None
    if "unram_poly" in e:
        _, val, lineno = e["unram_poly"]
        unram = _ints(val, "unram_poly", lineno)
    eis = None
    if "eis_poly" in e:
        _, val, lineno = e["eis_poly"]
        eis = [_ints(row, "eis_poly", lineno) for row in val.split(";")]
    return PadicContext(p, f=f, e=ram, unram_poly=unram, eis_poly=eis,
                        precision=prec)


def _load_model(spec, block):
    e = _entries_dict(block)
    ctx_name, lineno = _get(e, "context", block)
    ctx = _resolve(spec.contexts, ctx_name, "context", lineno)
    bounded_val, _ = _get(e, "bounded", block, required=False, default="")
    open_val, _ = _get(e, "open", block, required=False, default="")
    bounded = tuple(bounded_val.split()) if bounded_val else ()
    open_vars = tuple(open_val.split()) if open_val else ()
    cap = _get_int(e, "degree_cap", block, required=False, default=8)
    relation = None
    if "relation" in e:
        _, val, lineno = e["relation"]
        parts = val.split(None, 2)
        if parts[0] == "annulus":
            if len(parts) != 2:
                raise SpecError("relation annulus needs 'annulus m'", lineno)
            relation = Annulus(_int(parts[1], "annulus m", lineno))
        elif parts[0] == "cover":
            if len(parts) != 3 or ":" not in parts[2]:
                raise SpecError("relation cover needs 'cover d yvar : literal'",
                                lineno)
            d = _int(parts[1], "cover d", lineno)
            yvar, lit = parts[2].split(":", 1)
            plain = AlgebraModel(ctx, bounded_vars=bounded, open_vars=open_vars,
                                 degree_cap=cap)
            g_series = parse_series_literal(lit.strip(), plain, lineno)
            g = {}
            for mono, c in g_series.terms.items():
                if any(cc != 0 for cc in c.coords[1:]):
                    raise SpecError("cover relation coefficients must be "
                                    "rational integers", lineno)
                g[mono] = c.coords[0]
            relation = Cover(d, yvar.strip(), g)
        else:
            raise SpecError(f"unknown relation preset {parts[0]!r}", lineno)
    return AlgebraModel(ctx, bounded_vars=bounded, open_vars=open_vars,
                        relation=relation, degree_cap=cap)


def _load_group(block):
    e = _entries_dict(block)
    val, lineno = _get(e, "kind", block)
    parts = val.split()
    if parts[0] in _GROUP_BUILTIN:
        return _builtin_group(parts, lineno)
    if parts[0] != "finite":
        raise SpecError(f"unknown group kind {parts[0]!r}", lineno)
    tab_val, tab_line = _get(e, "table", block)
    table = tuple(tuple(_ints(row, "table", tab_line))
                  for row in tab_val.split(";"))
    gens_val, _ = _get(e, "generators", block)
    gen_el_val, gen_el_line = _get(e, "gen_elements", block)
    identity = _get_int(e, "identity", block, required=False, default=0)
    return FiniteGroup(
        generators=tuple(gens_val.split()), table=table, identity=identity,
        gen_elements=tuple(_ints(gen_el_val, "gen_elements", gen_el_line)))


def _builtin_group(parts, lineno):
    """``kind n`` for a built-in kind; n must be one integer."""
    try:
        kind, n = parts
        n = int(n)
    except ValueError:
        raise SpecError(f"group kind {parts[0]!r} needs one integer "
                        "argument", lineno) from None
    return _GROUP_BUILTIN[kind](n)


def _group_ref(spec, val, lineno):
    parts = val.split()
    if parts[0] in _GROUP_BUILTIN and len(parts) == 2:
        return _builtin_group(parts, lineno)
    if len(parts) == 1:
        return _resolve(spec.groups, parts[0], "group", lineno)
    raise SpecError(f"cannot parse group reference {val!r}", lineno)


def _load_rep(spec, block):
    """A [rep] block (matrices over a context) or a [family] block (matrices
    of series over a model): group, dim and one ``matrix <gen>`` line per
    generator."""
    from loccon.families import RepFamily
    from loccon.lattice import IntegralRep
    e = _entries_dict(block, multi=("matrix",))
    family = block["type"] == "family"
    ref = "model" if family else "context"
    parse = parse_series_literal if family else parse_element_token
    ring_name, lineno = _get(e, ref, block)
    ring = _resolve(getattr(spec, ref + "s"), ring_name, ref, lineno)
    gval, glineno = _get(e, "group", block)
    group = _group_ref(spec, gval, glineno)
    dim = _get_int(e, "dim", block)
    images = {}
    for key, val, lineno in e.get("matrix", []):
        parts = key.split()
        if len(parts) != 2:
            raise SpecError("matrix keys look like 'matrix <generator>'", lineno)
        if parts[1] in images:
            raise SpecError(f"duplicate key {key!r}", lineno)
        images[parts[1]] = [[parse(cell, ring, lineno)
                             for cell in _LIST_SEP_RE.split(row)]
                            for row in val.split(";")]
    return (RepFamily if family else IntegralRep)(group, dim, ring, images)


def _load_pseudorep(spec, block):
    """A [pseudorep] block: the trace of a ``family`` or ``rep`` block, or
    an explicit ``value`` table on a free group.  Every check runs here
    (references, word_cap >= 1, d = 2, p != 2); the values are built when
    a command first reads them (``PseudoRep2.values``)."""
    from loccon.pseudo import PseudoRep2, from_rep_trace
    e = _entries_dict(block, multi=("value",))
    cap = _get_int(e, "word_cap", block, required=False, default=4)
    if "family" in e:
        _, val, lineno = e["family"]
        fam = _resolve(spec.families, val, "family", lineno)
        return from_rep_trace(fam, word_cap=cap)
    if "rep" in e:
        _, val, lineno = e["rep"]
        rep = _resolve(spec.reps, val, "rep", lineno)
        return from_rep_trace(rep, word_cap=cap)
    # explicit word -> value table on a free group
    gval, glineno = _get(e, "group", block)
    group = _group_ref(spec, gval, glineno)
    if not isinstance(group, FreeGroup):
        raise SpecError("explicit value tables are supported for free groups",
                        block["line"])
    ctx_name, lineno = _get(e, "context", block)
    ctx = _resolve(spec.contexts, ctx_name, "context", lineno)
    values = {}
    for key, val, lineno in e.get("value", []):
        word = _parse_word(key.split()[1:], group, lineno)
        values[word] = parse_element_token(val, ctx, lineno)
    return PseudoRep2(group, values, ctx)


def _parse_word(tokens, group, lineno):
    word = []
    for tok in tokens:
        if tok == "e":
            continue
        name, sign = tok, 1
        if tok.endswith("^-1"):
            name, sign = tok[:-3], -1
        if name not in group.generators:
            raise SpecError(f"unknown generator {name!r} in word", lineno)
        word.append((group.generators.index(name), sign))
    return tuple(word)


def _load_domain(spec, block):
    from loccon.domains import describe
    e = _entries_dict(block)
    model_name, lineno = _get(e, "model", block)
    model = _resolve(spec.models, model_name, "model", lineno)
    kind, klineno = _get(e, "kind", block)
    kind = {"wideopen": "U", "affinoid": "V", "U": "U", "V": "V"}.get(kind)
    if kind is None:
        raise SpecError("domain kind must be 'wideopen'/'U' or 'affinoid'/'V'",
                        klineno)
    n = _get_int(e, "n", block)
    cval, clineno = _get(e, "center", block)
    center = parse_point(cval, model, model.base, "center", clineno)
    return describe(model, center, n, kind)


_INT_PARAMS = ("seed", "n", "samples")  # read by the commands as ints


def _load_params(spec, block):
    for key, val, lineno in block["entries"]:
        spec.params[key] = (_int(val, key, lineno) if key in _INT_PARAMS else
                            tuple(val.split()) if " " in val else val)


# -- printing ---------------------------------------------------------------


def print_spec(spec):
    """The spec's blocks as text, in load order; comments are dropped and a
    precision override stands in each context block."""
    out = []
    for kind, name, entries in spec.blocks:
        out.append(f"[{kind} {name}]" if name else f"[{kind}]")
        out += [f"{key} = {val}" for key, val in entries]
        out.append("")
    return "\n".join(out)
