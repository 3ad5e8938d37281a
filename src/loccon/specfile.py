"""Text spec files: contexts, models, groups, families, representations,
pseudorepresentations, domains and audit parameters, in a line-oriented
key-value syntax with location-carrying diagnostics.

Series literals are sums of terms ``coeff*var^a*var^b`` where ``coeff`` is a
decimal integer, a ``pi^k`` / ``pi^k*u`` token, or a ``coords(c0,c1,...)``
coordinate vector.  ``parse_spec(print_spec(s))`` reproduces ``s``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from loccon.padic import DomainError, PadicContext
from loccon.series import AdicSeries, AlgebraModel
from loccon.groups import (
    GroupPresentation,
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


def parse_element_token(tok, ctx, line=None):
    tok = tok.strip()
    m = _INT_RE.match(tok)
    if m:
        return ctx.from_int(int(tok))
    m = _COORDS_RE.match(tok)
    if m:
        coords = [int(c) for c in m.group(1).split(",") if c.strip()]
        if len(coords) != ctx.degree:
            raise SpecError(f"coords(...) needs {ctx.degree} entries", line)
        return ctx.from_coords(coords)
    parts = tok.split("*")
    m = _PI_RE.match(parts[0].strip())
    if m and len(parts) <= 2:
        k = int(m.group(1))
        if k < 0:
            raise SpecError("pi^k tokens need k >= 0 for integral elements", line)
        u = 1 if len(parts) == 1 else int(parts[1])
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
    ctx = model.base
    terms = {}
    text = text.strip()
    if text == "0":
        return model.zero()
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise SpecError("empty term in series literal", line)
        mono = [0] * len(model.vars)
        coeff = ctx.one()
        factors = [f.strip() for f in term.split("*")]
        i = 0
        while i < len(factors):
            f = factors[i]
            if _INT_RE.match(f):
                coeff = coeff * ctx.from_int(int(f))
            elif _PI_RE.match(f):
                k = int(_PI_RE.match(f).group(1))
                coeff = coeff * ctx.pi_power(k)
            elif _COORDS_RE.match(f):
                coeff = coeff * parse_element_token(f, ctx, line)
            else:
                m = _VAR_RE.match(f)
                if not m or m.group(1) not in model.vars:
                    raise SpecError(f"unknown factor {f!r} in series literal", line)
                mono[model.var_index(m.group(1))] += int(m.group(2) or 1)
            i += 1
        key = tuple(mono)
        terms[key] = terms.get(key, ctx.zero()) + coeff
    return model.series(terms)


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
    pseudo_defs: dict = field(default_factory=dict)  # raw entries, for printing

    def sole(self, kind):
        """The unique block of a kind, for commands that take one object."""
        table = getattr(self, kind)
        if len(table) != 1:
            raise SpecError(f"spec must contain exactly one {kind[:-1]} block "
                            f"(found {len(table)})")
        return next(iter(table.values()))

    def __eq__(self, other):
        if not isinstance(other, SpecFile):
            return NotImplemented
        return _spec_signature(self) == _spec_signature(other)


def _ctx_sig(ctx):
    return (ctx.p, ctx.f, ctx.e, ctx.unram_poly, ctx.eis_poly, ctx.precision)


def _model_sig(model):
    rel = model.relation
    if rel is not None and rel[0] == "cover":
        rel = (rel[0], rel[1], rel[2], tuple(sorted(rel[3].items())))
    return (_ctx_sig(model.base), model.bounded_vars, model.open_vars,
            rel, model.degree_cap)


def _series_sig(s):
    return tuple(sorted((m, c.coords) for m, c in s.terms.items()))


def _rep_sig(rep, ring_sig, entry_sig):
    return (rep.group.kind, rep.group.generators, rep.dim, ring_sig,
            tuple((g, tuple(tuple(entry_sig(x) for x in row) for row in M))
                  for g, M in sorted(rep.gen_images.items())))


def _spec_signature(spec):
    fams = {name: _rep_sig(fam, _model_sig(fam.model), _series_sig)
            for name, fam in spec.families.items()}
    reps = {name: _rep_sig(rep, _ctx_sig(rep.context), lambda x: x.coords)
            for name, rep in spec.reps.items()}
    doms = {}
    for name, dom in spec.domains.items():
        doms[name] = (dom.kind, dom.n, _model_sig(dom.model),
                      tuple(sorted((v, c.coords)
                                   for v, c in dom.center.coords.items())))
    pseudos = {}
    for name, ps in spec.pseudoreps.items():
        pseudos[name] = (ps.group.kind, ps.group.generators, ps.word_cap,
                         tuple(sorted((str(k), _series_sig(v)
                                       if isinstance(v, AdicSeries)
                                       else v.coords)
                                      for k, v in ps.values.items())))
    return ({k: _ctx_sig(v) for k, v in spec.contexts.items()},
            {k: _model_sig(v) for k, v in spec.models.items()},
            {k: (v.kind, v.generators, v.table) for k, v in spec.groups.items()},
            fams, reps, doms, pseudos, dict(spec.params))


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
        if "=" not in line:
            raise SpecError("expected 'key = value'", lineno,
                            col=len(line) + 1)
        key, val = line.split("=", 1)
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
        _load_block(spec, b, precision_override)
    return spec


def load_spec(path, precision_override=None):
    with open(path, encoding="utf-8") as fh:
        return parse_spec(fh.read(), precision_override)


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
    try:
        return int(val)
    except (TypeError, ValueError):
        raise SpecError(f"{key} must be an integer, got {val!r}", lineno)


def _resolve(table, name, what, lineno):
    if name not in table:
        raise SpecError(f"unresolved reference to {what} {name!r}", lineno)
    return table[name]


def _load_block(spec, block, precision_override):
    t = block["type"]
    try:
        if t == "context":
            spec.contexts[block["name"]] = _load_context(block, precision_override)
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
            spec.pseudo_defs[block["name"]] = [
                (k, v) for k, v, _ in block["entries"]]
        elif t == "domain":
            spec.domains[block["name"]] = _load_domain(spec, block)
        elif t == "params":
            _load_params(spec, block)
    except SpecError:
        raise
    except DomainError as exc:
        raise SpecError(f"invalid [{t}] block: {exc}", block["line"]) from exc


def _load_context(block, precision_override):
    e = _entries_dict(block)
    p = _get_int(e, "p", block)
    f = _get_int(e, "f", block, required=False, default=1)
    ram = _get_int(e, "e", block, required=False, default=1)
    prec = _get_int(e, "precision", block, required=False, default=20)
    if precision_override is not None:
        prec = precision_override
    unram = None
    if "unram_poly" in e:
        _, val, lineno = e["unram_poly"]
        unram = [int(c) for c in val.split()]
    eis = None
    if "eis_poly" in e:
        _, val, lineno = e["eis_poly"]
        eis = [[int(c) for c in row.split()] for row in val.split(";")]
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
            relation = ("annulus", int(parts[1]))
        elif parts[0] == "cover":
            if len(parts) != 3 or ":" not in parts[2]:
                raise SpecError("relation cover needs 'cover d yvar : literal'",
                                lineno)
            d = int(parts[1])
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
            relation = ("cover", d, yvar.strip(), g)
        else:
            raise SpecError(f"unknown relation preset {parts[0]!r}", lineno)
    return AlgebraModel(ctx, bounded_vars=bounded, open_vars=open_vars,
                        relation=relation, degree_cap=cap)


def _load_group(block):
    e = _entries_dict(block)
    val, lineno = _get(e, "kind", block)
    parts = val.split()
    if parts[0] in _GROUP_BUILTIN:
        if len(parts) != 2:
            raise SpecError(f"group kind {parts[0]!r} needs one integer "
                            "argument", lineno)
        return _GROUP_BUILTIN[parts[0]](int(parts[1]))
    if parts[0] != "finite":
        raise SpecError(f"unknown group kind {parts[0]!r}", lineno)
    tab_val, tab_line = _get(e, "table", block)
    table = tuple(tuple(int(c) for c in row.split())
                  for row in tab_val.split(";"))
    gens_val, _ = _get(e, "generators", block)
    gen_el_val, _ = _get(e, "gen_elements", block)
    identity = _get_int(e, "identity", block, required=False, default=0)
    return GroupPresentation(
        kind="finite", generators=tuple(gens_val.split()), table=table,
        identity=identity,
        gen_elements=tuple(int(c) for c in gen_el_val.split()))


def _group_ref(spec, val, lineno):
    parts = val.split()
    if parts[0] in _GROUP_BUILTIN and len(parts) == 2:
        return _GROUP_BUILTIN[parts[0]](int(parts[1]))
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
        images[parts[1]] = [[parse(cell, ring, lineno) for cell in row.split(",")]
                            for row in val.split(";")]
    rep = (RepFamily if family else IntegralRep)(group, dim, ring, images)
    rep._spec_group_ref = gval
    return rep


def _load_pseudorep(spec, block):
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
    if group.kind != "free":
        raise SpecError("explicit value tables are supported for free groups",
                        block["line"])
    ctx_name, lineno = _get(e, "context", block)
    ctx = _resolve(spec.contexts, ctx_name, "context", lineno)
    values = {}
    for key, val, lineno in e.get("value", []):
        word = _parse_word(key.split()[1:], group, lineno)
        values[word] = parse_element_token(val, ctx, lineno)
    return PseudoRep2(group, values, ctx, word_cap=cap)


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
    from loccon.domains import ModelPoint, describe
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
    coords = {}
    for part in cval.split(","):
        if ":" not in part:
            raise SpecError("center entries look like 'var : token'", clineno)
        var, tok = part.split(":", 1)
        coords[var.strip()] = parse_element_token(tok, model.base, clineno)
    center = ModelPoint(model, coords)
    return describe(model, center, n, kind)


def _load_params(spec, block):
    for key, val, lineno in block["entries"]:
        try:
            spec.params[key] = int(val)
        except ValueError:
            spec.params[key] = tuple(val.split()) if " " in val else val


# -- printing ---------------------------------------------------------------


def print_spec(spec):
    out = []
    for name, ctx in spec.contexts.items():
        out.append(f"[context {name}]")
        out.append(f"p = {ctx.p}")
        out.append(f"f = {ctx.f}")
        out.append(f"e = {ctx.e}")
        out.append(f"precision = {ctx.precision}")
        out.append("unram_poly = " + " ".join(str(c) for c in ctx.unram_poly))
        out.append("eis_poly = " + " ; ".join(
            " ".join(str(c) for c in row) for row in ctx.eis_poly))
        out.append("")
    for name, model in spec.models.items():
        out.append(f"[model {name}]")
        out.append(f"context = {_name_of(spec.contexts, model.base)}")
        if model.bounded_vars:
            out.append("bounded = " + " ".join(model.bounded_vars))
        if model.open_vars:
            out.append("open = " + " ".join(model.open_vars))
        out.append(f"degree_cap = {model.degree_cap}")
        rel = model.relation
        if rel is not None:
            if rel[0] == "annulus":
                out.append(f"relation = annulus {rel[1]}")
            else:
                lit = series_literal(AlgebraModel(
                    model.base, bounded_vars=model.bounded_vars,
                    open_vars=model.open_vars,
                    degree_cap=model.degree_cap).series(rel[3]))
                out.append(f"relation = cover {rel[1]} {rel[2]} : {lit}")
        out.append("")
    for name, group in spec.groups.items():
        out.append(f"[group {name}]")
        out.append("kind = finite")
        out.append("generators = " + " ".join(group.generators))
        out.append("gen_elements = " + " ".join(str(g) for g in group.gen_elements))
        out.append(f"identity = {group.identity}")
        out.append("table = " + " ; ".join(
            " ".join(str(c) for c in row) for row in group.table))
        out.append("")
    for name, fam in spec.families.items():
        out += _rep_lines(f"[family {name}]",
                          f"model = {_name_of(spec.models, fam.model)}",
                          fam, series_literal)
    for name, rep in spec.reps.items():
        out += _rep_lines(f"[rep {name}]",
                          f"context = {_name_of(spec.contexts, rep.context)}",
                          rep, element_literal)
    for name, dom in spec.domains.items():
        out.append(f"[domain {name}]")
        out.append(f"model = {_name_of(spec.models, dom.model)}")
        out.append(f"kind = {dom.kind}")
        out.append(f"n = {dom.n}")
        out.append("center = " + " , ".join(
            f"{v} : {element_literal(c)}" for v, c in dom.center.coords.items()))
        out.append("")
    for name, entries in spec.pseudo_defs.items():
        out.append(f"[pseudorep {name}]")
        for key, val in entries:
            out.append(f"{key} = {val}")
        out.append("")
    if spec.params:
        out.append("[params]")
        for key, val in spec.params.items():
            if isinstance(val, tuple):
                val = " ".join(val)
            out.append(f"{key} = {val}")
        out.append("")
    return "\n".join(out)


def _rep_lines(header, ring_line, rep, literal):
    out = [header, ring_line, f"group = {_group_str(rep)}", f"dim = {rep.dim}"]
    for gname in rep.group.generators:
        out.append(f"matrix {gname} = " + " ; ".join(
            " , ".join(literal(x) for x in row) for row in rep.gen_images[gname]))
    return out + [""]


def _group_str(obj):
    ref = getattr(obj, "_spec_group_ref", None)
    if ref is not None:
        return ref
    if obj.group.kind == "free":
        return f"free {len(obj.group.generators)}"
    raise SpecError("finite groups print through a named [group] block")


def _name_of(table, obj):
    for name, val in table.items():
        if val is obj or val == obj:
            return name
    raise SpecError("object not registered in the spec")
