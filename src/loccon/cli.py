"""Command-line front end: spec-file loading, dispatch, JSON reports.

Exit codes: 0 = pass/computed, 1 = mathematical falsification (with
witness), 2 = inconclusive / budget exhausted, 3 = usage or spec error.
Reports are byte-stable for a fixed (spec, seed, --single-thread) triple.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from loccon.padic import (
    DomainError,
    InconclusiveError,
    PadicElement,
    PadicNumber,
    PrecisionError,
    gamma_exponent,
    require_at_least_one,
)
from loccon import galois, specfile
from loccon.domains import ModelPoint, cover_compare
from loccon.lattice import (
    carayol_audit,
    iso_mod,
    reduce_rep_mod,
    semisimplify_mod_p,
    stable_lattice,
)
from loccon.specfile import SpecError, element_literal, parse_element_token


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, PadicElement):
        return element_literal(x)
    if isinstance(x, PadicNumber):
        return {"num": element_literal(x.num), "denom_pow": x.denom_pow}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(report, args, code=None):
    payload = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    print(payload)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if code is None:
        code = {"fail": 1, "THEOREM_VIOLATION": 1,
                "inconclusive": 2, "precondition_failed": 2,
                "no_decomposition": 2}.get(report.get("verdict"), 0)
    return code


def _load(args):
    """The spec named by ``--spec``, or None without one."""
    if args.spec_path is None:
        return None
    return specfile.load_spec(args.spec_path, precision_override=args.precision)


def _spec(args):
    if args.spec is None:
        raise SpecError("this command needs --spec FILE")
    return args.spec


def _param(spec, args, key, default):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if spec is not None and key in spec.params:
        return spec.params[key]
    return default


def _resolve_params(args):
    """Resolve the seed, the depth n and the sample count, each on the
    subcommands that have its flag: the flag, then its ``[params]`` key,
    then the default.  The library refuses a depth or count below 1."""
    for key, default in (("seed", 0), ("n", 1), ("samples", 25)):
        if key in vars(args):
            setattr(args, key, _param(args.spec, args, key, default))


# -- bounds -----------------------------------------------------------------


def cmd_bounds(args):
    if args.op == "gamma":
        return _emit({"gamma": gamma_exponent(args.e, args.n)}, args)
    if args.op == "alpha":
        return _emit({"alpha": galois.alpha(args.km1, args.p)}, args)
    if args.op == "crys-disc":
        rep = galois.crystalline_congruence_disc(
            args.k, args.p, Fraction(args.v), args.n)
        return _emit(rep, args)
    if args.op == "sst-bound":
        return _emit(
            {"bound": galois.semistable_congruence_bound(args.k, args.p, args.n)},
            args)
    raise SpecError(f"unknown bounds operation {args.op!r}")


# -- domain -----------------------------------------------------------------


def _ext(spec, dom, args):
    """The context named by ``--ext``, else the base of the domain's model."""
    return spec.sole("contexts", args.ext) if args.ext else dom.model.base


def _domain_point(spec, dom, args):
    ext = _ext(spec, dom, args)
    coords = {}
    for part in (args.point or "").split(","):
        if ":" not in part:
            raise SpecError("--point entries look like 'var : token'")
        var, tok = part.split(":", 1)
        coords[var.strip()] = parse_element_token(tok, ext)
    return ModelPoint(dom.model, coords)


def cmd_domain(args):
    spec = _spec(args)
    dom = spec.sole("domains", args.name)
    if args.op == "describe":
        return _emit(dom.to_json(), args)
    if args.op == "member":
        pt = _domain_point(spec, dom, args)
        try:
            inside = dom.member(pt)
        except PrecisionError as exc:
            return _emit({"verdict": "inconclusive", "reason": str(exc)}, args)
        return _emit({"member": inside, "kind": dom.kind, "n": dom.n}, args)
    if args.op == "sample":
        pts = dom.sample(_ext(spec, dom, args), args.samples, seed=args.seed)
        return _emit({"count": len(pts), "points": [p.to_json() for p in pts]},
                     args)
    if args.op == "cover-compare":
        rep = cover_compare(dom.model, dom.center, dom.n,
                            _ext(spec, dom, args), samples=args.samples,
                            seed=args.seed)
        return _emit(rep, args)
    raise SpecError(f"unknown domain operation {args.op!r}")


# -- family -----------------------------------------------------------------


def cmd_family(args):
    spec = _spec(args)
    fam = spec.sole("families", args.name)
    n = args.n
    if args.op == "check-strict":
        # the depth error comes before the trivial pass below
        require_at_least_one("depth n", n)
        dom = spec.sole("domains")
        scale = args.scale if args.scale is not None else \
            (n - 1 if dom.kind == "U" else n)
        rep = {"n": n, "kind": dom.kind, "scale": scale}
        if scale < 1:
            # wide open at n = 1: the residue domain carries no congruence
            rep["verdict"] = "pass"
            rep["note"] = "trivial at this depth"
        else:
            ok, witness, _ = fam.strict_constancy_check(dom.center, n,
                                                        scale=scale)
            rep["verdict"] = "pass" if ok else "fail"
            if witness is not None:
                rep["witness"] = str(witness)
        return _emit(rep, args)
    if args.op == "audit":
        dom = spec.sole("domains")
        rep = fam.pointwise_constancy_audit(dom, n, spec.extensions(),
                                            args.samples, seed=args.seed)
        return _emit(rep, args)
    if args.op == "trace":
        word = specfile._parse_word(args.word.split(), fam.group, None)
        return _emit({"word": args.word,
                      "trace": specfile.series_literal(fam.trace_of_word(word))},
                     args)
    if args.op == "trace-algebra":
        rep = fam.trace_algebra_full(n, word_cap=_param(spec, args, "word_cap", 3))
        return _emit(rep, args)
    raise SpecError(f"unknown family operation {args.op!r}")


# -- lattice ----------------------------------------------------------------


def _two_reps(spec, args):
    """The (left, right) reps: the blocks that --left and --right name.  A
    lone name pairs with the other of the spec's two rep blocks, on the
    other side; without names the two blocks compare in file order."""
    left = spec.sole("reps", args.left) if args.left else None
    right = spec.sole("reps", args.right) if args.right else None
    if left is not None and right is not None:
        return left, right
    if len(spec.reps) != 2:
        raise SpecError("this command needs exactly two rep blocks "
                        "(or both --left and --right names)")
    first, second = spec.reps.values()
    if left is not None:
        return left, second if left is first else first
    if right is not None:
        return second if right is first else first, right
    return first, second


def cmd_lattice(args):
    spec = _spec(args)
    if args.op == "stabilize":
        rep = spec.sole("reps", args.left)
        images = {g: [[PadicNumber(x) for x in row] for row in M]
                  for g, M in rep.gen_images.items()}
        lat, cert = stable_lattice(rep.group, rep.dim, rep.context, images)
        return _emit({"verdict": "pass", "certificate": cert,
                      "matrices": {g: M for g, M in lat.gen_images.items()}},
                     args)
    if args.op == "reduce":
        # the depth error comes first, as in the library, not the lookup's
        require_at_least_one("depth m", args.m)
        rr = reduce_rep_mod(spec.sole("reps", args.left), args.m)
        return _emit({"modulus": args.m,
                      "matrices": {g: M for g, M in rr.gen_images.items()}},
                     args)
    if args.op == "iso":
        a, b = _two_reps(spec, args)
        res = iso_mod(reduce_rep_mod(a, args.m), reduce_rep_mod(b, args.m),
                      seed=args.seed)
        rep = {"status": res.status, "certificate": res.certificate,
               "modulus": args.m}
        if res.intertwiner is not None:
            rep["intertwiner"] = res.intertwiner
        code = {"isomorphic": 0, "not_isomorphic": 1}.get(res.status, 2)
        return _emit(rep, args, code)
    if args.op == "semisimplify":
        rep = spec.sole("reps", args.left)
        ss = semisimplify_mod_p(reduce_rep_mod(rep, 1), seed=args.seed)
        code = 0 if ss["complete"] else 2
        return _emit(ss, args, code)
    if args.op == "carayol":
        a, b = _two_reps(spec, args)
        rep = carayol_audit(a, b, args.n, seed=args.seed)
        return _emit(rep, args)
    raise SpecError(f"unknown lattice operation {args.op!r}")


# -- pseudorep --------------------------------------------------------------


def cmd_pseudorep(args):
    spec = _spec(args)
    ps = spec.sole("pseudoreps", args.name)
    if args.op == "check":
        return _emit(ps.axiom_check(), args)
    if args.op == "kernel":
        gens = ps.kernel(args.m)
        return _emit({"modulus": args.m, "rank": len(gens),
                      "generators": [{"shift": s, "vector": v}
                                     for v, s in gens]}, args)
    if args.op == "mf":
        rep = ps.residually_multiplicity_free(seed=args.seed)
        return _emit(rep, args)
    if args.op == "audit":
        dom = spec.sole("domains")
        rep = ps.constancy_audit(dom, args.n, spec.extensions(),
                                 args.samples, seed=args.seed)
        return _emit(rep, args)
    raise SpecError(f"unknown pseudorep operation {args.op!r}")


# -- phimod -----------------------------------------------------------------


def _build_module(args):
    precision = args.precision or 20
    if args.op == "build-sst" or getattr(args, "type", None) == "sst":
        ctx = galois.semistable_context(args.p, precision=precision)
        L = "inf" if args.L == "inf" else parse_element_token(args.L, ctx)
        return galois.semistable_module(args.k, L, ctx=ctx), ctx
    from loccon.padic import PadicContext
    ctx = PadicContext(args.p, precision=precision)
    ap = parse_element_token(args.ap, ctx)
    return galois.crystalline_module(args.k, ap), ctx


def _module_json(M):
    return {
        "label": list(M.label),
        "k": M.k,
        "phi": M.phi,
        "N": M.N,
        "fil_line": list(M.fil_line),
        "det_phi_valuation": M.det_phi_valuation(),
    }


def _character_json(c):
    return {"weight": c.weight, "value_at_p": c.value_at_p,
            "regular": c.is_regular()}


def cmd_phimod(args):
    if args.op in ("build-crys", "build-sst"):
        M, _ = _build_module(args)
        return _emit(_module_json(M), args)
    if args.op == "wadm":
        M, _ = _build_module(args)
        ok, cert = galois.weak_admissibility(M)
        rep = {"verdict": "pass" if ok else "fail",
               "weakly_admissible": ok, "certificate": cert}
        return _emit(rep, args)
    if args.op == "params":
        if args.type == "sst":
            ctx = galois.semistable_context(args.p,
                                            precision=args.precision or 20)
            d1, d2 = galois.semistable_parameters(args.k, ctx)
            info = {}
        else:
            from loccon.padic import PadicContext
            ctx = PadicContext(args.p, precision=args.precision or 20)
            ap = parse_element_token(args.ap, ctx)
            d1, d2, info = galois.triangulation_parameters(args.k, ap)
        rep = {"delta1": _character_json(d1), "delta2": _character_json(d2)}
        rep.update(info)
        return _emit(rep, args)
    raise SpecError(f"unknown phimod operation {args.op!r}")


# -- argument plumbing ------------------------------------------------------


@functools.cache
def build_parser():
    """The argparse tree, built once: it does not depend on the arguments."""
    ap = argparse.ArgumentParser(
        prog="loccon",
        description="exact p-adic congruence toolkit")
    ap.add_argument("--spec", dest="spec_path", help="spec file path")
    ap.add_argument("--seed", type=int,
                    help="random seed (default: [params] seed, else 0)")
    ap.add_argument("--json", help="also write the report to this file")
    ap.add_argument("--single-thread", action="store_true",
                    help="force deterministic sequential execution (the "
                         "default; accepted for compatibility)")
    ap.add_argument("--precision", type=int,
                    help="override context precision")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds")
    b.add_argument("op", choices=["gamma", "alpha", "crys-disc", "sst-bound"])
    b.add_argument("--e", type=int, default=1)
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--p", type=int, default=3)
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--km1", type=int, default=1)
    b.add_argument("--v", default="1", help="v_p(a_p0), a rational")

    d = sub.add_parser("domain")
    d.add_argument("op", choices=["describe", "member", "sample",
                                  "cover-compare"])
    d.add_argument("--name", help="domain block name (default: the only one)")
    d.add_argument("--point", help="'var : token, var : token' over --ext")
    d.add_argument("--ext", help="context block name for the extension")
    d.add_argument("--samples", type=int)

    f = sub.add_parser("family")
    f.add_argument("op", choices=["check-strict", "audit", "trace",
                                  "trace-algebra"])
    f.add_argument("--name")
    f.add_argument("--n", type=int)
    f.add_argument("--scale", type=int)
    f.add_argument("--samples", type=int)
    f.add_argument("--word", default="g1")

    l = sub.add_parser("lattice")
    l.add_argument("op", choices=["stabilize", "reduce", "iso",
                                  "semisimplify", "carayol"])
    l.add_argument("--m", type=int, default=1, help="modulus exponent")
    l.add_argument("--n", type=int)
    l.add_argument("--left")
    l.add_argument("--right")

    q = sub.add_parser("pseudorep")
    q.add_argument("op", choices=["check", "kernel", "mf", "audit"])
    q.add_argument("--name")
    q.add_argument("--m", type=int, default=1)
    q.add_argument("--n", type=int)
    q.add_argument("--samples", type=int)

    g = sub.add_parser("phimod")
    g.add_argument("op", choices=["build-crys", "build-sst", "wadm", "params"])
    g.add_argument("--type", choices=["crys", "sst"], default="crys")
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--p", type=int, default=5)
    g.add_argument("--ap", default="5", help="a_p as an element token")
    g.add_argument("--L", default="0", help="L-invariant token or 'inf'")

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        args.spec = _load(args)
        _resolve_params(args)
        # read at each call, not kept in the cached parser, so that a wrapper
        # installed on a module attribute (the benchmark's tracer) is called
        command = {"bounds": cmd_bounds, "domain": cmd_domain,
                   "family": cmd_family, "lattice": cmd_lattice,
                   "pseudorep": cmd_pseudorep, "phimod": cmd_phimod}
        return command[args.command](args)
    except (SpecError, FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except InconclusiveError as exc:
        return _emit({"verdict": "inconclusive", "reason": str(exc)}, args)
    except DomainError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
