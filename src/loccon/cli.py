"""Command-line front end: spec-file loading, dispatch, JSON reports.

Exit codes: 0 = pass/computed, 1 = mathematical falsification (with
witness), 2 = inconclusive / budget exhausted, 3 = usage or spec error.
Reports are byte-stable for a fixed (spec, seed) pair.
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
    PadicContext,
    PadicElement,
    PadicNumber,
    PrecisionError,
    gamma_exponent,
    require_at_least_one,
)
from loccon import galois, specfile
from loccon.domains import cover_compare
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


def _resolve_params(args):
    """Resolve the seed, the depth n and the sample count, each on the
    subcommands that have its flag: the flag, then its ``[params]`` key,
    then the default.  The library refuses a depth or count below 1."""
    params = args.spec.params if args.spec is not None else {}
    for key, default in (("seed", 0), ("n", 1), ("samples", 25)):
        if key in vars(args) and getattr(args, key) is None:
            setattr(args, key, params.get(key, default))


# -- bounds -----------------------------------------------------------------


def cmd_bounds(args):
    if args.op == "gamma":
        return _emit({"gamma": gamma_exponent(args.e, args.n)}, args)
    if args.op == "alpha":
        return _emit({"alpha": galois.alpha(args.km1, args.p)}, args)
    if args.op == "crys-disc":
        try:
            v = Fraction(args.v)
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"--v must be a rational, got {args.v!r}") from None
        rep = galois.crystalline_congruence_disc(args.k, args.p, v, args.n)
        return _emit(rep, args)
    if args.op == "sst-bound":
        return _emit(
            {"bound": galois.semistable_congruence_bound(args.k, args.p, args.n)},
            args)


# -- domain -----------------------------------------------------------------


def _ext(spec, dom, args):
    """The context named by ``--ext``, else the base of the domain's model."""
    return spec.sole("contexts", args.ext) if args.ext else dom.model.base


def cmd_domain(args):
    spec = _spec(args)
    dom = spec.sole("domains", args.name)
    if args.op == "describe":
        return _emit(dom.to_json(), args)
    if args.op == "member":
        pt = specfile.parse_point(args.point or "", dom.model,
                                  _ext(spec, dom, args), "--point")
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
                            _ext(spec, dom, args))
        return _emit(rep, args)


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
        if (n, scale, dom.kind) == (1, 0, "U"):
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
        return _emit(fam.trace_algebra_full(n), args)


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
        lat, cert = stable_lattice(rep.group, rep.dim, rep.context,
                                   rep.gen_images)
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


# -- phimod -----------------------------------------------------------------


def _phimod_context(args):
    """The coefficient context of ``--type`` at ``--p``, precision 20 unless
    ``--precision`` is given."""
    precision = args.precision or 20
    if args.type == "sst":
        return galois.semistable_context(args.p, precision=precision)
    return PadicContext(args.p, precision=precision)


def _build_module(args):
    ctx = _phimod_context(args)
    if args.type == "sst":
        L = "inf" if args.L == "inf" else parse_element_token(args.L, ctx)
        return galois.semistable_module(args.k, L, ctx=ctx)
    return galois.crystalline_module(args.k, parse_element_token(args.ap, ctx))


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
    if args.op == "build":
        return _emit(_module_json(_build_module(args)), args)
    if args.op == "wadm":
        ok, cert = galois.weak_admissibility(_build_module(args))
        rep = {"verdict": "pass" if ok else "fail",
               "weakly_admissible": ok, "certificate": cert}
        return _emit(rep, args)
    if args.op == "params":
        ctx = _phimod_context(args)
        if args.type == "sst":
            d1, d2 = galois.semistable_parameters(args.k, ctx)
            info = {}
        else:
            ap = parse_element_token(args.ap, ctx)
            d1, d2, info = galois.triangulation_parameters(args.k, ap)
        rep = {"delta1": _character_json(d1), "delta2": _character_json(d2)}
        rep.update(info)
        return _emit(rep, args)


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
    g.add_argument("op", choices=["build", "wadm", "params"])
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
    # an unreadable spec or --json file (OSError) is a usage error, also
    # when it is met writing the report of an inconclusive verdict
    try:
        try:
            args.spec = _load(args)
            _resolve_params(args)
            # read at each call, not kept in the cached parser, so that a
            # wrapper installed on a module attribute (the benchmark's
            # tracer) is called
            command = {"bounds": cmd_bounds, "domain": cmd_domain,
                       "family": cmd_family, "lattice": cmd_lattice,
                       "pseudorep": cmd_pseudorep, "phimod": cmd_phimod}
            return command[args.command](args)
        except InconclusiveError as exc:
            return _emit({"verdict": "inconclusive", "reason": str(exc)}, args)
    except (DomainError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
