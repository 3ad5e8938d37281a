#!/usr/bin/env python3
"""Run the full constancy audit for a family described in a spec file:
pointwise audit on the wide open, strict constancy in affinoid coordinates,
and the trace-algebra fullness check.  Exits 1 on any failed verdict and
3, with the reason on stderr, on an input the audit refuses (a depth or
sample count below 1)."""

import argparse
import json
import sys

from loccon.padic import DomainError
from loccon.specfile import load_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("spec", help="spec file with one family and one domain")
    ap.add_argument("--n", type=int, default=None,
                    help="congruence depth (default: params block, else 2)")
    ap.add_argument("--samples", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = load_spec(args.spec)
    fam = spec.sole("families")
    dom = spec.sole("domains")
    n = args.n if args.n is not None else spec.params.get("n", 2)
    exts = spec.extensions(fam.model.base)

    try:
        audit = fam.pointwise_constancy_audit(dom, n, exts, args.samples,
                                              seed=args.seed)
    except DomainError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    strict_ok, witness, _ = fam.strict_constancy_check(dom.center, n)
    trace = fam.trace_algebra_full(n)
    report = {
        "n": n,
        "pointwise_audit": audit["verdict"],
        "strict_constancy": "pass" if strict_ok else f"fail at {witness}",
        "trace_algebra": trace["verdict"],
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    bad = audit["verdict"] != "pass" or not strict_ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
