"""Workloads of the verdict benchmark: seeded inputs and a hand-written oracle.

A verdict is one call whose answer is known before it runs.  Each workload
builds its inputs from the run seed (``build``) and hands out the verdicts
of one pass pair (``items``): the driver runs every pass twice, so each
verdict is invoked at least twice with the same inputs and its output bytes
can be compared.  Nothing here is imported from the repository's tests; the
answers are written down from the mathematics and the README exit-code
contract, not taken from program output.

Workload code reaches loccon only through the module namespace it is given
(``lc.lattice.carayol_audit``), looked up at call time, so a tracer that
rebinds module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OWN_SPECS = Path(__file__).resolve().parent / "specs"
REPO_SPECS = ROOT / "specs"

PRECISION = 12


@dataclass(frozen=True)
class Item:
    """One verdict: ``call()`` returns (answer, output text)."""

    key: str
    expected: object
    call: Callable[[], tuple]


# -- oracle -----------------------------------------------------------------


class Book:
    """Tallies verdicts against their known answers.

    A verdict is wrong when its answer differs from the expected one, when
    it raises, or when its output bytes differ from an earlier invocation of
    the same verdict in the same pass pair.  It is undecided when it comes
    back inconclusive (``undecided`` answers of the workload).
    """

    def __init__(self, undecided):
        self.undecided_answers = undecided
        self.attempted = 0
        self.wrong = 0
        self.undecided = 0
        self.byte_checks = 0
        self.examples = []
        self._first = {}

    def run(self, pair, item):
        """Invoke item, judge it, and return nothing; raises nothing."""
        self.attempted += 1
        try:
            answer, text = item.call()
        except Exception:  # a verdict that raises is a wrong verdict
            self._wrong(item, "raised", traceback.format_exc(limit=3))
            return
        self.judge(pair, item, answer, text)

    def judge(self, pair, item, answer, text):
        if answer != item.expected:
            if answer in self.undecided_answers:
                self.undecided += 1
                self._note(item, "undecided", answer)
            else:
                self._wrong(item, "answer", answer)
            return
        first = self._first.get((pair, item.key))
        if first is None:
            self._first[(pair, item.key)] = text
            return
        self.byte_checks += 1
        if first != text:
            self._wrong(item, "bytes", "output differs between invocations")

    def _wrong(self, item, kind, detail):
        self.wrong += 1
        self._note(item, kind, detail)

    def _note(self, item, kind, detail):
        if len(self.examples) < 5:
            self.examples.append({"key": item.key, "kind": kind,
                                  "expected": repr(item.expected),
                                  "detail": str(detail)[:300]})

    def summary(self):
        n = max(self.attempted, 1)
        return {"attempted": self.attempted, "wrong": self.wrong,
                "undecided": self.undecided,
                "wrong_frac": self.wrong / n,
                "undecided_frac": self.undecided / n,
                "byte_checks": self.byte_checks,
                "examples": self.examples}


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, default=str)


# -- carayol ----------------------------------------------------------------


class Carayol:
    """Carayol audits of residually absolutely irreducible pairs over Z_3
    and Z_5, plus the residually reducible diag(1+p, 1-p) pair."""

    name = "carayol"
    undecided = ("inconclusive",)
    # Input sets built per seed; pass pair k audits set k mod sets.  Audit
    # cost depends on the sampled matrices, so one run covers several sets.
    sets = 4

    def build(self, lc, seed):
        rng = random.Random(f"carayol/{seed}")
        free2 = lc.groups.free_group(2)
        ctxs = {p: lc.padic.PadicContext(p, precision=PRECISION)
                for p in (3, 5)}
        audits = [[] for _ in range(self.sets)]
        for batch in audits:
            for p, ctx in ctxs.items():
                for n in (1, 2, 3):
                    a = irreducible_gens(lc, ctx, free2, rng)
                    b = perturbed_conjugate(lc, ctx, a, n, rng)
                    batch.append((f"audit/p{p}/n{n}", ctx, n, a, b))
        reducible = []
        for p, ctx in ctxs.items():
            one, zero = ctx.one(), ctx.zero()
            diag = [[ctx.from_int(1 + p), zero], [zero, ctx.from_int(1 - p)]]
            reducible.append((f"reducible/p{p}", ctx, diag,
                              [[one, zero], [zero, one]]))
        return {"lc": lc, "seed": seed, "free2": free2,
                "free1": lc.groups.free_group(1),
                "audits": audits, "reducible": reducible}

    def items(self, state, pair):
        batch = state["audits"][pair % self.sets]
        out = [self.audit_item(state, key, ctx, n, a, b, state["seed"] + pair)
               for key, ctx, n, a, b in batch]
        for key, ctx, A, B in state["reducible"]:
            out.append(Item(key, "not_isomorphic",
                            _reducible_call(state, ctx, A, B)))
        return out

    @staticmethod
    def audit_item(state, key, ctx, n, a, b, audit_seed):
        lc, group = state["lc"], state["free2"]

        def call():
            ra = lc.lattice.IntegralRep(group, 2, ctx, a)
            rb = lc.lattice.IntegralRep(group, 2, ctx, b)
            report = lc.lattice.carayol_audit(ra, rb, n, seed=audit_seed)
            return report["verdict"], _dumps(report)
        return Item(key, "pass", call)


def _reducible_call(state, ctx, A, B):
    lc, group = state["lc"], state["free1"]

    def call():
        L = lc.lattice
        a = L.reduce_rep_mod(L.IntegralRep(group, 2, ctx, {"g1": A}), 2)
        b = L.reduce_rep_mod(L.IntegralRep(group, 2, ctx, {"g1": B}), 2)
        res = L.iso_mod(a, b)
        return res.status, _dumps([res.status, res.certificate])
    return call


def _random_unit_det(ctx, rng, bound):
    while True:
        M = [[ctx.from_int(rng.randrange(bound)) for _ in range(2)]
             for _ in range(2)]
        if (M[0][0] * M[1][1] - M[0][1] * M[1][0]).pi_valuation() == 0:
            return M


def irreducible_gens(lc, ctx, group, rng):
    """Generator matrices of a residually absolutely irreducible 2-dim
    rep of the free group of rank 2, by rejection sampling."""
    while True:
        gens = {name: _random_unit_det(ctx, rng, ctx.p ** 3)
                for name in group.generators}
        rep = lc.lattice.IntegralRep(group, 2, ctx, gens)
        if lc.lattice.residually_absolutely_irreducible(rep):
            return gens


def perturbed_conjugate(lc, ctx, gens, n, rng):
    """C rho C^-1 + pi^n E: trace-congruent to rho mod pi^n, and residually
    irreducible with it, so the Carayol audit must pass."""
    C = _random_unit_det(ctx, rng, ctx.p ** 3)
    Cinv = lc.chainring.mat_inverse(C)
    pn = ctx.pi_power(n)
    out = {}
    for name, M in gens.items():
        conj = lc.chainring.mat_mul(lc.chainring.mat_mul(C, M), Cinv)
        out[name] = [[x + ctx.from_int(rng.randrange(ctx.p ** 2)) * pn
                      for x in row] for row in conj]
    return out


# -- gamma towers -----------------------------------------------------------


class GammaTowers:
    """(L, E, n): L in {Z_p, W(F_p^2)}, E = L or a seeded Eisenstein
    extension of L with e in {2, 3}, p in {2, 3, 5}, n in {1, 2, 3}."""

    name = "gamma_towers"
    undecided = ()  # neither check has an inconclusive outcome
    samples = 300

    def build(self, lc, seed):
        rng = random.Random(f"gamma_towers/{seed}")
        PadicContext = lc.padic.PadicContext
        tuples = []
        for p in (2, 3, 5):
            unram = _irreducible_quadratic(p, rng)
            for L in (PadicContext(p, precision=PRECISION),
                      PadicContext(p, f=2, unram_poly=unram,
                                   precision=PRECISION)):
                tower = [L]
                for e in (2, 3):
                    kw = {"unram_poly": unram} if L.f == 2 else {}
                    tower.append(PadicContext(
                        p, f=L.f, e=e, eis_poly=_eisenstein(p, L.f, e, rng),
                        precision=PRECISION, **kw))
                for E in tower:
                    for n in (1, 2, 3):
                        tuples.append((f"gamma/p{p}/f{L.f}/e{E.e}/n{n}",
                                       L, E, n))
        return {"lc": lc, "seed": seed, "tuples": tuples}

    def items(self, state, pair):
        lc = state["lc"]
        out = []
        for idx, (key, L, E, n) in enumerate(state["tuples"]):
            audit_seed = (state["seed"] * 7919 + pair) * 1000 + idx

            def call(L=L, E=E, n=n, audit_seed=audit_seed):
                inj, _ = lc.padic.gamma_injectivity_exhaustive(L, E, n)
                audit = lc.padic.congruence_equiv_audit(
                    L, E, n, samples=self.samples, seed=audit_seed)
                answer = ("injective" if inj else "not_injective",
                          audit["verdict"])
                return answer, _dumps([inj, audit])
            out.append(Item(key, ("injective", "pass"), call))
        return out


def _irreducible_quadratic(p, rng):
    """A random monic x^2 + b x + c with no root mod p."""
    while True:
        b, c = rng.randrange(p), rng.randrange(p)
        if all((x * x + b * x + c) % p for x in range(p)):
            return [c, b, 1]


def _eisenstein(p, f, e, rng):
    """x^e + p(c_{e-1} x^{e-1} + ... + c_1 x) + p u with u a unit of W."""
    while True:
        u = [rng.randrange(p * p) for _ in range(f)]
        if any(c % p for c in u):
            break
    rows = [[p * c for c in u]]
    for _ in range(1, e):
        rows.append([p * rng.randrange(p * p) for _ in range(f)])
    rows.append([1] + [0] * (f - 1))
    return rows


# -- CLI specs --------------------------------------------------------------

# (key, argv, exit code from the README contract: 0 pass/computed,
# 1 falsified, 2 inconclusive, 3 usage error)
_FAMILY = str(REPO_SPECS / "unramified_family.spec")
_COVER = str(REPO_SPECS / "cover.spec")
_ISO = str(REPO_SPECS / "iso_pair.spec")
_S3 = str(OWN_SPECS / "s3_standard.spec")
_UNRAM = str(OWN_SPECS / "unramified_points.spec")

CLI_COMMANDS = (
    ("bounds-gamma", ["bounds", "gamma", "--e", "2", "--n", "3"], 0),
    ("bounds-alpha", ["bounds", "alpha", "--p", "3", "--km1", "9"], 0),
    ("domain-describe", ["--spec", _FAMILY, "domain", "describe"], 0),
    ("domain-member", ["--spec", _FAMILY, "domain", "member",
                       "--point", "T : 25"], 0),
    ("domain-member-ram2", ["--spec", _FAMILY, "domain", "member",
                            "--point", "T : pi^1*3", "--ext", "ram2"], 0),
    ("domain-sample-ram3", ["--spec", _FAMILY, "domain", "sample",
                            "--samples", "8", "--ext", "ram3"], 0),
    ("family-audit", ["--spec", _FAMILY, "family", "audit"], 0),
    ("family-audit-unram", ["--spec", _UNRAM, "family", "audit"], 0),
    ("family-check-strict", ["--spec", _FAMILY, "family", "check-strict",
                             "--n", "2"], 1),
    ("family-trace-algebra", ["--spec", _FAMILY, "family", "trace-algebra",
                              "--n", "2"], 0),
    ("pseudorep-check", ["--spec", _FAMILY, "pseudorep", "check"], 0),
    ("pseudorep-audit", ["--spec", _FAMILY, "pseudorep", "audit"], 0),
    ("pseudorep-mf-s3", ["--spec", _S3, "pseudorep", "mf"], 0),
    ("lattice-iso-m2", ["--spec", _ISO, "lattice", "iso", "--m", "2"], 1),
    ("lattice-iso-m1", ["--spec", _ISO, "lattice", "iso", "--m", "1"], 0),
    ("cover-compare", ["--spec", _COVER, "domain", "cover-compare",
                       "--samples", "100"], 0),
    ("phimod-wadm", ["phimod", "wadm", "--k", "2", "--p", "5",
                     "--ap", "5"], 0),
    ("phimod-params", ["phimod", "params", "--type", "sst", "--k", "4",
                       "--p", "3"], 0),
)


class CliSpecs:
    """The README CLI examples and benchmark-owned specs, in-process through
    ``loccon.cli.main``, over a range of ``--seed`` values."""

    name = "cli_specs"
    undecided = (2,)

    def build(self, lc, seed):
        for path in (_FAMILY, _COVER, _ISO, _S3, _UNRAM):
            if not Path(path).is_file():
                raise FileNotFoundError(path)
        return {"lc": lc, "seed": seed}

    def items(self, state, pair):
        lc = state["lc"]
        cli_seed = state["seed"] * 1000 + pair
        rng = random.Random(f"cli_specs/{state['seed']}/{pair}")
        # a seeded point of the open disc, valuation 1..4 (a unit is exit 3)
        point = 5 ** rng.randrange(1, 5) * rng.randrange(1, 5)
        commands = list(CLI_COMMANDS) + [
            ("domain-member-seeded", ["--spec", _FAMILY, "domain", "member",
                                      "--point", f"T : {point}"], 0)]
        out = []
        for key, argv, code in commands:
            full = ["--seed", str(cli_seed)] + argv

            def call(full=full):
                out_buf, err_buf = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out_buf), \
                        contextlib.redirect_stderr(err_buf):
                    got = lc.cli.main(full)
                return got, out_buf.getvalue() + err_buf.getvalue()
            out.append(Item(key, code, call))
        return out


WORKLOADS = {w.name: w for w in (Carayol(), GammaTowers(), CliSpecs())}

