"""Command-line surface: generate, solve, reduce, verify, cert-check.

Exit codes: 0 yes/pass, 1 no/fail, 2 usage, 3 resource limit, 4 partial
(skipped work in a report).  Outputs are byte-stable for a fixed seed.

Each subcommand imports what it runs.  This module loads only the
instances, the oracles and their kernels, so ``solve`` loads no reduction,
certificate scheme or family generator; ``reduce`` and ``verify`` load the
catalog of reductions, ``verify`` and ``cert-check`` the certificate module,
and ``gen`` and ``verify`` the families.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import instances as I
from .errors import RedkitError, ResourceLimitError, ValidationError
from .kernels import BACKEND
from .oracles import solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PARTIAL = 4


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> I.ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        inst = I.loads(fh.read())
    problems = I.validate(inst)
    if problems:
        raise ValidationError("; ".join(problems))
    return inst


def _jsonable(x):
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return repr(x)


# ---------------------------------------------------------------------------
# gen


# smallest value each numeric gen option, and each family parameter of the
# same name, accepts
_MINIMUMS = {"n": 0, "m": 1, "max": 1, "tmax": 0, "q": 1, "k": 1, "ell": 1,
             "vars": 1, "clauses": 0, "arity": 1, "formulas": 0}


def _cmd_gen(args) -> int:
    from random import Random

    from . import families as F
    for name, low in _MINIMUMS.items():
        # gen has no --tmax, --k or --formulas
        if getattr(args, name, low) < low:
            return _fail(f"--{name} must be at least {low}", EXIT_USAGE)
    rng = Random(args.seed)
    kind = args.kind
    if kind == "subset-sum":
        items = tuple(rng.randint(1, args.max) for _ in range(args.n))
        target = args.target if args.target is not None else \
            rng.randint(0, sum(items) + 1)
        inst = I.SubsetSumInstance(items, target)
    elif kind == "knapsack":
        inst = F.random_knapsack(rng, args.n, args.max)
    elif kind == "ilp":
        inst = F.random_ilp(rng, args.variant, args.m, args.n)
    elif kind == "cnf":
        inst = F.random_cnf(rng, args.vars, args.clauses, args.arity)
    elif kind == "unbounded":
        items = tuple(rng.randint(1, args.max) for _ in range(args.n))
        target = args.target if args.target is not None else \
            rng.randint(0, 2 * args.max)
        inst = I.UnboundedSubsetSumInstance(items, target)
    elif kind == "zq":
        elems = tuple(rng.randrange(args.q) for _ in range(args.n))
        inst = I.GroupSubsetSumInstance(I.CyclicGroup(args.q), elems,
                                        rng.randrange(args.q))
    elif kind == "coloring":
        inst = F.named_graph(args.graph) if args.graph else \
            F.random_coloring(rng, args.n)
    elif kind == "cm":
        if args.from_coloring:
            from .pipeline import red_coloring_to_cm
            from .witness import Witness
            src = F.named_graph(args.from_coloring)
            inst = red_coloring_to_cm.apply(src, Witness.zero(0))
        else:
            inst = next(F.cm_samples(args.ell, args.n, 1, seed=args.seed))
    else:
        return _fail(f"unknown kind {kind!r}", EXIT_USAGE)
    _emit(I.dumps(inst), args.out)
    return EXIT_YES


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    try:
        verdict = solve(inst)
    except ResourceLimitError as exc:
        return _fail(str(exc), EXIT_RESOURCE)
    payload = {
        "answer": "yes" if verdict.answer else "no",
        "backend": BACKEND,
        "kind": inst.kind,
        "method": verdict.method,
        "solution": _jsonable(verdict.solution),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        line = f"{payload['answer']} ({verdict.method}, {BACKEND} backend)"
        if verdict.answer and verdict.solution is not None:
            line += f" solution={payload['solution']}"
        print(line)
    return EXIT_YES if verdict.answer else EXIT_NO


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args) -> int:
    from .catalog import get_reduction
    from .witness import Witness
    red = get_reduction(args.reduction)
    inst = _load(args.instance)
    red.check_source(inst)
    length = red.witness_len(inst)
    if args.synthesize:
        try:
            verdict = solve(inst)
        except ResourceLimitError as exc:
            return _fail(str(exc), EXIT_RESOURCE)
        if not verdict.answer:
            return _fail("cannot synthesize a witness for a no-instance",
                         EXIT_NO)
        wit = red.synthesize(inst, verdict.solution)
    elif args.witness is not None:
        wit = Witness.from_hex(args.witness, length)
    else:
        wit = Witness.zero(length)
    target = red.apply(inst, wit)
    _emit(I.dumps(target), args.out)
    if args.out:
        import hashlib
        with open(args.instance, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        meta = {
            "source_sha256": digest,
            "reduction": red.name,
            "witness": {"hex": wit.to_hex(), "length": wit.length},
            "parameter_before": I.parameter(inst),
            "parameter_after": I.parameter(target),
        }
        with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return EXIT_YES


# ---------------------------------------------------------------------------
# verify / cert-check


def _family(function: str, *lead):
    """``families.<function>`` with its leading arguments ``lead``, loaded
    when a family is made."""
    def make(*args):
        from . import families
        return getattr(families, function)(*lead, *args)
    return make


# each --family name: its generator, and its parameters' defaults in the
# generator's argument order
_FAMILIES = {
    "subset-sum": (_family("subset_sums"), {"n": 3, "max": 5, "tmax": 12}),
    "knapsack": (_family("knapsacks"), {"n": 2, "max": 4}),
    "ilp-standard": (_family("ilps", "standard"), {"m": 2, "n": 3}),
    "ilp-monotone": (_family("ilps", "monotone"), {"m": 2, "n": 3}),
    "ilp-zero-sum": (_family("ilps", "zero_sum"), {"m": 2, "n": 3}),
    "zq": (_family("zq_instances"), {"q": 6, "n": 3}),
    "zkk": (_family("zkk_instances"), {"k": 2, "n": 4}),
    "cm": (_family("cm_grid"), {"ell": 1, "n": 3}),
    "unbounded": (_family("unbounded_instances"),
                  {"n": 2, "max": 6, "tmax": 12}),
    "graphs": (_family("graphs_upto"), {"n": 4}),
    "cnf": (_family("cnfs"), {"vars": 2, "clauses": 2, "arity": 2}),
    "andsat": (_family("and_sats"),
               {"formulas": 2, "vars": 2, "clauses": 1, "arity": 2}),
}


def _parse_family(spec: str):
    name, _, rest = spec.partition(":")
    if name not in _FAMILIES:
        raise ValidationError(
            f"unknown family {name!r}; known: {', '.join(sorted(_FAMILIES))}")
    make, defaults = _FAMILIES[name]
    params = dict(defaults)
    for piece in filter(None, rest.split(",")):
        key, _, val = piece.partition("=")
        if key not in params:
            raise ValidationError(f"unknown family parameter {key!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise ValidationError(
                f"family parameter {key!r}: not an integer: {val!r}") from None
        if params[key] < _MINIMUMS[key]:
            raise ValidationError(
                f"family parameter {key!r} must be at least {_MINIMUMS[key]}")
    return make(*params.values())


def _report_exit(rep, as_json: bool) -> int:
    if as_json:
        print(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"{rep.name}: {rep.checked} instances "
              f"({rep.yes_instances} yes / {rep.no_instances} no), "
              f"{rep.witnesses_checked} witnesses, "
              f"{len(rep.violations)} violations, {len(rep.skipped)} skipped")
        for viol in rep.violations[:10]:
            print(f"  violation: {viol}")
        for inst, why in rep.skipped[:10]:
            print(f"  skipped: {why}: {inst!r}")
    if rep.violations:
        return EXIT_NO
    if rep.skipped:
        return EXIT_PARTIAL
    return EXIT_YES


def _cmd_verify(args) -> int:
    from .catalog import get_reduction
    from .certificates import nppt_contract_check
    if args.limit is not None and args.limit < 0:
        return _fail("--limit must be nonnegative", EXIT_USAGE)
    # a family of another kind or ILP variant raises ValidationError: exit 2
    rep = nppt_contract_check(get_reduction(args.reduction),
                              islice(_parse_family(args.family), args.limit))
    if rep.checked == 0:
        return _fail("family has no instances", EXIT_USAGE)
    return _report_exit(rep, args.json)


def _cmd_cert_check(args) -> int:
    from .certificates import SCHEMES, certificate_scheme_check
    if args.scheme not in SCHEMES:
        return _fail(f"unknown scheme {args.scheme!r}; known: "
                     f"{', '.join(sorted(SCHEMES))}", EXIT_USAGE)
    scheme = SCHEMES[args.scheme]
    rep = certificate_scheme_check(scheme, [_load(args.instance)])
    return _report_exit(rep, args.json)


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="redkit",
        description="Exact oracles, reductions with witnesses, and "
                    "contract-checking harnesses for small hard problems.")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance deterministically")
    gen.add_argument("kind", choices=["subset-sum", "knapsack", "ilp", "cnf",
                                      "unbounded", "zq", "coloring", "cm"])
    gen.add_argument("--n", type=int, default=4)
    gen.add_argument("--m", type=int, default=2)
    gen.add_argument("--max", type=int, default=10)
    gen.add_argument("--q", type=int, default=5)
    gen.add_argument("--ell", type=int, default=2)
    gen.add_argument("--vars", type=int, default=3)
    gen.add_argument("--clauses", type=int, default=3)
    gen.add_argument("--arity", type=int, default=3)
    gen.add_argument("--variant", default="standard",
                     choices=["standard", "monotone", "zero_sum"])
    gen.add_argument("--target", type=int)
    gen.add_argument("--graph", choices=["k3", "k4", "c5", "p4"])
    gen.add_argument("--from-coloring", dest="from_coloring",
                     choices=["k3", "k4", "c5", "p4"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="run the exact oracle on an instance")
    slv.add_argument("instance")
    slv.add_argument("--json", action="store_true")
    slv.set_defaults(func=_cmd_solve)

    red = sub.add_parser("reduce", help="apply a reduction to an instance")
    red.add_argument("reduction")
    red.add_argument("instance")
    red.add_argument("--witness", help="witness bits as hex")
    red.add_argument("--synthesize", action="store_true",
                     help="solve the source and synthesize the witness")
    red.add_argument("--out")
    red.set_defaults(func=_cmd_reduce)

    ver = sub.add_parser("verify", help="contract-check a reduction or chain")
    ver.add_argument("reduction", help="name, or a+b+c for a chain")
    ver.add_argument("--family", default="subset-sum",
                     help="family spec, e.g. subset-sum:n=3,max=5,tmax=12")
    ver.add_argument("--limit", type=int, default=None,
                     help="check at most this many instances")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    cert = sub.add_parser("cert-check",
                          help="check a certificate scheme on an instance")
    cert.add_argument("scheme")
    cert.add_argument("instance")
    cert.add_argument("--json", action="store_true")
    cert.set_defaults(func=_cmd_cert_check)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        return _fail(str(exc), EXIT_RESOURCE)
    except (RedkitError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (MemoryError, RecursionError) as exc:
        # a MemoryError carries no text, so the line names the exception
        name = type(exc).__name__
        return _fail(f"{name}: {exc}" if str(exc) else name, EXIT_RESOURCE)


if __name__ == "__main__":
    sys.exit(main())
