"""Command-line front end.

Exit codes: 0 success (or a true verdict), 1 false verdict, 2 input or
usage error, 3 size cap exceeded.  The --max-n option (default 12)
bounds every exhaustive computation; 16 is the absolute limit.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import formats
from .constructions import deconstruct, run_script
from .errors import MatroidError, TooLarge, UsageError
from .matroid import DESK_CAP
from .presentation import canonicalize
from .recognize import classify, excluded_minor_witness, is_laminar

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_SIZE = 3


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _parse_elements(text):
    if not text:
        return ()
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _render_witness(witness):
    delete = "{" + ",".join(sorted(witness.delete)) + "}"
    contract = "{" + ",".join(sorted(witness.contract)) + "}"
    mapping = ",".join(f"{a}->{b}" for a, b in witness.mapping)
    return f"delete {delete} contract {contract} map {mapping}"


def cmd_validate(args):
    text = _read(args.file)
    if args.file.endswith(".ckt"):
        m = formats.parse_ckt(text, max_n=args.max_n)
        print(f"ok explicit-matroid n={m.n} rank={m.rank()} circuits={len(m.circuits)}")
    elif args.file.endswith(".lam"):
        p = formats.parse_lam(text)
        print(f"ok laminar-presentation n={p.n} members={len(p.members)} rank={p.rank()}")
    elif args.file.endswith(".mbs"):
        script = formats.parse_mbs(text)
        p = run_script(script)
        print(
            f"ok construction-script steps={len(script.steps)} "
            f"result={script.result} n={p.n}"
        )
    else:
        raise UsageError(f"cannot tell the format of {args.file} from its suffix")
    return EXIT_TRUE


def cmd_canon(args):
    p = formats.parse_lam(_read(args.file))
    print(formats.render_lam(canonicalize(p, max_n=args.max_n)), end="")
    return EXIT_TRUE


def cmd_explicit(args):
    p = formats.parse_lam(_read(args.file))
    print(formats.render_ckt(p.to_explicit(max_n=args.max_n)), end="")
    return EXIT_TRUE


def cmd_is_laminar(args):
    m = formats.parse_ckt(_read(args.file), max_n=args.max_n)
    verdict = is_laminar(m, max_n=args.max_n)
    if verdict.laminar:
        print("laminar: yes")
        for line in formats.render_lam(verdict.presentation).splitlines()[1:]:
            print("  " + line)
        return EXIT_TRUE
    a, b = verdict.violating_circuits
    print("laminar: no")
    print("  circuit " + formats.render_set(m.ground, a))
    print("  circuit " + formats.render_set(m.ground, b))
    return EXIT_FALSE


def cmd_minor(args):
    m = formats.parse_ckt(_read(args.file), max_n=args.max_n)
    out = m.minor(
        delete=_parse_elements(args.delete),
        contract=_parse_elements(args.contract),
    )
    print(formats.render_ckt(out), end="")
    return EXIT_TRUE


def cmd_classify(args):
    m = formats.parse_ckt(_read(args.file), max_n=args.max_n)
    c = classify(m, max_n=args.max_n)
    if c.nested.nested:
        print("nested: yes")
        chain = " ".join(formats.render_set(m.ground, f) for f in c.nested.chain)
        print("  chain " + chain)
    else:
        a, b = c.nested.incomparable
        print("nested: no")
        print(
            "  incomparable "
            + formats.render_set(m.ground, a)
            + " "
            + formats.render_set(m.ground, b)
        )
    if c.laminar.laminar:
        print("laminar: yes")
        for line in formats.render_lam(c.laminar.presentation).splitlines()[1:]:
            print("  " + line)
    else:
        a, b = c.laminar.violating_circuits
        print("laminar: no")
        print("  circuit " + formats.render_set(m.ground, a))
        print("  circuit " + formats.render_set(m.ground, b))
    if c.dual_laminar.dual_laminar:
        print("dual-laminar: yes")
    else:
        print(f"dual-laminar: no ({c.dual_laminar.reason})")
    for shape in c.dual_laminar.components:
        line = f"  component {formats.render_set(m.ground, shape.block)}: {shape.kind}"
        if shape.kind == "pair":
            (s1, r1), (s2, r2) = shape.sides
            line += (
                f" sides {formats.render_set(m.ground, s1)}:{r1}"
                f" {formats.render_set(m.ground, s2)}:{r2} depth {shape.depth}"
            )
        print(line)
    for label, verdict in (
        ("binary-laminar", c.binary_laminar),
        ("ternary-laminar", c.ternary_laminar),
    ):
        if verdict.flag:
            print(f"{label}: yes")
        else:
            name, witness = verdict.found
            print(f"{label}: no")
            print(f"  minor {name} " + _render_witness(witness))
    return EXIT_TRUE


def cmd_construct(args):
    script = formats.parse_mbs(_read(args.file))
    print(formats.render_lam(run_script(script)), end="")
    return EXIT_TRUE


def cmd_deconstruct(args):
    p = formats.parse_lam(_read(args.file))
    script = deconstruct(canonicalize(p, max_n=args.max_n), max_n=args.max_n)
    print(formats.render_mbs(script), end="")
    return EXIT_TRUE


def cmd_witness(args):
    m = formats.parse_ckt(_read(args.file), max_n=args.max_n)
    found = excluded_minor_witness(m, max_n=args.max_n)
    if found is None:
        print("witness: none")
        return EXIT_FALSE
    r, witness = found
    print(f"witness: excluded-minor({r}) " + _render_witness(witness))
    return EXIT_TRUE


def cmd_maxweight(args):
    p = formats.parse_lam(_read(args.file))
    weights = {}
    for part in _parse_elements(args.weights):
        if "=" not in part:
            raise UsageError(f"weights look like a=5, got {part!r}")
        name, _, value = part.partition("=")
        try:
            weights[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad weight value {value!r}") from None
    chosen = p.max_weight_independent(weights)
    total = sum((weights.get(e, Fraction(0)) for e in chosen), Fraction(0))
    print(formats.render_set(p.ground, chosen) + f" weight {total}")
    return EXIT_TRUE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laminar",
        description="Laminar matroid toolkit: presentations, recognition, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **extra):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file")
        p.add_argument(
            "--max-n",
            type=int,
            default=DESK_CAP,
            help="size cap for exhaustive computations (default 12, max 16)",
        )
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "parse and validate a .ckt/.lam/.mbs file")
    add("canon", cmd_canon, "canonicalize a presentation (.lam to .lam)")
    add("explicit", cmd_explicit, "expand a presentation to circuits (.lam to .ckt)")
    add("is-laminar", cmd_is_laminar, "test laminarity with a certificate (.ckt)")
    add(
        "minor",
        cmd_minor,
        "delete/contract elements (.ckt to .ckt)",
        **{
            "--delete": {"default": "", "help": "comma-separated elements"},
            "--contract": {"default": "", "help": "comma-separated elements"},
        },
    )
    add("classify", cmd_classify, "report all class memberships (.ckt)")
    add("construct", cmd_construct, "run a script (.mbs to .lam)")
    add("deconstruct", cmd_deconstruct, "script reproducing a presentation (.lam to .mbs)")
    add("witness", cmd_witness, "find an excluded-minor witness (.ckt)")
    add(
        "maxweight",
        cmd_maxweight,
        "greedy maximum-weight independent set (.lam)",
        **{"-w": {"dest": "weights", "required": True, "help": "a=5,b=4/3,..."}},
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.max_n < 0:
        print("error: --max-n must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except MatroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
