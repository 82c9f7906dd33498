"""Batch front door: load structures, run constructions and verifications,
emit machine-readable reports.

JSON reports go to stdout (or a human summary with --format summary);
diagnostics go to stderr.  Exit codes: 0 success with all checks passing,
1 some check failed (the report carries a counterexample), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .corpus import exhaustive_digraphs, random_digraph
from .formulas import Formula, format_formula
from .groups import GroupError, automorphism_group
from .interpretation import (
    InterpretationScheme,
    SchemeError,
    negate_translation,
    redirect_bijection,
    validate_scheme,
    weaken_equivalence,
)
from .lifting import (
    LiftConfig,
    LiftError,
    LiftedStructure,
    PaddingAssignment,
    build_lift,
    certify_induced_group,
    direct_induced,
    generate_scheme,
    limit_elements,
    padding_triples,
    sort_widths,
)
from .stability import (
    QF_DEPTH_LIMIT,
    StabilityError,
    qf_type_census,
    stability_report,
    stabilizer_orbits,
)
from .structures import (
    StructureError,
    Structure,
    structure_from_json,
    structure_to_json,
)

import random

DEFAULT_SIZE_GUARD = 6
# The lift has k copy functions over its ~k * |M|^arity elements, so it grows
# like k**2; this bounds k wherever a lift is built.
COPY_BOUND_GUARD = 32
# The lift has 1 + |M| + sum over relations R of (k * T_R + |R|) elements,
# T_R the tuples its fibers range over; this bounds that count wherever a
# lift is built.
LIFT_ELEMENT_GUARD = 10_000
# scheme-check writes one translation per companion relation and tuple of
# sorts, S**arity of them over S sorts; this bounds their count.
TRANSLATION_GUARD = 50_000
# scheme-check's report prints each sort's key atoms and 3 * width atoms in
# its formulas, and each translation its sorts' key atoms and widths; this
# bounds their count, which padding or a wide relation makes large.
SCHEME_ATOM_GUARD = 2_000_000
# An explicit padding width m puts m atoms into a sort's domain formula and
# 2m into its equivalence, and each translation is as wide as its sorts
# together; this bounds each width.
PADDING_WIDTH_GUARD = 2048
# corpus builds every random structure before it writes the first one.
RANDOM_CORPUS_GUARD = 10_000
# The sort basis and the census build every one-variable atomic formula.
FORMULA_GUARD = 100_000


class InputError(Exception):
    pass


class CheckFailure(Exception):
    def __init__(self, report: dict):
        super().__init__("check failed")
        self.report = report


def _load_structure(path: str, max_size: int) -> Structure:
    if max_size < 0:
        raise InputError(f"--max-size {max_size} is negative")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: {e}") from e
    try:
        M = structure_from_json(text)
    except StructureError as e:
        raise InputError(f"{path}: {e}") from e
    if M.size > max_size:
        raise InputError(
            f"{path}: domain size {M.size} exceeds the guard {max_size} "
            "(raise it with --max-size)"
        )
    _check_formulas(path, M, 1)
    return M


def _check_formulas(path: str, M: Structure, depth: int) -> None:
    """Refuse M when its census's equalities at ``depth`` and basis atoms pass the guard."""
    f, c = len(M.sig.functions), len(M.sig.constants)
    T = (1 + c) * sum(f**i for i in range(depth + 1))
    count, cause, relations = T * (T + 1) // 2, "", iter(M.sig.relations)
    while count <= FORMULA_GUARD and (relation := next(relations, None)):
        name, a = relation  # an arity above the guard passes it alone
        count += a if a > FORMULA_GUARD else a * ((1 + f + c) ** a - c**a)
        cause = f"; relation {name!r} of arity {a}"
    if count > FORMULA_GUARD:
        raise InputError(f"{path}: at least {_count(count)} one-variable atomic formulas (terms at "
                         f"depth {depth}: {T}{cause}), above the guard {FORMULA_GUARD}")


def _parse_padding(text: str, M: Structure, k: int) -> PaddingAssignment | None:
    if text == "auto":
        return None
    if text.startswith("explicit:"):
        try:
            widths = [int(x) for x in text[len("explicit:"):].split(",") if x]
        except ValueError as e:
            raise InputError(f"bad padding list: {e}") from e
        if max(widths, default=0) > PADDING_WIDTH_GUARD:
            raise InputError(
                f"--padding width {max(widths)} exceeds the guard {PADDING_WIDTH_GUARD}"
            )
        triples = padding_triples(M.sig, k)
        if len(widths) != len(triples):
            raise InputError(
                f"padding list needs {len(triples)} widths (one per relation/copy pair)"
            )
        pads = {}
        for (rel, i), m in zip(triples, widths):
            pads[(rel, i)] = m - M.sig.relation_arity(rel)
        padding = PaddingAssignment(pads)
        try:
            padding.validate(M.sig, k)
        except LiftError as e:
            raise InputError(str(e)) from e
        return padding
    raise InputError("--padding must be 'auto' or 'explicit:<m1,m2,...>'")


def _check_copy_bound(k: int) -> None:
    if k > COPY_BOUND_GUARD:
        raise InputError(
            f"copy bound {k} exceeds the guard {COPY_BOUND_GUARD}: the lift grows like k**2"
        )


def _fiber_tuples(M: Structure, include_repetitions: bool) -> dict[str, int]:
    """T_R per relation R: how many tuples the lift's fibers of R range
    over, all of M^arity or only the repetition-free ones, as build_lift
    chooses them."""
    if M.repetition_free and not include_repetitions:
        return {name: math.perm(M.size, arity) for name, arity in M.sig.relations}
    return {name: M.size**arity for name, arity in M.sig.relations}


def _count(n: int) -> str:
    """n in decimal, or a power of two below it where n has more digits
    than str() writes."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2**{n.bit_length() - 1}"


def _check_lift_size(M: Structure, k: int, include_repetitions: bool) -> None:
    fibers = _fiber_tuples(M, include_repetitions)
    size = 1 + M.size + sum(k * t + len(M.relations[name]) for name, t in fibers.items())
    if size > LIFT_ELEMENT_GUARD:
        raise InputError(
            f"the lift at copy bound {k} would have {_count(size)} elements, "
            f"above the guard {LIFT_ELEMENT_GUARD}"
        )


def _translation_count(N: LiftedStructure) -> int:
    """How many translations generate_scheme writes for N: one per relation
    of its companion and tuple of its sorts."""
    return sum(len(N.sorts) ** arity for _, arity in N.companion.sig.relations)


def _scheme_atoms(N: LiftedStructure) -> int:
    """How many atoms scheme-check's report prints in the sorts and
    translations of generate_scheme(N) (see SCHEME_ATOM_GUARD), counted
    before the scheme is built.  A sort prints its key atoms and 3 * width
    atoms; a translation the key atoms and widths of its sorts.  Over S
    sorts, a relation of arity a has S**a translations, and each sort
    stands at each of the a positions in S**(a - 1) of them."""
    sizes = list(zip(map(len, N.companion.sort_partition), sort_widths(N)))
    per_position = sum(a * len(sizes) ** (a - 1) for _, a in N.companion.sig.relations)
    return sum(key + 3 * width for key, width in sizes) + per_position * sum(map(sum, sizes))


def _lift_config(args, M: Structure) -> LiftConfig:
    _check_copy_bound(args.k)
    _check_lift_size(M, args.k, args.include_repetitions)
    padding = _parse_padding(args.padding, M, args.k)
    return LiftConfig(
        k=args.k,
        include_repetition_tuples=args.include_repetitions,
        padding=padding,
    )


def _parse_elements(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise InputError(f"bad element list {text!r}: {e}") from e


# -- subcommands -----------------------------------------------------------------


def _cmd_lift(args) -> tuple[dict, list[str]]:
    M = _load_structure(args.infile, args.max_size)
    N = build_lift(M, _lift_config(args, M))
    report = N.to_report_dict()
    summary = [
        f"lift: {M.size} source elements -> {N.structure.size} lift elements",
    ]
    return report, summary


def _cmd_aut(args) -> tuple[dict, list[str]]:
    M = _load_structure(args.infile, args.max_size)
    G = automorphism_group(M)
    report = G.to_json_dict()
    return report, [f"automorphism group of order {report['order']}"]


def _cmd_verify_iso(args) -> tuple[dict, list[str]]:
    M = _load_structure(args.infile, args.max_size)
    N = build_lift(M, _lift_config(args, M))
    GM = automorphism_group(M)
    # certified: direct_induced is an isomorphism Aut(M) -> Aut(N), so no
    # group is built on the lift; a member of Aut(N) fixes an element iff it
    # fixes the element's naming points, so a witness holding them suffices
    names = certify_induced_group(N, GM.generators, [direct_induced(N, g) for g in GM.generators])
    order_M = GM.order()
    # each element's witness, its support (as continuity_witness reads it),
    # against its naming points, in one pass
    supports = N.supports
    held = len(supports) == len(names) and all(map(frozenset.issuperset, supports, names))
    continuity = "pass" if held else "fail"

    report = {
        "order_M": order_M,
        "order_N": order_M,
        "bijective": True,
        "continuity_witnesses": continuity,
    }
    summary = [f"|Aut(M)| = {order_M}, |Aut(lift)| = {order_M}"]
    if continuity != "pass":
        raise CheckFailure(report)
    return report, summary


def _cmd_scheme_check(args) -> tuple[dict, list[str]]:
    M = _load_structure(args.infile, args.max_size)
    N = build_lift(M, _lift_config(args, M))
    translations = _translation_count(N)
    if translations > TRANSLATION_GUARD:
        raise InputError(
            f"the scheme at copy bound {args.k} would have {translations} translations, "
            f"above the guard {TRANSLATION_GUARD}"
        )
    atoms = _scheme_atoms(N)
    if atoms > SCHEME_ATOM_GUARD:
        raise InputError(
            f"the scheme at copy bound {args.k} would print {atoms} atoms, "
            f"above the guard {SCHEME_ATOM_GUARD}"
        )
    scheme = generate_scheme(N)
    if args.mutate == "negate-relformula":
        scheme = negate_translation(scheme, 0)
    elif args.mutate == "break-ep":
        if M.size < 2:
            raise InputError("no class with two members; cannot break an equivalence")
        idx = next(
            (i for i, s in enumerate(scheme.sorts) if s.width > 1), 0
        )
        scheme = weaken_equivalence(scheme, idx)
    elif args.mutate == "break-fp":
        key = next(
            (k for k, fmap in sorted(scheme.bijections.items()) if len(fmap) >= 2),
            None,
        )
        if key is None:
            raise InputError("no sort with two elements; cannot break the bijection")
        scheme = redirect_bijection(scheme, key)
    validation = validate_scheme(M, N.companion, scheme)
    report = {
        "validation": validation.to_json_dict(),
        "scheme": scheme,
        "mutation": args.mutate,
    }
    if not validation.passed:
        raise CheckFailure(report)
    return report, [f"scheme over {M.size}-element structure: all conditions pass"]


def _cmd_limit(args) -> tuple[dict, list[str]]:
    M = _load_structure(args.infile, args.max_size)
    config = _lift_config(args, M)
    if args.relation is not None and not M.sig.has_relation(args.relation):
        raise InputError(f"unknown relation {args.relation!r}")
    N = build_lift(M, config)
    rels = [n for n, _ in M.sig.relations] if args.relation is None else [args.relation]
    table = {}
    for rel in rels:
        elems = limit_elements(N, rel)
        table[rel] = [
            {"id": e, "coords": list(N.provenance[e].coords)} for e in elems
        ]
    report = {"limit_elements": table}
    summary = [f"{rel}: {len(v)} limit elements" for rel, v in table.items()]
    return report, summary


def _cmd_census(args) -> tuple[dict, list[str]]:
    M = _load_structure(args.infile, args.max_size)
    A = _parse_elements(args.parameters)
    if args.depth <= QF_DEPTH_LIMIT:  # the census refuses a deeper one itself
        _check_formulas(args.infile, M, args.depth)
    # the census rejects a bad depth or parameter before any group work
    census = qf_type_census(M, A, depth=args.depth)
    classes = stabilizer_orbits(M, A)
    report = {
        "A": sorted(set(A)),
        "classes": [list(c) for c in classes],
        "class_count": len(classes),
        "qf_types": {
            "depth": args.depth,
            "count": census.count,
            "representatives": list(census.representatives),
        },
    }
    summary = [
        f"{len(classes)} stabilizer classes, {census.count} quantifier-free types"
    ]
    return report, summary


def _cmd_report(args) -> tuple[dict, list[str]]:
    M = _load_structure(args.infile, args.max_size)
    try:
        ks = [int(x) for x in args.ks.split(",") if x]
    except ValueError as e:
        raise InputError(f"bad --ks list {args.ks!r}: {e}") from e
    # a repeated copy bound or parameter set would only repeat its entries
    seen = set()
    for k in ks:
        if k in seen:
            raise InputError(f"--ks lists the copy bound {k} twice")
        seen.add(k)
    for k in ks:
        _check_copy_bound(k)
        _check_lift_size(M, k, include_repetitions=False)
    texts = args.parameters or [""]
    As = [_parse_elements(a) for a in texts]
    given = {}
    for text, A in zip(texts, As):
        key = tuple(sorted(set(A)))
        if key in given:
            raise InputError(
                f"--A {text!r} repeats the parameter set {list(key)} of --A {given[key]!r}"
            )
        given[key] = text
    census = stability_report(M, ks, As, structure_id=args.infile)
    report = census.to_json_dict()
    summary = [
        f"k={e['k']} A={e['A']}: total {e['total']} ({e['growth_law']})"
        for e in census.entries
    ]
    if not census.all_pass:
        raise CheckFailure(report)
    return report, summary


def _cmd_corpus(args) -> tuple[dict, list[str]]:
    if args.random < 0:
        raise InputError(f"--random {args.random} is negative")
    if args.random > RANDOM_CORPUS_GUARD:
        raise InputError(
            f"random corpus count {args.random} exceeds the guard {RANDOM_CORPUS_GUARD}"
        )
    if args.size < 0:
        raise InputError(f"--size {args.size} is negative")
    structures: list[tuple[str, Structure]] = []
    if args.exhaustive is not None:
        if args.exhaustive < 0:
            raise InputError(f"--exhaustive {args.exhaustive} is negative")
        if args.exhaustive > 3:
            raise InputError("exhaustive corpus is guarded to size <= 3")
        structures.extend(exhaustive_digraphs(args.exhaustive))
    if args.random:
        if args.size > DEFAULT_SIZE_GUARD:
            raise InputError(f"random corpus size guarded to <= {DEFAULT_SIZE_GUARD}")
        rng = random.Random(args.seed)
        for i in range(args.random):
            structures.append((f"random_s{args.seed}_{i}", random_digraph(rng, args.size)))
    if not structures:
        raise InputError("nothing to generate: pass --exhaustive N and/or --random COUNT")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create {out_dir}: {e}") from e
    files = []
    for name, M in structures:
        path = out_dir / f"{name}.json"
        try:
            path.write_text(structure_to_json(M) + "\n", encoding="utf-8")
        except OSError as e:
            raise InputError(f"cannot write {path}: {e}") from e
        files.append(path.name)
    report = {"count": len(files), "files": files}
    return report, [f"wrote {len(files)} structures to {out_dir}"]


# -- driver ------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_lift: bool = False) -> None:
    p.add_argument("--in", dest="infile", required=True, help="structure JSON file")
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_GUARD,
                   help="domain size guard (default %(default)s)")
    p.add_argument("--format", choices=("json", "summary"), default="json")
    if with_lift:
        p.add_argument("--k", type=int, default=1, help="copy bound (default 1)")
        p.add_argument("--include-repetitions", action="store_true",
                       help="fibers range over all tuples, not just repetition-free ones")
        p.add_argument("--padding", default="auto",
                       help="'auto' or 'explicit:<m1,m2,...>' widths in canonical order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablelift",
        description="Stabilized lifts of finite relational structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="construct a lift and report its elements")
    _add_common(p, with_lift=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("aut", help="automorphism group of a structure")
    _add_common(p)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("verify-iso", help="verify the automorphism-group transfer")
    _add_common(p, with_lift=True)
    p.set_defaults(func=_cmd_verify_iso)

    p = sub.add_parser("scheme-check", help="generate and validate the lift's scheme")
    _add_common(p, with_lift=True)
    p.add_argument("--mutate", choices=("negate-relformula", "break-ep", "break-fp"),
                   default=None, help="plant a defect before validating")
    p.set_defaults(func=_cmd_scheme_check)

    p = sub.add_parser("limit", help="limit elements of a lift")
    _add_common(p, with_lift=True)
    p.add_argument("--relation", default=None)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("census", help="stabilizer classes and type counts")
    _add_common(p)
    p.add_argument("--A", dest="parameters", default="",
                   help="comma-separated parameter elements")
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("report", help="stability census across copy bounds")
    _add_common(p)
    p.add_argument("--ks", default="1,2", help="comma-separated copy bounds")
    p.add_argument("--A", dest="parameters", action="append",
                   help="parameter set (repeatable; comma-separated source elements)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("corpus", help="write a deterministic structure corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--exhaustive", type=int, default=None,
                   help="all digraphs of exactly this size (max 3)")
    p.add_argument("--random", type=int, default=0, help="number of random digraphs")
    p.add_argument("--size", type=int, default=4, help="random digraph size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "summary"), default="json")
    p.set_defaults(func=_cmd_corpus)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every call of ``main`` reuses: built on first use, not at
    import, and it keeps nothing from any call."""
    return build_parser()


def _indented(value, nl: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    where ``nl`` is the line break and indent before it, an
    ``InterpretationScheme`` standing for its JSON data (see
    ``_scheme_text``).  Handles dicts with str keys, lists, tuples, str, int,
    bool, None and float; raises TypeError on anything else."""
    t = type(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        parts = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            parts.append(encode_basestring_ascii(key) + ": " + _indented(value[key], inner))
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        if all(type(item) is str for item in value):
            parts = map(encode_basestring_ascii, value)
        else:
            parts = [_indented(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    if t is int:
        return repr(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if t is float:
        return json.dumps(value)
    if t is InterpretationScheme:
        return _scheme_text(value, nl)
    raise TypeError(f"cannot write {t.__name__}")


def _scheme_text(scheme: InterpretationScheme, nl: str) -> str:
    """``_indented`` of the scheme's JSON data: a dict of its sorts (key,
    width, and domain and equivalence formula texts), its relations (each
    translation in order: relation, sort keys and formula text) and its
    bijections (by sort key, each map as [element, representative] pairs by
    element), every key a list of its atoms.  Written in one pass over the
    scheme: each distinct formula object is formatted once, each padding
    prefix and relation name written once, each sort key once per indent
    and each tuple of sort keys once, and each entry is one string from
    fixed key prefixes."""
    i1, i2, i3, i4, i5 = (nl + "  " * d for d in range(1, 6))
    enc = encode_basestring_ascii

    def items(parts: list[str], outer: str) -> str:
        inner = outer + "  "
        return "[" + inner + ("," + inner).join(parts) + outer + "]" if parts else "[]"

    def entry(outer: str, *fields: str) -> str:  # a dict of these sorted keys, each value a %s
        return "{" + ",".join(outer + '  "' + f + '": %s' for f in fields) + outer + "}"

    # texts by formula object, tuple of sort keys and relation name: none is
    # empty, so ``or`` falls through to a text not yet written
    texts: dict[int, str] = {}
    tuples: dict[int, str] = {}
    names: dict[str, str] = {}
    prefixes: dict[int, str] = {}
    every_key = [*(s.key for s in scheme.sorts), *scheme.bijections]
    at3 = {key: items([*map(enc, key)], i3) for key in every_key}
    at4 = {key: items([*map(enc, key)], i4) for key in at3}

    def text(phi: Formula) -> str:
        return texts.get(id(phi)) or texts.setdefault(id(phi), enc(format_formula(phi, prefixes)))

    sort = entry(i2, "domain", "equivalence", "key", "width")
    relation, bijection = entry(i2, "formula", "relation", "sorts"), entry(i2, "key", "map")
    pair = "[" + i5 + "%s," + i5 + "%s" + i4 + "]"
    sorts = [
        sort % (text(s.domain_formula), text(s.equiv_formula), at3[s.key], s.width)
        for s in scheme.sorts
    ]
    relations = [
        relation % (
            text(phi),
            names.get(rel) or names.setdefault(rel, enc(rel)),
            tuples.get(id(keys)) or tuples.setdefault(id(keys), items([at4[k] for k in keys], i3)),
        )
        for (rel, keys), phi in scheme.translations.items()
    ]
    bijections = [
        bijection % (at3[key], items([pair % (b, items([*map(str, rep)], i5))
                                      for b, rep in sorted(fmap.items())], i3))
        for key, fmap in sorted(scheme.bijections.items())
    ]
    return entry(nl, "bijections", "relations", "sorts") % (
        items(bijections, i1), items(relations, i1), items(sorts, i1))


def _dump(report) -> str:
    """Exactly ``json.dumps(report, sort_keys=True, indent=2)`` for every
    report, a scheme in it written as its JSON data: with an indent, json
    never uses its C encoder before 3.13, and ``_indented`` writes the same
    text in less time."""
    return _indented(report, "\n")


def _emit(report: dict, summary: list[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_dump(report) + "\n")
        for line in summary:
            sys.stderr.write(line + "\n")
    else:
        for line in summary:
            sys.stdout.write(line + "\n")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, summary = args.func(args)
    except CheckFailure as e:
        _emit(e.report, ["check failed"], args.format)
        return 1
    except (
        InputError,
        StructureError,
        LiftError,
        SchemeError,
        GroupError,
        StabilityError,
    ) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    _emit(report, summary, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
