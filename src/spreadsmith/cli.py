"""Command-line front end.

Each command is declared once, in COMMANDS: its function, the FILE it reads
if any, and the options it reads.  `main` builds the parser of the command
argv names and of no other, which takes exactly those options, before or
after the subcommand and its file; any other option exits 2.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
141 when the reader closes stdout early (as after `| head`), the status a
shell reports for a filter that SIGPIPE stops, and 143 after SIGTERM, which
ends the command through its cleanup (what is written so far reaches
--output).  Output is deterministic for a fixed configuration: repeated runs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from spreadsmith.field_codec import (dumps, field_spec_to_obj, lambda_from_obj,
                                     lambda_to_obj, loads)
from spreadsmith.field_tower import (FieldSpec, LambdaSystem, build_lambda, build_partition,
                                     prime_power)

USAGE_ERROR = 2
VERIFY_ERROR = 1
BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _codes(option: str, text: str | None) -> tuple[int, ...] | None:
    """The integers of a comma-separated field option, None when it is unset."""
    if not text:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"{option} {text!r} is not a comma-separated list of "
                         "integers") from None


def _field_from_args(args) -> FieldSpec:
    if args.q is not None:
        if args.p is not None or args.m is not None:
            raise UsageError("give either --q or --p/--m, not both")
        try:
            p, m = prime_power(args.q)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif args.p is not None:
        p, m = args.p, args.m if args.m is not None else 1
        if m < 1:
            raise UsageError(f"--m {m} is not a positive extension degree")
        if m > 4:   # no p^m with m > 4 lies in 3..16, and p**m could take long
            raise UsageError(f"q = {p}^{m} out of the supported range 3..16")
    else:
        raise UsageError("a field order is required (--q or --p/--m)")
    q = p**m
    if not 3 <= q <= 16:
        raise UsageError(f"q = {q} out of the supported range 3..16")
    try:
        return FieldSpec(p, m, modulus_q=_codes("--modulus-q", args.modulus_q),
                         modulus_q2=_codes("--modulus-q2", args.modulus_q2))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _open_input(path):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _input_lines(path):
    """The lines of a text input file; one that is not UTF-8 is an input error."""
    with _open_input(path) as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise UsageError(f"{path}: not a UTF-8 text file") from None


@contextmanager
def _writing(path):
    """A failure to create or write the output path is an input error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _lambda_from_args(args) -> LambdaSystem:
    """The Lambda system of the field options: read from --lambda, else
    the default one.  Building it needs no geometry."""
    spec = _field_from_args(args)
    if args.lambda_file:
        with _open_input(args.lambda_file) as fh:
            try:
                return lambda_from_obj(spec, loads(fh.read()))
            except (ValueError, KeyError) as exc:
                raise UsageError(f"{args.lambda_file}: malformed Lambda file: {exc}") from None
    return build_lambda(spec, build_partition(spec))


def _emit(args, lines):
    """Write each line to --output or stdout as soon as it is produced; no
    line at all writes a single newline."""
    target = nullcontext(sys.stdout)
    if args.output:
        with _writing(args.output):
            target = open(args.output, "w")
    with target as out:
        empty = True
        for line in lines:
            out.write(line + "\n")
            empty = False
        if empty:
            out.write("\n")


def _refuse_overwrite(output, source, what):
    """The output path, if any, may not name the input file, which it would replace."""
    if output and Path(output).resolve() == Path(source).resolve():
        raise UsageError(f"--output {output} would overwrite the {what}")


# ---------------------------------------------------------------------------
# subcommands: each imports the layers it runs, so a command pays for no
# other command's modules


def cmd_field_info(args) -> int:
    lam = _lambda_from_args(args)
    spec = lam.spec
    obj = {
        "field": field_spec_to_obj(spec),
        "q": spec.q,
        "unit_circle": [list(spec.elem_vec(u)) for u in spec.unit_circle()],
        "lambda": lambda_to_obj(lam),
        "norms": [list(spec.gfq_vec(lam.norm_of(k))) for k in range(spec.q - 1)],
        "partition": {
            "t": lam.partition.t,
            "units": [list(spec.gfq_vec(c)) for c in lam.partition.units_part],
            "A": [list(spec.gfq_vec(c)) for c in lam.partition.A],
            "A_inv": [list(spec.gfq_vec(c)) for c in lam.partition.A_inv],
        },
        "sizes": {"U": spec.q + 1, "I": len(lam.I),
                  "I1": len(lam.I1), "I2": len(lam.I2)},
    }
    if args.format == "json":
        _emit(args, [dumps(obj)])
    else:
        lines = [
            f"GF({spec.q}^2) over GF({spec.q}), q = {spec.p}^{spec.m}",
            f"modulus over GF({spec.p}): {list(spec.modulus_q)}",
            f"modulus over GF({spec.q}): {[list(spec.gfq_vec(c)) for c in spec.modulus_q2]}",
            f"generator: {list(spec.elem_vec(spec.generator))}",
            f"|U| = {spec.q + 1}",
            f"Lambda indices I = {list(lam.I)}  (|I| = {len(lam.I)})",
            f"I1 = {list(lam.I1)}, I2 = {list(lam.I2)}",
            f"partition: t = {lam.partition.t}, units = {list(lam.partition.units_part)}, "
            f"A = {list(lam.partition.A)}, A^-1 = {list(lam.partition.A_inv)}",
        ]
        _emit(args, lines)
    return 0


def cmd_goodsets(args) -> int:
    from spreadsmith.goodsets import census, enumerate_good_sets, is_good
    from spreadsmith.serialization import goodset_record, parse_goodset_record

    lam = _lambda_from_args(args)
    if args.subcmd == "count":
        cen = census(lam, exclude_norm_minus_one=args.filter == "no-norm-minus-one")
        obj = {
            "q": cen.q,
            "filter": args.filter,
            "count": cen.oracle,
            "formulas": {k: (str(v) if not isinstance(v, int) else v)
                         for k, v in cen.formulas.items()},
            "formula_matches_count": cen.oracle_matches,
            "even_q_formula_conflict": cen.formula_conflict,
        }
        if args.format == "json":
            _emit(args, [dumps(obj)])
        else:
            out = [f"good sets (q={cen.q}, filter={obj['filter']}): {cen.oracle}"]
            for k, v in sorted(cen.formulas.items()):
                mark = "matches" if cen.oracle_matches.get(k) else "DIFFERS"
                out.append(f"  closed form {k} = {v}  [{mark}]")
            if cen.formula_conflict:
                out.append("  note: the two printed even-q closed forms conflict "
                           "with each other")
            _emit(args, out)
        return 0
    if args.subcmd == "enumerate":
        if args.limit is not None and args.limit < 0:
            raise UsageError("--limit must not be negative")
        sets = enumerate_good_sets(lam, exclude_norm_minus_one=args.filter == "no-norm-minus-one",
                                   limit=args.limit)
        _emit(args, (goodset_record(lam, gs) for gs in sets))
        return 0
    # verify FILE
    _refuse_overwrite(args.output, args.file, "records it verifies")
    bad = 0

    def report():
        nonlocal bad
        records = 0
        for lineno, row in enumerate(_input_lines(args.file), 1):
            if not row.strip():
                continue
            records += 1
            try:
                gs = parse_goodset_record(lam, row)
            except (ValueError, KeyError) as exc:
                bad += 1
                yield f"line {lineno}: malformed record: {exc}"
                continue
            verdict = is_good(lam, gs)
            if not verdict.ok:
                bad += 1
                yield (f"line {lineno}: not a good set; pair {verdict.witness} "
                       f"fails the {verdict.condition} condition")
        if not records:
            raise UsageError(f"{args.file} holds no good-set record")
        yield f"verified: {'all records good' if not bad else f'{bad} bad record(s)'}"

    _emit(args, report())
    return VERIFY_ERROR if bad else 0


def cmd_parallelism(args) -> int:
    from spreadsmith.parallelisms import build_parallelism, characterize, verify_parallelism
    from spreadsmith.serialization import (certificate_record, goodset_record,
                                           parse_goodset_record, read_parallelism_file,
                                           write_parallelism_file)
    from spreadsmith.spreads import Geometry

    if args.subcmd == "build":
        lam = _lambda_from_args(args)
        out = args.output or f"parallelism_q{lam.spec.q}.jsonl"
        _refuse_overwrite(out, args.file, "record it builds from")
        geo = Geometry(lam)
        first = next((line for line in _input_lines(args.file) if line.strip()), None)
        if first is None:
            raise UsageError(f"{args.file} holds no good-set record")
        try:
            gs = parse_goodset_record(geo.lam, first)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"{args.file}: malformed record: {exc}") from None
        try:
            par = build_parallelism(geo, gs)
        except ValueError as exc:
            print(exc)
            return VERIFY_ERROR
        cert = par.certificate
        with _writing(out):
            write_parallelism_file(out, geo, par, cert)
        print(f"wrote {out}: {len(par.spreads)} spreads, "
              f"{cert.line_count} lines, certificate "
              f"{'pass' if cert.ok else 'FAIL'}, checksum {cert.checksum[:16]}..")
        return 0 if cert.ok else VERIFY_ERROR
    _refuse_overwrite(args.output, args.file, "parallelism file it reads")
    try:
        _, geo, spreads, stored = read_parallelism_file(args.file)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc.strerror}") from None
    except (ValueError, KeyError) as exc:
        raise UsageError(f"{args.file}: malformed parallelism file: {exc}") from None
    if args.subcmd == "verify":
        cert = verify_parallelism(geo, spreads)
        ok = cert.ok
        msgs = [f"spreads: {len(spreads)}", f"lines covered: {cert.line_count}",
                f"checksum: {cert.checksum[:16]}.."]
        if stored is not None:
            for key, value in certificate_record(len(spreads), cert).items():
                if stored[key] != value:
                    ok = False
                    msgs.append(f"{key} mismatch against the stored certificate")
        if not cert.ok:
            msgs.append(f"failure: {cert.reason()}")
            if cert.uncovered:
                msgs.append(f"first uncovered line: {cert.uncovered[0]}")
            if cert.multiply_covered:
                msgs.append(f"first multiply covered line: {cert.multiply_covered[0]}")
        _emit(args, msgs + [f"verdict: {'pass' if ok else 'FAIL'}"])
        return 0 if ok else VERIFY_ERROR
    # characterize
    res = characterize(geo, spreads)
    if not res.ok:
        _emit(args, [f"characterization failed: {res.reason}"])
        return VERIFY_ERROR
    _emit(args, [goodset_record(geo.lam, res.good_set)])
    return 0


def cmd_classify(args) -> int:
    from spreadsmith.equivalence import classify, stabilizer_order
    from spreadsmith.parallelisms import build_parallelism
    from spreadsmith.serialization import orbit_report_to_obj, write_parallelism_file
    from spreadsmith.spreads import Geometry

    geo = Geometry(_lambda_from_args(args))
    if geo.q > 5:
        raise UsageError("full classification is supported for q <= 5")
    report = classify(geo)
    refs = [f"orbit_{i}.jsonl" for i in range(report.orbit_count)] if args.output else None
    obj = orbit_report_to_obj(report, geo.lam, refs)
    obj["group_order_formula"] = stabilizer_order(geo)
    text = dumps(obj)
    if not args.output:
        print(text)
        return 0
    outdir = Path(args.output)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        for ref, orbit in zip(refs, report.orbits):
            par = build_parallelism(geo, orbit.representative)
            write_parallelism_file(outdir / ref, geo, par, par.certificate)
        (outdir / "report.json").write_text(text + "\n")
    print(f"wrote {args.output}/report.json with {report.orbit_count} orbits")
    return 0


def cmd_selftest(args) -> int:
    from spreadsmith.checks import run_selftest
    from spreadsmith.spreads import Geometry

    geo = Geometry(_lambda_from_args(args))
    results = run_selftest(geo, sample_seed=args.sample_seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  q={r.q}  [{status}]  {r.detail}")
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return VERIFY_ERROR if failed else 0


# ---------------------------------------------------------------------------
# the command table: every option, declared once, and the ones each command reads

OPTIONS = {
    "--q": dict(type=int, help="field order q = p^m (3..16)"),
    "--p": dict(type=int, help="characteristic (with --m)"),
    "--m": dict(type=int, help="extension degree (with --p)"),
    "--modulus-q": dict(help="comma-separated GF(p) coefficients, constant first"),
    "--modulus-q2": dict(help="comma-separated GF(q) codes c0,c1,1"),
    "--lambda": dict(dest="lambda_file", help="JSON file overriding the norm-representative list"),
    "--filter": dict(choices=("all", "no-norm-minus-one"), default="all"),
    "--limit": dict(type=int, help="stop after this many good sets"),
    "--format": dict(choices=("json", "text"), default="text"),
    "--output": dict(help="the file (classify: the directory) that takes the output"),
    "--sample-seed": dict(type=int, help="seed for the sampling suites (defaults are fixed)"),
}
FIELD = ("--q", "--p", "--m", "--modulus-q", "--modulus-q2", "--lambda")

# each command's words -> its function, its FILE ("" for none), the options it reads
COMMANDS = {
    "field-info": (cmd_field_info, "", FIELD + ("--format", "--output")),
    "goodsets count": (cmd_goodsets, "", FIELD + ("--filter", "--format", "--output")),
    "goodsets enumerate": (cmd_goodsets, "", FIELD + ("--filter", "--limit", "--output")),
    "goodsets verify": (cmd_goodsets, "a record file", FIELD + ("--output",)),
    "parallelism build": (cmd_parallelism, "a record file", FIELD + ("--output",)),
    "parallelism verify": (cmd_parallelism, "a parallelism file", ("--output",)),
    "parallelism characterize": (cmd_parallelism, "a parallelism file", ("--output",)),
    "classify": (cmd_classify, "", FIELD + ("--output",)),
    "selftest": (cmd_selftest, "", FIELD + ("--sample-seed",)),
}
# the first word of each command, as the top-level help lists them
HELP = {"field-info": "print the field tower and label classes",
        "goodsets": "count, enumerate or verify good sets",
        "parallelism": "build, verify or characterize a parallelism",
        "classify": "orbit classification of all parallelisms",
        "selftest": "run every verification suite for this q"}


def _usage(prog: str, description: str, names: dict, argv: list[str]):
    """Parse argv against one level's names alone: it ends in their help or usage error."""
    ap = argparse.ArgumentParser(prog=prog, description=description)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help in names.items():
        sub.add_parser(name, help=help)
    ap.parse_args(argv)
    ap.error("the command name goes first")


def _parse(argv: list[str]):
    """The function of the command argv names, and the arguments its parser
    reads off the rest; a missing or unknown name gets its level's usage."""
    name, rest, sub = argv[0] if argv else "", argv[1:], None
    if name not in HELP:
        _usage("spreadsmith", "Construct, enumerate, verify and classify line-parallelisms "
               "of PG(3,q) built from a Desarguesian spread and Hall spreads.", HELP, argv)
    if name not in COMMANDS:
        # a group: its subcommand is the first argument that is neither an
        # option nor an option's value (each option but --help takes one)
        i = 0
        while i < len(rest) and rest[i].startswith("-"):
            i += 1 if "=" in rest[i] or rest[i] in ("-h", "--help") else 2
        sub = rest[i] if i < len(rest) else ""
        if f"{name} {sub}" not in COMMANDS:
            _usage(f"spreadsmith {name}", HELP[name], {
                w.split()[1]: None for w in COMMANDS if w.startswith(f"{name} ")}, rest)
        name, rest = f"{name} {sub}", rest[:i] + rest[i + 1:]
    run, file, options = COMMANDS[name]
    ap = argparse.ArgumentParser(prog=f"spreadsmith {name}")
    if file:
        ap.add_argument("file", nargs="?", help=file)
    for option in options:
        ap.add_argument(option, **OPTIONS[option])
    args = ap.parse_args(rest, argparse.Namespace(subcmd=sub))
    if file and args.file is None:
        ap.error(f"{name} needs {file}")
    return run, args


# cli.build_parallelism and cli.verify_parallelism, for the tracer's tests (ROADMAP item 4)
def __getattr__(name):
    if name in ("build_parallelism", "verify_parallelism"):
        from spreadsmith import parallelisms
        return getattr(parallelisms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    run, args = _parse(sys.argv[1:] if argv is None else list(argv))
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        status = run(args)
        sys.stdout.flush()
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # stdout's reader is gone: send what is still buffered to /dev/null so
        # that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
