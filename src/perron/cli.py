"""Command-line interface: JSON jobs in, JSON result documents out.

Subcommands: compare, game solve, game play, positivize, monomialize.
Every run emits one result document with a top-level schema_version of 1:

    {"schema_version": 1, "status": "ok"|"error",
     "payload": ..., "diagnostics": [...], "trace": [{"J": [...], "j": ...}]}

Rationals travel as strings "p/q" (or "p"); integers as JSON numbers while
they fit exactly in a double, as decimal strings beyond that.  Exit codes
(`_EXIT_CODES` maps each failure class to its code): 0 ok, 1 malformed input
(a closed stdin too), a usage error, an unwritable --output (the error
document then goes to stdout), an unwritable stdout (one stderr line says
why) or a trace too large to encode, 2 validation failure, 3 step limit
exceeded (the limit bounds the rounds of the whole job), 4 interactive
session aborted (end of input, or a closed stdin), 5 internal error (the
library found its own result inconsistent).
"""

from __future__ import annotations

import io
import json
import re
import sys
from functools import partial
from types import SimpleNamespace

from .engine import (Adversary, FirstIndex, MaxGrowth, Scripted, SeededRandom,
                     advance_champion, run_pair)
from .errors import (InteractiveAborted, InternalError, StepLimitExceeded,
                     ValidationError)
from .transforms import compose_trace

SCHEMA_VERSION = 1
_EXACT_DOUBLE = 2 ** 53  # integers beyond this are emitted as decimal strings
_DECODER = json.JSONDecoder()
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

EXIT_OK = 0
EXIT_MALFORMED = 1


class MalformedInput(Exception):
    """Structurally unusable job document."""


# each failure's exit code, found by isinstance: a subclass exits as its base
_EXIT_CODES = {MalformedInput: EXIT_MALFORMED, ValidationError: 2,
               StepLimitExceeded: 3, InteractiveAborted: 4, InternalError: 5}
_STDOUT = SimpleNamespace(output="-")  # where a failure to read argv goes


# ---------------------------------------------------------------------------
# decoding helpers

def _field(doc, name):
    if not isinstance(doc, dict) or name not in doc:
        raise MalformedInput(f"missing field {name!r}")
    return doc[name]


def _as_int(value, what) -> int:
    if isinstance(value, bool):
        raise MalformedInput(f"{what} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise MalformedInput(f"{what} is not a decimal integer: {value!r}")
    raise MalformedInput(f"{what} must be an integer or decimal string")


def _as_list(value, what) -> list:
    if not isinstance(value, list):
        raise MalformedInput(f"{what} must be a list")
    return value


def _as_int_list(value, what) -> list[int]:
    return [x if type(x) is int else _as_int(x, what) for x in _as_list(value, what)]


def _as_rational(value, what, Fraction) -> Fraction:
    """value as a Fraction; only group jobs load the class, and pass it in."""
    if isinstance(value, str):
        p, slash, q = value.partition("/")
        try:  # int() reads these, or rejects them as Fraction(value) would
            if p.lstrip("-").isdigit() and (not slash or q.isdigit()):
                return Fraction(int(p), int(q)) if slash else Fraction(int(p))
            if "e" in value or "E" in value:  # Fraction reads "1e10000000" for minutes
                raise ValueError(value)
            if "_" in value or len(value.split()) > 1:  # 3.10-3.13 read these apart
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"{what} is not a rational: {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise MalformedInput(f"{what} must be an integer or a 'p/q' string")


def _as_lexvecs(value, what, each, entry) -> tuple:
    from .ordered_group import Fraction, lexvec
    return tuple([lexvec([_as_rational(x, entry, Fraction) for x in _as_list(row, each)])
                  for row in _as_list(value, what)])


# ---------------------------------------------------------------------------
# encoding helpers

def _encode_int(x: int):
    return x if -_EXACT_DOUBLE < x < _EXACT_DOUBLE else str(x)


def _encode_vec(v):
    return [x if -_EXACT_DOUBLE < x < _EXACT_DOUBLE else str(x) for x in v]


def _encode_matrix(m):
    return [_encode_vec(row) for row in m]


def _encode_lexvec(v):
    return [str(c) for c in v]


def _encode_trace(steps) -> str:
    """The trace as _ENCODER writes it, one {"J":[...],"j":...} per round:
    each run's block is written once and its text repeated m times."""
    text = "".join([
        "".join(['{"J":[%s],"j":%s},' % (",".join(map(str, sorted(s.J))), s.j)
                 for s in block]) * m
        for block, m in steps.runs])
    return f"[{text[:-1]}]"


def _format_vec(v) -> str:
    return "[" + ",".join(str(x) for x in v) + "]"


def _write(text, name="stdout") -> int:
    """Write text to sys.stdout (or sys.stderr) now and return EXIT_OK.  A
    closed or unwritable stream loses the text and returns EXIT_MALFORMED;
    for stdout, one stderr line says why."""
    stream = getattr(sys, name)
    try:
        stream.write(text)
        stream.flush()
        return EXIT_OK
    except (AttributeError, OSError) as exc:
        if name == "stdout":
            _say(f"perron: cannot write to stdout: "
                 f"{'it is closed' if stream is None else exc}\n")
        return EXIT_MALFORMED


_say = partial(_write, name="stderr")  # stderr lines never stop the result document


# ---------------------------------------------------------------------------
# adversaries

class _Prompt(Adversary):
    """The player picks each j: the round line and a prompt go to stderr, the
    answer comes from the text `infile` (from sys.stdin when None); re-prompts
    on invalid input, aborts on end of input.  Both streams are resolved at
    each prompt, so callers may rebind them.  describe(vectors) is the round
    line's middle part."""

    def __init__(self, infile, describe):
        self._infile = None if infile is None else io.StringIO(infile)
        self._describe = describe

    def choose(self, J, vectors, round_no):
        infile = self._infile if self._infile is not None else sys.stdin
        label = "{" + ",".join(str(i) for i in sorted(J)) + "}"
        _say(f"round {round_no}: {self._describe(vectors)}J={label}\n")
        while True:
            _say(f"choose j in {label}: ")
            line = "" if infile is None else infile.readline()  # None: stdin closed
            if line == "":
                raise InteractiveAborted("end of input during interactive choice")
            try:
                j = int(line.strip())
            except ValueError:
                j = None
            if j in J:
                return j
            _say(f"j must be one of {label}\n")


def _build_adversary(doc, args, infile, describe=None) -> Adversary:
    """The job's adversary; an interactive one only where a describe is given."""
    descriptor = doc.get("adversary", {"kind": "first"})
    if not isinstance(descriptor, dict):
        raise MalformedInput("adversary must be an object")
    kind = descriptor.get("kind")
    if kind == "first":
        return FirstIndex()
    if kind == "max_growth":
        return MaxGrowth()
    if kind == "random":
        seed = args.seed if args.seed is not None else descriptor.get("seed")
        if seed is None:
            raise MalformedInput(
                "random adversary needs a seed ('seed' field or --seed)")
        if (seed := _as_int(seed, "seed")) < 0:  # random.Random would use |seed|
            raise MalformedInput(f"seed must be >= 0, got {seed}")
        return SeededRandom(seed)
    if kind == "scripted":
        if "choices" not in descriptor:
            raise MalformedInput("scripted adversary requires 'choices'")
        return Scripted(_as_int_list(descriptor["choices"], "choices"))
    if kind == "interactive":
        if describe is None:
            raise ValidationError(
                "interactive adversary is only permitted for compare and game play")
        return _Prompt(infile, describe)
    raise MalformedInput(f"unknown adversary kind: {kind!r}")


# ---------------------------------------------------------------------------
# subcommands; each imports the upper layer it runs, so a call loads only that

def _cmd_compare(doc, args, infile):
    alpha = _as_int_list(_field(doc, "alpha"), "alpha")
    beta = _as_int_list(_field(doc, "beta"), "beta")
    adversary = _build_adversary(
        doc, args, infile,
        lambda vs: "alpha={} beta={} ".format(*map(_format_vec, vs)))
    trace = run_pair(alpha, beta, adversary, step_limit=args.step_limit)
    payload = {
        "relation": trace.outcome.value,  # "le", "ge" or "eq"
        "final_alpha": _encode_vec(trace.final_alpha),
        "final_beta": _encode_vec(trace.final_beta),
        "matrix": _encode_matrix(compose_trace(trace.steps, len(alpha))),
        "rounds": _encode_int(trace.rounds),
    }
    return payload, trace.steps


def _cmd_game(doc, args, infile, mode):
    from .game import solve
    vectors = [_as_int_list(v, "vector")
               for v in _as_list(_field(doc, "vectors"), "vectors")]
    if mode == "play":
        def describe(vs):  # drive's champion: steps keep swept points swept
            champ = advance_champion(vs, 0)[0]
            return (f"vectors {' '.join(map(_format_vec, vs))}; "
                    f"champion #{champ} {_format_vec(vs[champ])}; ")
        adversary = _Prompt(infile, describe)
    else:
        adversary = _build_adversary(doc, args, infile)

    outcome = solve(vectors, adversary, step_limit=args.step_limit)
    if mode == "play":
        _say(f"won after {outcome.rounds} round(s): winner #{outcome.winner_index} "
             f"{_format_vec(outcome.final_vectors[outcome.winner_index])}\n")
    payload = {
        "winner_index": outcome.winner_index,
        "final_vectors": [_encode_vec(v) for v in outcome.final_vectors],
        "rounds": _encode_int(outcome.rounds),
    }
    return payload, outcome.trace


def _cmd_positivize(doc, args, infile):
    from .ordered_group import GroupElement, GroupOrder, _initial_basis, positivize_all
    raw_images = _field(doc, "generator_images")
    if not isinstance(raw_images, list) or not raw_images:
        raise MalformedInput("generator_images must be a non-empty list")
    basis = _initial_basis(GroupOrder(_as_lexvecs(
        raw_images, "generator_images", "each generator image", "image entry")))

    elements = [GroupElement(basis, _as_int_list(row, "element"))
                for row in _as_list(_field(doc, "elements"), "elements")]
    result = positivize_all(basis, elements, args.step_limit)
    payload = {
        "basis_in_original": _encode_matrix(result.basis.coords_in_original),
        "basis_images": [_encode_lexvec(img) for img in result.basis.images],
        "coords": [_encode_vec(c) for c in result.coords],
    }
    return payload, result.steps


def _cmd_monomialize(doc, args, infile):
    from .monomials import Fraction, ValuedRing, monomialize
    m = _as_int(_field(doc, "num_vars"), "num_vars")
    n = _as_int(_field(doc, "num_toric"), "num_toric")
    ring = ValuedRing(m, n, _as_lexvecs(_field(doc, "values"), "values",
                                        "each value", "value entry"))

    raw_terms = _field(doc, "polynomial")
    if not isinstance(raw_terms, list):
        raise MalformedInput("polynomial must be a list of terms")
    terms = [(_as_int_list(_field(term, "exponents"), "exponents"),
              _as_rational(_field(term, "coeff"), "coeff", Fraction))
             for term in raw_terms]

    result = monomialize(ring, terms, step_limit=args.step_limit)
    unit_terms = [{"coeff": str(c), "exponents": _encode_vec(e)}
                  for e, c in sorted(result.unit_part.items())]
    payload = {
        "substitution": _encode_matrix(result.substitution.matrix),
        "new_values": [_encode_lexvec(v) for v in result.new_values],
        "factor_exponents": _encode_vec(result.factor_exponents),
        "unit": unit_terms,
    }
    return payload, result.substitution.steps


# ---------------------------------------------------------------------------
# argument parsing: two tables give the grammar, the help text and the usage
# errors

def _step_limit(text: str) -> int:
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise MalformedInput(f"not a non-negative integer: {text!r}")
    return limit


# command path: a job's handler, or for a group the name of its subcommand;
# and its help line (the root's is the program description, at 80 columns)
_COMMANDS = {
    "": ("command", "Exact unimodular descent transforms: pair comparability, "
                    "the polyhedra game,\npositive cones, monomialization."),
    "compare": (_cmd_compare, "make a pair of vectors comparable"),
    "game": ("game_mode", "the polyhedra game"),
    "game solve": (partial(_cmd_game, mode="solve"),
                   "play out the winning strategy"),
    "game play": (partial(_cmd_game, mode="play"),
                  "interactive: you pick each j"),
    "positivize": (_cmd_positivize,
                   "give group elements non-negative coordinates"),
    "monomialize": (_cmd_monomialize,
                    "factor a polynomial as monomial times unit"),
}
# a job's options: metavar (None for a flag), default, converter, help line
_OPTIONS = {
    "--input": ("PATH", "-", str,
                "job document path, or - for stdin (default)"),
    "--output": ("PATH", "-", str,
                 "result document path, or - for stdout (default)"),
    "--trace": (None, False, None,
                "include the step trace in the result document"),
    "--seed": ("U64", None, int, "override the random adversary's seed"),
    "--step-limit": ("N", 1_000_000, _step_limit,
                     "safety valve on the number of rounds (default 10^6)"),
}
_HELP = {"-h": "-h/--help", "--help": "-h/--help"}  # option string: name
_JOB = {**_HELP, **{name: name for name in _OPTIONS}}
_DEFAULTS = {name[2:].replace("-", "_"): spec[1]
             for name, spec in _OPTIONS.items()}


def _prog(path):
    return f"perron {path}".rstrip()


def _subcommands(path):
    return [p.rpartition(" ")[2] for p in _COMMANDS
            if p and p.rpartition(" ")[0] == path]


def _invocation(name):
    return f"{name} {_OPTIONS[name][0]}" if _OPTIONS[name][0] else name


def _usage(path):
    """The usage line, wrapped at 80 columns."""
    if isinstance(_COMMANDS[path][0], str):
        parts = ["{" + ",".join(_subcommands(path)) + "}", "..."]
    else:
        parts = [f"[{_invocation(name)}]" for name in _OPTIONS]
    lines = ["usage: " + _prog(path)]
    indent = " " * len(lines[0])
    for part in ["[-h]", *parts]:
        if len(lines[-1]) + 1 + len(part) > 78:  # a right margin of 2
            lines.append(indent)
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _help(path):
    """The --help text: usage, the root's description, then the subcommands
    and options, their help lines aligned at column 24 or less."""
    rows = [("options", 2, "-h, --help", "show this help message and exit")]
    if isinstance(_COMMANDS[path][0], str):
        words = _subcommands(path)
        rows[:0] = [("positional arguments", 2, "{" + ",".join(words) + "}",
                     "")] + [("", 4, word, _COMMANDS[f"{path} {word}".strip()][1])
                             for word in words]
    else:
        rows += [("", 2, _invocation(name), _OPTIONS[name][3])
                 for name in _OPTIONS]
    column = min(24, 2 + max(indent + len(name) for _, indent, name, _ in rows))
    text = _usage(path) + ("" if path else "\n" + _COMMANDS[""][1] + "\n")
    for title, indent, name, line in rows:
        text += f"\n{title}:\n" if title else ""
        text += " " * indent + (name.ljust(column - indent) + line if line
                                else name) + "\n"
    return text


def _fail(path, message):
    """A usage error: the usage line goes to stderr, the message into the
    one error document."""
    _say(_usage(path))
    raise MalformedInput(f"{_prog(path)}: {message}")


def _classify(path, names, token):
    """How a token before any "--" reads: None for a positional, else
    (option name, None when unknown; option string; explicit value or None).
    A long option matches by unique prefix; a negative number or a token
    with a space is a positional."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return names[token], token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return names[head], head, value
    if token[1] == "-":
        found = [(s, value if eq else None) for s in names
                 if s.startswith(head)]
    else:  # a short option takes the rest of the token as its value
        found = [(token[:2], token[2:])] if token[:2] in names else []
    if len(found) > 1:
        _fail(path, f"ambiguous option: {token} could match "
                    + ", ".join(s for s, _ in found))
    if found:
        return names[found[0][0]], *found[0]
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, token, None


def _parse_level(path, tokens, args):
    """Parse tokens at command `path` into args, left to right; a group
    hands what follows its subcommand to that level.  Returns the tokens
    left unrecognized."""
    target = _COMMANDS[path][0]
    group = isinstance(target, str)
    kinds = []  # how each token before the first "--" reads; in a group, only
    for token in tokens:  # up to the subcommand, which reads the rest itself
        if token == "--" or group and kinds and kinds[-1] is None:
            break
        kinds.append(_classify(path, _HELP if group else _JOB, token))
    extras, i = [], 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i] if i < len(kinds) else None
        i += 1
        # the first positional names the subcommand; a final "--" names none
        if group and kind is None and (i - 1 != len(kinds) or i < len(tokens)):
            child = f"{path} {token}" if path else token
            if not token or " " in token or child not in _COMMANDS:
                _fail(path, f"argument {target}: invalid choice: {token!r} "
                            "(choose from "
                            + ", ".join(map(repr, _subcommands(path))) + ")")
            return extras + _parse_level(child, tokens[i:], args)
        if kind is None or kind[0] is None:  # a positional, "--" or unknown
            extras.append(token)
            continue
        name, option, value = kind
        spec = _OPTIONS.get(name)
        if spec is None or spec[0] is None:  # -h/--help or a flag
            if option == "-h" and value:  # -hh reads as -h -h
                value = value.lstrip("h") or None
            if value is not None:
                _fail(path, f"argument {name}: ignored explicit argument "
                            f"{value!r}")
            if spec is None:
                raise SystemExit(_write(_help(path)))
            setattr(args, name[2:].replace("-", "_"), True)
            continue
        if value is None:
            if i >= len(kinds) or kinds[i] is not None:
                _fail(path, f"argument {name}: expected one argument")
            value, i = tokens[i], i + 1
        try:
            value = spec[2](value)
        except MalformedInput as exc:
            _fail(path, f"argument {name}: {exc}")
        except ValueError:
            _fail(path, f"argument {name}: invalid {spec[2].__name__} value: "
                        f"{value!r}")
        setattr(args, name[2:].replace("-", "_"), value)
    if group:
        _fail(path, f"the following arguments are required: {target}")
    args.handler = target
    return extras


def _parse_args(argv) -> SimpleNamespace:
    """Read argv: long options by unique prefix, --opt=value, "-" and
    negative numbers as values, the last repeat winning, -h/--help at each
    level.  A usage error writes the usage line to stderr and raises
    MalformedInput.  The result has a field per option, and the handler."""
    args = SimpleNamespace(**_DEFAULTS, handler=None)
    extras = _parse_level("", list(argv), args)
    if extras:
        _fail("", "unrecognized arguments: " + " ".join(extras))
    return args


def _read_job(args):
    """Parse the job document.  When it arrives on stdin, the text after the
    document becomes the interactive input (so piped play is one stream: the
    JSON followed by the j choices)."""
    try:
        if args.input == "-":
            if sys.stdin is None:
                raise OSError("stdin is closed")
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        stripped = text.removeprefix("\ufeff").lstrip()  # RFC 8259 8.1: skip a BOM
        doc, end = _DECODER.raw_decode(stripped)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read input: {exc}")
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}")
    except RecursionError:
        raise MalformedInput("invalid JSON: nested too deeply")
    rest = stripped[end:]
    if args.input != "-" and rest.strip():
        raise MalformedInput("trailing data after the JSON document")
    # from a file, interactive choices come from the real stdin
    infile = rest.lstrip("\n") if args.input == "-" else None
    if not isinstance(doc, dict):
        raise MalformedInput("job document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # True and 1.0 == 1 too
        raise MalformedInput(f"unsupported schema_version: {version!r}")
    return doc, infile


def _write_document(args, code, payload, diagnostics, steps=None) -> int:
    """Write the result document, with the trace of `steps` when given, and
    return its exit code; its status is "ok" exactly when code is 0.  A trace
    too large to encode is left out: an error keeps its code and says so, a
    success becomes an error with exit 1.  When --output cannot be written,
    an error document goes to stdout instead, with exit 1."""
    doc = {"schema_version": SCHEMA_VERSION, "status": "error" if code else "ok",
           "payload": payload, "diagnostics": diagnostics}
    data = _ENCODER.encode(doc) + "\n"
    if steps is not None:  # sort_keys puts "trace" after every other key
        try:
            data = f'{data[:-2]},"trace":{_encode_trace(steps)}}}\n'
        except (MemoryError, OverflowError):  # text * m past memory or sys.maxsize
            data = None  # handled outside, once the partial trace is freed
    if data is None:
        why = f"the trace of {steps.rounds} rounds is too large to encode"
        note = f"{why}; it is left out" if code else f"cannot write the result: {why}"
        return _write_document(args, code or EXIT_MALFORMED, None, diagnostics + [note])
    if args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(data)
            return code
        except OSError as exc:
            args.output = "-"
            return _write_document(args, EXIT_MALFORMED, None,
                                   [f"cannot write output: {exc}"])
    return _write(data) or code  # EXIT_OK is 0


def main(argv=None) -> int:
    """Run one job.  Integers of any length pass: Python's limit on int/str
    conversion, where it has one, is lifted for the call and then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    args = _STDOUT
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        doc, infile = _read_job(args)
        payload, steps = args.handler(doc, args, infile)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
        return _write_document(args, code, None, [str(exc)], getattr(exc, "steps", None))
    return _write_document(args, EXIT_OK, payload, [], steps if args.trace else None)
