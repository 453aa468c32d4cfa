"""Command-line front end.

Subcommands map one-to-one onto the library: ``smooth`` writes posterior
state probabilities, ``bounds`` a JSON report of every bound and benchmark
for a single model, ``sweep-eta`` and ``sweep-horizon`` CSV grids,
``wac-dist`` Monte-Carlo draws of the cheating loss, and ``copulas`` the
three benchmark couplings.  Each option is declared once, in ``_OPTIONS``:
its help, its default (which ``--help`` prints) and its type.  Options may
come from a JSON config file via ``--config``; explicit flags win over
config values, and every config value is checked when the config is read,
even for an option the command will not use.  A path of digits (inline, or
an ``@file`` read in blocks of 1 MB) is parsed by numpy, other text token
by token, into one array, uint8 when every value lies in 0..255, else
int64; a command counts its faces once.  Output is written from arrays,
with no Python object per row: the JSON of ``bounds`` and ``copulas`` by
one ``%`` template, the sweep CSVs by one ``%`` per block of rows, and the
``smooth`` and ``wac-dist`` CSVs as bytes by numpy from their distinct
rows (the smoothed rows, the losses), in blocks of 10^4 lines
that format their rows once and number them from a table of 4-digit words.
Output is binary, to stdout as to a file; numbers have 12 significant
digits, and reruns with identical inputs produce byte-identical files.

Exit codes: 0 success, 2 bad flags or config or a run too large for the
available memory, 3 infeasible constraint set, 4 numerical failure (for
example an impossible observation path).
"""

import argparse
import functools
import io
import json
import logging
import os
import stat
import sys

import numpy as np

from casino_ewac.engine import (REPORT_COLUMNS, InfeasibleMaskError,
                                _path_objective, _report_values, copula_pmf,
                                cs_mask, ewac_bounds, pm_mask)
from casino_ewac.hmm import (HmmModel, ZeroLikelihoodError, _face_counts,
                             _smoothed_rows, _symbol_indices, canonical_model)
from casino_ewac.paths import PATH_1, PATH_2
from casino_ewac.sweeps import (_wac_dist, default_horizon_grid, eta_sweep,
                                horizon_sweep)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

__all__ = ["PATH_1", "PATH_2", "main", "entry_point"]


def _json_text(report):
    """``json.dumps(report, indent=2, sort_keys=True)`` and a line end for
    a dict of floats and (K, K) arrays, numbers first rounded to 12
    significant digits by one ``%``: one ``%`` template of the document
    takes their ``repr``, as ``json`` prints floats but NaN and Infinity."""
    lines, flat = [], []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, np.ndarray):
            row = "[\n" + ",\n".join(["      %s"] * len(value)) + "\n    ]"
            lines.append(f'  "{key}": [\n'
                         + ",\n".join(["    " + row] * len(value)) + "\n  ]")
            flat += value.ravel().tolist()
        else:
            lines.append(f'  "{key}": %s')
            flat.append(value)
    rounded = ("%.12g " * len(flat) % tuple(flat)).split()
    words = [*map(repr, map(float, rounded))]
    return ("{\n" + ",\n".join(lines) + "\n}\n") % tuple(
        map(_JSON_WORDS.get, words, words))


def _write_text(out, chunks):
    """Write ``chunks``, strings or bytes-like ASCII, to the file ``out``
    in binary mode; None for stdout, through its binary buffer if it has
    one (an ``io.StringIO`` in its place gets the text)."""
    if out is None and not hasattr(sys.stdout, "buffer"):
        sys.stdout.writelines(c if isinstance(c, str) else bytes(c).decode()
                              for c in chunks)
        return
    chunks = (c.encode() if isinstance(c, str) else c for c in chunks)
    if out is None:
        sys.stdout.flush()  # text written so far goes first
        sys.stdout.buffer.writelines(chunks)
    else:
        with open(out, "wb") as fh:
            fh.writelines(chunks)


_CSV_BLOCK = 10**4  # lines or rows; a power of ten (see _numbered_csv)
_PARSE_BLOCK = 1 << 20  # bytes
# json's spelling of the floats repr writes as nan, inf and -inf.
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _table_csv(rows):
    """The CSV of a sweep's record array: its field names, then one ``%``
    per block of _CSV_BLOCK records, read as floats (a view when every
    field is one), ``%d`` for the horizon, else 12 significant digits."""
    header = rows.dtype.names
    floats = np.dtype([(name, float) for name in header])
    template = ",".join("%d" if name == "horizon" else "%.12g"
                        for name in header) + "\n"
    yield ",".join(header) + "\n"
    for start in range(0, len(rows), _CSV_BLOCK):
        block = rows[start:start + _CSV_BLOCK]
        yield template * len(block) % tuple(
            block.astype(floats, copy=False).view(float).tolist())


@functools.cache  # built by the first command that numbers lines
def _digit_words(width):
    """The (10^width, width) bytes of the words "0...0" to "9...9"."""
    grid = np.indices((10,) * width, np.uint8).reshape(width, -1)
    return np.ascontiguousarray(grid.T) + np.uint8(ord("0"))


def _numbered_csv(header, rows, index):
    """The CSV of the table rows[index], numbered from 1, numbers with 12
    significant digits, as the header's text and then one bytes-like chunk
    per block of lines; the bytes equal those of one "%d,%.12g,..." line
    per index.

    Blocks are cut before the line numbers k * _CSV_BLOCK (10^4) and the
    powers of ten: a block's numbers have one digit count d and share all
    but their last four digits.  Rows become zero-padded records, digits
    then ",x,...\n" by one ``%``: once if they fit in one block (the K + 1
    i.i.d. smoothed rows, up to 10^4 losses), as wide as the last number,
    a block taking its d digit columns by a view and its records by
    ``np.take``; else per block in line order (long Markov chains, more
    losses).  Shared digits go into the records, the last digits are one
    slice of the cached 4-digit words, and pads are dropped.
    """
    template = ",%.12g" * rows.shape[1] + "\n"
    yield ",".join(header) + "\n"
    width = len(str(_CSV_BLOCK)) - 1
    words = _digit_words(width)
    n = index.size
    edges = sorted({0, n, *range(_CSV_BLOCK - 1, n, _CSV_BLOCK),
                    *(10**d - 1 for d in range(1, width) if 10**d <= n)})
    few, records = len(rows) <= _CSV_BLOCK, None
    for start, stop in zip(edges, edges[1:]):
        at = index[start:stop]
        digits = len(str(stop))
        if records is None or not few:
            span, lead = (rows, len(str(n))) if few else (rows[at], digits)
            text = np.frombuffer((template * len(span) % tuple(
                span.ravel().tolist())).encode(), np.uint8)
            widths = np.diff(np.flatnonzero(text == ord("\n")), prepend=-1)
            size = widths.max()
            records = np.zeros((widths.size, lead + size), np.uint8)
            records[:, lead:][np.arange(size) < widths[:, None]] = text
        table = records[:, lead - digits:]
        shared = max(digits - width, 0)  # leading digits of every number
        table[:, :shared] = np.frombuffer(b"%d" % (stop // _CSV_BLOCK),
                                          np.uint8)[:shared]
        lines = np.take(table, at, axis=0) if few else table
        first = (start + 1) % _CSV_BLOCK
        item = f"V{digits - shared}"  # a number's last digits as one item
        lines[:, shared:digits].view(item)[:, 0] = words[
            first:first + at.size, width + shared - digits:].view(item)[:, 0]
        lines = lines.ravel()
        yield lines[lines != 0] if widths.min() < size else lines


def _number(value, key, cast=float):
    """A flag string or JSON config value as ``cast`` (float or int); null,
    booleans, containers and, for int, numbers with a fractional part raise
    a ValueError that names ``key``."""
    if type(value) in (str, int, float) and (
            cast is float or type(value) is not float or value.is_integer()):
        try:
            return cast(value)
        except (ValueError, OverflowError):
            pass
    kind = "an integer" if cast is int else "a number"
    raise ValueError(f"{key} must be {kind}, got {value!r}")


def _parse_path(spec):
    if isinstance(spec, (list, tuple)):
        return [_number(v, "path", int) for v in spec]
    if not isinstance(spec, str):
        raise ValueError(f"cannot read an observation path from {spec!r}")
    if spec in ("builtin:1", "builtin:2"):
        return list(PATH_1 if spec == "builtin:1" else PATH_2)
    if spec.startswith("builtin:"):
        raise ValueError(f"unknown builtin path {spec!r}; use builtin:1 or builtin:2")
    source, faces = "observation path", None
    if spec.startswith("@"):
        source = f"observation path file {spec[1:]!r}"
        with open(spec[1:], "rb") as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh = io.BytesIO(fh.read())  # a pipe can be read only once
            faces = _digit_runs(fh)
            if faces is None:
                fh.seek(0)
                spec = io.TextIOWrapper(  # a bad byte is a bad token
                    fh, errors="backslashreplace").read().replace("\n", ",")
    elif spec.isascii() and spec.isprintable():  # inline, no line ends
        faces = _digit_runs(io.BytesIO(spec.encode()))
    if faces is not None:
        return faces
    tokens = [tok for tok in spec.replace(" ", "").split(",") if tok]
    try:
        return _narrowed(np.array(tokens, dtype=np.int64))
    except (ValueError, OverflowError):
        for position, tok in enumerate(tokens, 1):
            try:
                np.int64(tok)
            except (ValueError, OverflowError):
                raise ValueError(f"bad {source}: token {position} is "
                                 f"{tok[:20]!r}, not a 64-bit integer") from None
        raise


def _narrowed(faces):
    """``faces`` as uint8 if there are some and all lie in 0..255, else int64."""
    small = faces.size and faces.min() >= 0 and faces.max() <= 255
    return faces.astype(np.uint8 if small else np.int64, copy=False)


def _digit_runs(fh):
    """The numbers in the binary file ``fh`` as one ``_narrowed`` array,
    parsed by numpy in blocks of about 1 MB cut at a separator into one
    array sized from the file; None, for the tokenizer, on a byte other
    than a digit, a space (dropped) or a separator, on a number past
    int64, or on 19 bytes or more after a block's last separator."""
    faces, n, carry = np.empty(fh.seek(0, 2) // 2 + 1, np.uint8), 0, b"\n"
    fh.seek(0)
    while True:  # each block starts and ends with a separator
        chunk = fh.read(_PARSE_BLOCK)
        block = (carry + (chunk or b"\n")).replace(b" ", b"")
        cut = max(map(block.rfind, b"\n,\r"))
        block, carry = block[:cut + 1], block[cut:]
        if len(carry) > 19:  # so a file without separators stays linear
            return None
        raw = np.frombuffer(block, np.uint8)
        text = raw - 48  # digits to 0-9
        ndigit = known = np.count_nonzero(text < 10)
        for sep in b"\n,\r":  # the rest must be separators: count to full
            known += known < raw.size and np.count_nonzero(raw == sep)
        if known < raw.size:
            return None
        run = text[1::2][:ndigit].copy()  # one digit each, if all are digits
        if ndigit and (2 * ndigit + 1 != raw.size or not (run < 10).all()):
            run = np.fromstring(block.replace(b",", b" "), np.int64, sep=" ")
            if run.max() == np.iinfo(np.int64).max:  # numpy saturates there:
                return None  # the tokenizer names the token
            run = _narrowed(run)
        if n + run.size > faces.size or run.itemsize > faces.itemsize:
            faces = np.concatenate([faces[:n], np.empty(  # wider, or longer
                max(faces.size - n, run.size), run.dtype)])
        faces[n:n + run.size] = run
        n += run.size
        if not chunk:
            return _narrowed(faces[:n])


def _cast(key, value):
    """A flag's or a config's ``value`` as option ``key``'s type, raising a
    ValueError that names the key."""
    kind = _OPTIONS[key][2]
    if kind in (float, int):
        value = _number(value, key, kind)
        if key != "seed" or value >= 0:  # numpy's error names no option
            return value
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    if isinstance(kind, list):  # a comma-separated flag or a config list
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok]
        return [_number(v, key, kind[0]) for v in
                (value if isinstance(value, (list, tuple)) else [value])]
    if isinstance(kind, tuple):  # choices
        if value not in kind:
            raise ValueError(f"{key} must be one of {kind}, got {value!r}")
        return value
    if kind is str and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return kind(value)


def _load_config(path, command):
    """The config file's values, each cast by its option's type."""
    if path is None:
        return {}
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path}: line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path}: expected a JSON object at top level")
    _, options, takes_model, _ = _COMMANDS[command]
    allowed = {"out", *options, *(["model"] if takes_model else [])}
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ValueError(
            f"config {path}: unknown field {unknown[0]!r} for {command!r} "
            f"(allowed: {', '.join(sorted(allowed))})")
    if not isinstance(model := config.get("model", {}), dict):
        raise ValueError(f"model must be a JSON object, got {model!r}")
    return {key: value if key == "model" else _cast(key, value)
            for key, value in config.items()}


def _model_and_faces(opts):
    """The run's model, and its path's 0-based faces and counts if any."""
    eta, spec = opts["eta"], opts["model"]
    if (eta is None) == (spec is None):
        raise ValueError(
            "specify the model exactly one way: --eta (or config 'eta') for "
            "the canonical casino, or a config 'model' object")
    if eta is None:
        for key in ("p", "Q", "E", "w"):
            if key not in spec:
                raise ValueError(f"config model is missing field {key!r}")
        model = HmmModel(spec["p"], spec["Q"], spec["E"], spec["w"])
    else:
        model = canonical_model(eta)
    if "path" not in opts:
        return model, None, None
    o = _symbol_indices(model, opts["path"], in_place=True)
    return model, o, _face_counts(o, model.num_symbols)


def _cmd_smooth(opts):
    model, o, counts = _model_and_faces(opts)
    return _numbered_csv(("t", "delta_fair", "delta_biased"),
                         *_smoothed_rows(model, o, counts))


def _cmd_bounds(opts):
    model, o, counts = _model_and_faces(opts)
    objective, _ = _path_objective(model, o, counts)
    values, tables = _report_values(model, objective, counts)
    return [_json_text(dict(zip(REPORT_COLUMNS, values[0].tolist()),
                            theta_lb=tables[0], theta_ub=tables[1]))]


def _cmd_sweep_eta(opts):
    return _table_csv(eta_sweep(opts["path"], opts["grid"]))


def _cmd_sweep_horizon(opts):
    if opts["eta"] is None:
        raise ValueError("sweep-horizon needs --eta (or config 'eta')")
    t_grid = opts["t_grid"]
    if t_grid is None:
        t_grid = default_horizon_grid(opts["t_min"], opts["t_max"],
                                      opts["t_points"])
    return _table_csv(horizon_sweep(opts["eta"], t_grid, opts["seed"]))


def _cmd_wac_dist(opts):
    model, o, counts = _model_and_faces(opts)
    kind, constraints = opts["theta"], opts["constraints"]
    filtered = None  # the posteriors or forward filter, once computed
    if kind in ("lb", "ub"):
        objective, filtered = _path_objective(model, o, counts)
        mask = (pm_mask(model.num_symbols) if constraints == "pm"
                else cs_mask(model.emission) if constraints == "cs"
                else frozenset())
        pair = ewac_bounds(objective, mask, tag=constraints)
        theta = pair.theta_lb if kind == "lb" else pair.theta_ub
    else:
        theta = copula_pmf(model, kind)
    losses, index = _wac_dist(model, o, counts, theta, opts["samples"],
                              opts["seed"], filtered)
    return _numbered_csv(("sample", "wac"), losses[:, None], index)


def _cmd_copulas(opts):
    model = _model_and_faces(opts)[0]
    return [_json_text({kind: copula_pmf(model, kind) for kind in (
        "independence", "comonotonic", "countermonotonic")})]


# sweep-horizon's grid defaults are the library's, as horizon_sweep uses.
_T_MIN, _T_MAX, _T_POINTS = default_horizon_grid.__defaults__

# Each option once, as (help, default, type).  The type casts flag and
# config values alike (see _cast): float or int, [float] or [int] for a
# comma-separated list, a tuple of choices, str, or _parse_path.  A
# default other than None is in the help text.
_OPTIONS = {
    "out": ("output file (default: stdout)", None, str),
    "eta": ("fairness level of the canonical casino", None, float),
    "path": ("observation path: builtin:1, builtin:2, comma-separated "
             "faces, or @file", "builtin:1", _parse_path),
    "seed": ("RNG seed", 0, int),
    "grid": ("comma-separated fairness levels", None, [float]),
    "t_grid": ("comma-separated horizons", None, [int]),
    "t_min": ("smallest horizon", _T_MIN, int),
    "t_max": ("largest horizon", _T_MAX, int),
    "t_points": ("points in the geometric grid", _T_POINTS, int),
    "theta": ("which joint PMF to sample under", "comonotonic",
              ("lb", "ub", "independence", "comonotonic", "countermonotonic")),
    "constraints": ("constraint set for the lb/ub optimisers", "none",
                    ("none", "pm", "cs")),
    "samples": ("number of draws", 10_000, int),
}

# Each subcommand once, as (help, options besides out, whether a config
# may give its model, handler).
_COMMANDS = {
    "smooth": ("posterior state probabilities per period",
               ("eta", "path"), True, _cmd_smooth),
    "bounds": ("all bounds and benchmarks for one model and path",
               ("eta", "path"), True, _cmd_bounds),
    "sweep-eta": ("bounds across fairness levels",
                  ("path", "grid"), False, _cmd_sweep_eta),
    "sweep-horizon": ("per-period bounds along one simulated path",
                      ("eta", "seed", "t_grid", "t_min", "t_max",
                       "t_points"), False, _cmd_sweep_horizon),
    "wac-dist": ("Monte-Carlo draws of the cheating loss",
                 ("eta", "path", "seed", "theta", "constraints", "samples"),
                 True, _cmd_wac_dist),
    "copulas": ("the three benchmark joint PMFs", ("eta",), True,
                _cmd_copulas),
}


@functools.cache  # one parser per process: parse_args keeps no state
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="casino-ewac",
        description="Bounds on the expected winnings attributable to cheating "
                    "in the two-state casino model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with option defaults")
        for key in ("out", *options):
            text, default, kind = _OPTIONS[key]
            if default is not None:
                text += f" (default {default})"
            p.add_argument("--" + key.replace("_", "-"), help=text,
                           type=kind if kind in (float, int) else None,
                           choices=kind if isinstance(kind, tuple) else None)
    return parser


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    level = os.environ.get("CASINO_EWAC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else int(exc.code)
    try:
        config = _load_config(args.config, args.command)
        _, options, _, handler = _COMMANDS[args.command]
        opts = {"model": None, **config}
        for key in ("out", *options):  # a flag, else the config, else default
            value = getattr(args, key)
            if value is not None or key not in config:
                value = _OPTIONS[key][1] if value is None else value
                opts[key] = None if value is None else _cast(key, value)
        _write_text(opts["out"], handler(opts))
        return EXIT_OK
    except InfeasibleMaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ZeroLikelihoodError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
