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
an ``@file`` read in blocks of 1 MB) becomes one int64 array by numpy,
other text is read token by token; CSV text is formatted in blocks.  The
``smooth`` and ``wac-dist`` CSVs are built as bytes by numpy from their
distinct rows (the smoothed rows, the distinct losses): each block formats
its rows once and gathers them after line numbers written digit by digit,
so a repeated row costs no Python object per line.  Output is written in
binary mode, to stdout as to a file.  Numbers are written with 12
significant digits and reruns with identical inputs produce byte-identical
files.

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

from casino_ewac.engine import (InfeasibleMaskError, _bounds_report,
                                _copulas, _naive, _path_objective, copula_pmf,
                                cs_mask, ewac_bounds, pm_mask)
from casino_ewac.hmm import (HmmModel, ZeroLikelihoodError, _smoothed_rows,
                             _symbol_indices, canonical_model)
from casino_ewac.paths import PATH_1, PATH_2
from casino_ewac.sweeps import (ETA_SWEEP_COLUMNS, HORIZON_SWEEP_COLUMNS,
                                _sample_wac, default_horizon_grid, eta_sweep,
                                horizon_sweep)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("casino_ewac")

__all__ = ["PATH_1", "PATH_2", "main", "entry_point"]


def _json_ready(obj):
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    return obj


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


_CSV_BLOCK = 1 << 16  # lines
_PARSE_BLOCK = 1 << 20  # bytes


def _csv(header, rows):
    """CSV text of sweep records: the header, then one line per record of
    its attributes named in the header, formatted by one ``%`` per block
    of 2^16 records.  A column is typed by its first value: integers print
    in full and floats with 12 significant digits.
    """
    text = [",".join(header) + "\n"]
    if rows:
        template = ",".join("%d" if type(getattr(rows[0], name)) is int
                            else "%.12g" for name in header) + "\n"
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            text.append(template * len(block) % tuple(
                getattr(row, name) for row in block for name in header))
    return "".join(text)


def _numbered_csv(header, rows, index):
    """The CSV of the table rows[index], numbered from 1, numbers with 12
    significant digits, as the header's text and then one bytes-like chunk
    per block of lines; the bytes equal those of one "%d,%.12g,..." line
    per index.

    Blocks hold at most 2^16 lines and are also cut at each power of ten,
    so the line numbers of a block have one digit count d.  A block formats
    the rows between its least and greatest index once each, by one ``%``,
    as ",x,...\n" suffixes (the K + 1 rows of an i.i.d. smoothed table, or
    a Markov table's rows of the block), split into a (R, W) byte table
    padded with zero bytes; when those rows outnumber its lines (distinct
    losses spread over every block), the rows of its lines in line order
    instead.  Its lines are the rows of an (n, d + W) byte matrix: the
    digits of the line numbers by division by ten, then the suffixes
    gathered by index, with the pad bytes dropped if there are any.
    """
    template = ",%.12g" * rows.shape[1] + "\n"
    yield ",".join(header) + "\n"
    cuts = {*range(0, index.size, _CSV_BLOCK),
            *(10**d - 1 for d in range(1, len(str(index.size))))}
    edges = sorted(cuts) + [index.size]
    for start, stop in zip(edges, edges[1:]):
        at = index[start:stop]
        low = int(at.min())
        span = rows[low:int(at.max()) + 1]
        at = at - low
        if len(span) > at.size:  # format the block's rows in line order
            span, at = span[at], np.arange(at.size)
        text = np.frombuffer((template * len(span) % tuple(
            span.ravel().tolist())).encode(), np.uint8)
        widths = np.diff(np.flatnonzero(text == ord("\n")), prepend=-1)
        width = widths.max()
        widths = widths.astype(np.min_scalar_type(width))  # a faster mask
        table = np.zeros((span.shape[0], width), np.uint8)
        table[np.arange(width, dtype=widths.dtype) < widths[:, None]] = text
        digits = len(str(stop))
        lines = np.empty((at.size, digits + table.shape[1]), np.uint8)
        number = np.arange(start + 1, stop + 1, dtype=np.min_scalar_type(stop))
        for column in range(digits - 1, -1, -1):
            tens = number // 10
            lines[:, column] = number - 10 * tens + ord("0")
            number = tens
        suffix = f"V{table.shape[1]}"  # a row as one item: a faster gather
        lines[:, digits:].view(suffix)[:, 0] = table.view(suffix)[at, 0]
        lines = lines.ravel()
        yield lines[lines != 0] if widths.min() < width else lines


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
                spec = io.TextIOWrapper(fh).read().replace("\n", ",")
    elif spec.isascii() and spec.isprintable():  # inline, no line ends
        faces = _digit_runs(io.BytesIO(spec.encode()))
    if faces is not None:
        return faces
    tokens = [tok for tok in spec.replace(" ", "").split(",") if tok]
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        for position, tok in enumerate(tokens, 1):
            try:
                np.int64(tok)
            except (ValueError, OverflowError):
                raise ValueError(f"bad {source}: token {position} is "
                                 f"{tok[:20]!r}, not a 64-bit integer") from None
        raise


def _digit_runs(fh):
    """The numbers in the seekable binary file ``fh`` as one int64 array,
    parsed by numpy in blocks of about 1 MB cut at a separator; None, for
    the tokenizer, on a byte other than a digit, a space (dropped) or a
    separator, on a number past int64, or on 19 bytes or more after a
    block's last separator."""
    faces = np.empty((fh.seek(0, os.SEEK_END) + 1) // 2, np.int64)
    fh.seek(0)
    n, carry = 0, b","  # each block starts and ends with a separator
    while True:
        chunk = fh.read(_PARSE_BLOCK)
        block = (carry + (chunk or b",")).replace(b" ", b"")
        cut = max(map(block.rfind, b",\n\r"))
        block, carry = block[:cut + 1], block[cut:]
        if len(carry) > 19:  # so a file without separators stays linear
            return None
        raw = np.frombuffer(block, np.uint8)
        text = raw - 48  # digits to 0-9
        digit = text < 10
        ndigit = np.count_nonzero(digit)  # the rest must be separators
        seps = sum(np.count_nonzero(raw == c) for c in b",\n\r")
        if ndigit + seps < raw.size:
            return None
        if not ndigit or 2 * ndigit + 1 == raw.size and digit[1::2].all():
            runs = text[1::2][:ndigit]  # no token, or one digit each
        else:  # numpy saturates past int64: the tokenizer names the token
            runs = np.fromstring(block.replace(b",", b" "), np.int64, sep=" ")
            if runs.max() == np.iinfo(np.int64).max:
                return None
        if n + runs.size > faces.size:  # the file grew
            return None
        faces[n:n + runs.size] = runs
        n += runs.size
        if not chunk:
            return faces[:n]


def _cast(key, value):
    """A flag's or a config's ``value`` as option ``key``'s type, raising a
    ValueError that names the key."""
    kind = _OPTIONS[key][2]
    if kind in (float, int):
        return _number(value, key, kind)
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
    """The run's model, and its path as 0-based faces if it takes one."""
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
        return model, None
    return model, _symbol_indices(model, opts["path"], in_place=True)


def _cmd_smooth(opts):
    model, o = _model_and_faces(opts)
    return _numbered_csv(("t", "delta_fair", "delta_biased"),
                         *_smoothed_rows(model, o))


def _cmd_bounds(opts):
    model, o = _model_and_faces(opts)
    objective, _ = _path_objective(model, o)
    mask = None
    try:
        mask = cs_mask(model.emission)
    except ValueError:
        log.info("fair die is not uniform; skipping the cs bounds")
    plain, report = _bounds_report(objective, model, mask)
    counts = np.bincount(o, minlength=model.num_symbols)
    report.update(naive=_naive(model, counts), theta_lb=plain.theta_lb,
                  theta_ub=plain.theta_ub)
    return [json.dumps(_json_ready(report), indent=2, sort_keys=True) + "\n"]


def _cmd_sweep_eta(opts):
    return [_csv(ETA_SWEEP_COLUMNS, eta_sweep(opts["path"], opts["grid"]))]


def _cmd_sweep_horizon(opts):
    if opts["eta"] is None:
        raise ValueError("sweep-horizon needs --eta (or config 'eta')")
    t_grid = opts["t_grid"]
    if t_grid is None:
        t_grid = default_horizon_grid(opts["t_min"], opts["t_max"],
                                      opts["t_points"])
    return [_csv(HORIZON_SWEEP_COLUMNS,
                 horizon_sweep(opts["eta"], t_grid, opts["seed"]))]


def _cmd_wac_dist(opts):
    model, o = _model_and_faces(opts)
    kind, constraints = opts["theta"], opts["constraints"]
    alpha = None  # a Markov chain's forward filter, once computed
    if kind in ("lb", "ub"):
        objective, alpha = _path_objective(model, o)
        mask = (pm_mask(model.num_symbols) if constraints == "pm"
                else cs_mask(model.emission) if constraints == "cs"
                else frozenset())
        pair = ewac_bounds(objective, mask, tag=constraints)
        theta = pair.theta_lb if kind == "lb" else pair.theta_ub
    else:
        theta = copula_pmf(model, kind)
    wac = _sample_wac(model, o, theta, opts["samples"], opts["seed"],
                      alpha).wac
    # Distinct by bit pattern, so -0 and 0 print apart.
    losses, index = np.unique(wac.view(np.int64), return_inverse=True)
    return _numbered_csv(("sample", "wac"), losses.view(np.float64)[:, None],
                         index)


def _cmd_copulas(opts):
    model, _ = _model_and_faces(opts)
    return [json.dumps(_json_ready(_copulas(model)), indent=2,
                       sort_keys=True) + "\n"]


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
    "t_min": ("smallest horizon", 10, int),
    "t_max": ("largest horizon", 100_000, int),
    "t_points": ("points in the geometric grid", 25, int),
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
