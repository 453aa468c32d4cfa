"""Command-line front end.

Subcommands map one-to-one onto the library: ``smooth`` writes posterior
state probabilities, ``bounds`` a JSON report of every bound and benchmark
for a single model, ``sweep-eta`` and ``sweep-horizon`` CSV grids,
``wac-dist`` Monte-Carlo draws of the cheating loss, and ``copulas`` the
three benchmark couplings.  Options may come from a JSON config file via
``--config``; explicit flags win over config values.  A path file
(``@file``) of plain digits is read by numpy, other text token by token;
the ``smooth`` CSV is written in blocks from its distinct rows.  Numbers
are written with 12 significant digits and reruns with identical inputs
produce byte-identical files.

Exit codes: 0 success, 2 bad flags or config or a run too large for the
available memory, 3 infeasible constraint set, 4 numerical failure (for
example an impossible observation path).
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from casino_ewac.engine import (InfeasibleMaskError, _bounds_report,
                                _copulas, _greedy_stacks, _path_objective,
                                copula_pmf, cs_mask, ewac_bounds, naive_ewac,
                                pm_mask)
from casino_ewac.hmm import (HmmModel, ZeroLikelihoodError, _smoothed_rows,
                             canonical_model)
from casino_ewac.paths import PATH_1, PATH_2
from casino_ewac.sweeps import (ETA_SWEEP_COLUMNS, HORIZON_SWEEP_COLUMNS,
                                default_horizon_grid, eta_sweep, horizon_sweep,
                                sample_wac)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

_THETA_KINDS = ("lb", "ub", "independence", "comonotonic", "countermonotonic")
_CONSTRAINT_SETS = ("none", "pm", "cs")

log = logging.getLogger("casino_ewac")

__all__ = ["PATH_1", "PATH_2", "main", "entry_point"]


def _json_ready(obj):
    if obj is None:
        return None
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
    """Write the strings ``chunks`` to the file ``out``, None for stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.writelines(chunks)


def _csv(header, columns=None, rows=None):
    """CSV text: the header, then one line per position of the columns.

    Each column is a sequence of Python numbers, as ``tolist()`` gives, and
    is typed by its first value: integers print in full and floats with 12
    significant digits.  ``rows`` of sweep records stand in for the
    columns: column ``name`` holds each row's attribute ``name``.  One
    ``%`` template formats each line.
    """
    if rows is not None:
        columns = [[getattr(row, name) for row in rows] for name in header]
    lines = [",".join(header)]
    if len(columns[0]):
        template = ",".join("%d" if type(col[0]) is int else "%.12g"
                            for col in columns)
        lines += [template % row for row in zip(*columns)]
    return "\n".join(lines) + "\n"


_CSV_BLOCK = 1 << 16


def _numbered_csv(header, rows, index):
    """CSV text of the table rows[index], numbered from 1, in blocks of
    2^16 lines, numbers with 12 significant digits.  A block formats the
    rows between its least and greatest index once each, as ",x,...\n"
    suffixes (the K + 1 rows of an i.i.d. smoothed table, or a Markov
    table's rows of the block), and joins those it picks with the line
    numbers; the text equals ``_csv``'s."""
    template = ",%.12g" * rows.shape[1] + "\n"
    yield ",".join(header) + "\n"
    for start in range(0, index.size, _CSV_BLOCK):
        at = index[start:start + _CSV_BLOCK]
        low = int(at.min())
        span = rows[low:int(at.max()) + 1].T.tolist()
        suffixes = np.array(list(map(template.__mod__, zip(*span))),
                            dtype=object)
        parts = [None] * (2 * at.size)
        parts[::2] = map(str, range(start + 1, start + at.size + 1))
        parts[1::2] = suffixes[at - low].tolist()
        yield "".join(parts)


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
    if spec == "builtin:1":
        return list(PATH_1)
    if spec == "builtin:2":
        return list(PATH_2)
    if spec.startswith("builtin:"):
        raise ValueError(f"unknown builtin path {spec!r}; use builtin:1 or builtin:2")
    source = "observation path"
    if spec.startswith("@"):
        source = f"observation path file {spec[1:]!r}"
        with open(spec[1:]) as fh:
            spec = fh.read().replace("\n", ",")
    spec = spec.replace(" ", "")
    if (spec.isascii() and spec.strip(",")
            and not spec.encode().translate(None, b"0123456789,")):
        # Digits and commas only: numpy reads the runs of digits, and a
        # token past int64, which it saturates, goes to the tokenizer.
        faces = np.fromstring(spec.replace(",", " "), np.int64, sep=" ")
        if faces.max() < np.iinfo(np.int64).max:
            return faces
    tokens = [tok for tok in spec.split(",") if tok]
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


def _parse_grid(spec, key, cast=float):
    if isinstance(spec, str):
        spec = [tok for tok in spec.split(",") if tok]
    elif not isinstance(spec, (list, tuple)):
        spec = [spec]
    return [_number(v, key, cast) for v in spec]


# Config keys each subcommand accepts (besides those shared by all).
_COMMON_KEYS = {"out"}
_COMMAND_KEYS = {
    "smooth": {"eta", "model", "path"},
    "bounds": {"eta", "model", "path"},
    "sweep-eta": {"path", "grid"},
    "sweep-horizon": {"eta", "seed", "t_grid", "t_min", "t_max", "t_points"},
    "wac-dist": {"eta", "model", "path", "theta", "constraints", "samples",
                 "seed"},
    "copulas": {"eta", "model"},
}


def _load_config(path, command):
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
    allowed = _COMMAND_KEYS[command] | _COMMON_KEYS
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ValueError(
            f"config {path}: unknown field {unknown[0]!r} for {command!r} "
            f"(allowed: {', '.join(sorted(allowed))})")
    return config


def _option(args, config, key, default=None, cast=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key, default)
    return value if cast is None else _number(value, key, cast)


def _resolve_model(args, config):
    eta = _option(args, config, "eta")
    spec = config.get("model")
    if (eta is None) == (spec is None):
        raise ValueError(
            "specify the model exactly one way: --eta (or config 'eta') for "
            "the canonical casino, or a config 'model' object")
    if eta is not None:
        return canonical_model(_number(eta, "eta"))
    for key in ("p", "Q", "E", "w"):
        if key not in spec:
            raise ValueError(f"config model is missing field {key!r}")
    return HmmModel(spec["p"], spec["Q"], spec["E"], spec["w"])


def _cmd_smooth(args, config):
    model = _resolve_model(args, config)
    obs = _parse_path(_option(args, config, "path", "builtin:1"))
    rows, index = _smoothed_rows(model, obs)
    _write_text(_option(args, config, "out"),
                _numbered_csv(("t", "delta_fair", "delta_biased"), rows,
                              index))
    return EXIT_OK


def _cmd_bounds(args, config):
    model = _resolve_model(args, config)
    obs = _parse_path(_option(args, config, "path", "builtin:1"))
    objective, _ = _path_objective(model, obs)
    mask = None
    try:
        mask = cs_mask(model.emission)
    except ValueError:
        log.info("fair die is not uniform; skipping the cs bounds")
    plain, report = _bounds_report(objective, _copulas(model),
                                   _greedy_stacks(*model.emission), mask)
    report.update(naive=naive_ewac(model, obs), theta_lb=plain.theta_lb,
                  theta_ub=plain.theta_ub)
    _write_text(_option(args, config, "out"),
                [json.dumps(_json_ready(report), indent=2,
                            sort_keys=True) + "\n"])
    return EXIT_OK


def _cmd_sweep_eta(args, config):
    obs = _parse_path(_option(args, config, "path", "builtin:1"))
    grid = _option(args, config, "grid")
    rows = eta_sweep(obs, None if grid is None else _parse_grid(grid, "grid"))
    _write_text(_option(args, config, "out"),
                [_csv(ETA_SWEEP_COLUMNS, rows=rows)])
    return EXIT_OK


def _cmd_sweep_horizon(args, config):
    eta = _option(args, config, "eta")
    if eta is None:
        raise ValueError("sweep-horizon needs --eta (or config 'eta')")
    t_grid = _option(args, config, "t_grid")
    if t_grid is not None:
        t_grid = _parse_grid(t_grid, "t_grid", int)
    else:
        t_grid = default_horizon_grid(
            _option(args, config, "t_min", 10, int),
            _option(args, config, "t_max", 100_000, int),
            _option(args, config, "t_points", 25, int))
    rows = horizon_sweep(_number(eta, "eta"), t_grid,
                         _option(args, config, "seed", 0, int))
    _write_text(_option(args, config, "out"),
                [_csv(HORIZON_SWEEP_COLUMNS, rows=rows)])
    return EXIT_OK


def _cmd_wac_dist(args, config):
    model = _resolve_model(args, config)
    obs = _parse_path(_option(args, config, "path", "builtin:1"))
    kind = _option(args, config, "theta", "comonotonic")
    if kind not in _THETA_KINDS:
        raise ValueError(f"theta must be one of {_THETA_KINDS}, got {kind!r}")
    constraints = _option(args, config, "constraints", "none")
    if constraints not in _CONSTRAINT_SETS:
        raise ValueError(
            f"constraints must be one of {_CONSTRAINT_SETS}, got {constraints!r}")
    alpha = None  # a Markov chain's forward filter, once computed
    if kind in ("lb", "ub"):
        objective, alpha = _path_objective(model, obs)
        mask = frozenset()
        if constraints == "pm":
            mask = pm_mask(model.num_symbols)
        elif constraints == "cs":
            mask = cs_mask(model.emission)
        pair = ewac_bounds(objective, mask, tag=constraints)
        theta = pair.theta_lb if kind == "lb" else pair.theta_ub
    else:
        theta = copula_pmf(model, kind)
    wac = sample_wac(model, obs, theta,
                     _option(args, config, "samples", 10_000, int),
                     _option(args, config, "seed", 0, int),
                     filtered=alpha).wac
    _write_text(_option(args, config, "out"),
                [_csv(("sample", "wac"),
                      (range(1, wac.size + 1), wac.tolist()))])
    return EXIT_OK


def _cmd_copulas(args, config):
    model = _resolve_model(args, config)
    _write_text(_option(args, config, "out"),
                [json.dumps(_json_ready(_copulas(model)), indent=2,
                            sort_keys=True) + "\n"])
    return EXIT_OK


_DISPATCH = {
    "smooth": _cmd_smooth,
    "bounds": _cmd_bounds,
    "sweep-eta": _cmd_sweep_eta,
    "sweep-horizon": _cmd_sweep_horizon,
    "wac-dist": _cmd_wac_dist,
    "copulas": _cmd_copulas,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="casino-ewac",
        description="Bounds on the expected winnings attributable to cheating "
                    "in the two-state casino model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, model=False, path=False, seed=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--out", help="output file (default: stdout)")
        if model:
            p.add_argument("--eta", type=float,
                           help="fairness level of the canonical casino")
        if path:
            p.add_argument("--path",
                           help="observation path: builtin:1, builtin:2, "
                                "comma-separated faces, or @file")
        if seed:
            p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        return p

    add("smooth", "posterior state probabilities per period",
        model=True, path=True)
    add("bounds", "all bounds and benchmarks for one model and path",
        model=True, path=True)

    p = add("sweep-eta", "bounds across fairness levels", path=True)
    p.add_argument("--grid", help="comma-separated fairness levels")

    p = add("sweep-horizon", "per-period bounds along one simulated path",
        model=True, seed=True)
    p.add_argument("--t-grid", help="comma-separated horizons")
    p.add_argument("--t-min", type=int, help="smallest horizon (default 10)")
    p.add_argument("--t-max", type=int, help="largest horizon (default 100000)")
    p.add_argument("--t-points", type=int,
                   help="points in the geometric grid (default 25)")

    p = add("wac-dist", "Monte-Carlo draws of the cheating loss",
            model=True, path=True, seed=True)
    p.add_argument("--theta", choices=_THETA_KINDS,
                   help="which joint PMF to sample under (default comonotonic)")
    p.add_argument("--constraints", choices=_CONSTRAINT_SETS,
                   help="constraint set for the lb/ub optimisers (default none)")
    p.add_argument("--samples", type=int, help="number of draws (default 10000)")

    add("copulas", "the three benchmark joint PMFs", model=True)
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
        return _DISPATCH[args.command](args, config)
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
