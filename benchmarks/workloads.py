"""The benchmark's workloads: inputs made from a seed, one round of CLI jobs.

Each workload function generates its inputs under ``workdir`` (that is the
set-up the benchmark times) and returns the jobs of one round.  A job is one
``casino_ewac.cli.main`` call with ``--out`` pointing into ``workdir``; its
``periods`` count comes from the inputs, not from the work the program
does, so an algorithm that smooths fewer periods still gets the same count.

Why these workloads:

* ``short-paths``: the 30-roll builtin paths through ``sweep-eta``,
  ``bounds`` and ``wac-dist``.  Bound by the transportation LP; smoothing
  is a small share.
* ``long-path``: one simulated 10^5-period path through ``bounds``,
  ``smooth`` and ``wac-dist``, plus a ``sweep-horizon`` up to 10^4
  periods.  Bound by smoothing and WAC sampling, with the largest memory
  footprint; the LP is negligible.
* ``horizon``: one ``sweep-horizon`` up to 10^5 periods.  Bound by
  re-smoothing nested prefixes; the LP is a small share.  Not in
  BENCHMARK.json: its pure-interpreter loop amplifies the host's swings in
  speed, so its run-to-run spread exceeds the bounds there; run it with
  ``--workload horizon`` or report.py.
"""

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

ETA = 0.5
BOUNDS_ETAS = (0.2, 0.5, 0.8)
DEFAULT_ETA_GRID = tuple(i / 100 for i in range(1, 100))


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``eta_grid`` None means the CLI's default 99 levels."""

    eta_grid: tuple | None
    short_samples: int
    t_max: int
    long_periods: int
    long_samples: int
    long_t_max: int


FULL = Sizes(eta_grid=None, short_samples=10_000, t_max=100_000,
             long_periods=100_000, long_samples=50, long_t_max=10_000)
SMOKE = Sizes(eta_grid=(0.1, 0.5, 0.9), short_samples=500, t_max=2_000,
              long_periods=2_000, long_samples=20, long_t_max=500)


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``verify`` raises checks.CheckFailed on bad output."""

    key: str
    command: str
    argv: tuple
    out: str
    periods: int
    verify: Callable[[bytes], None]


def _job(workdir, key, command, args, periods, verify):
    out = str(workdir / f"{key}.out")
    return Job(key, command, (command, *args, "--out", out), out, periods, verify)


def short_paths(program, workdir, seed, sizes):
    rng = random.Random(seed)
    grid = sizes.eta_grid or DEFAULT_ETA_GRID
    grid_args = () if sizes.eta_grid is None else (
        "--grid", ",".join(map(str, sizes.eta_grid)))
    jobs = []
    for name, faces in (("builtin:1", program.PATH_1),
                        ("builtin:2", program.PATH_2)):
        tag = name.replace(":", "")
        t = len(faces)
        jobs.append(_job(workdir, f"sweep-eta-{tag}", "sweep-eta",
                         ("--path", name, *grid_args), len(grid) * t,
                         partial(checks.check_eta_sweep, faces=faces, grid=grid)))
        for eta in BOUNDS_ETAS:
            jobs.append(_job(workdir, f"bounds-{tag}-{eta}", "bounds",
                             ("--eta", str(eta), "--path", name), t,
                             partial(checks.check_bounds, eta=eta, faces=faces)))
        jobs.append(_job(
            workdir, f"wac-dist-{tag}", "wac-dist",
            ("--eta", str(ETA), "--path", name, "--theta", "comonotonic",
             "--samples", str(sizes.short_samples),
             "--seed", str(rng.randrange(2**31))),
            t, partial(checks.check_wac, eta=ETA, faces=faces,
                       samples=sizes.short_samples)))
    jobs.append(_job(workdir, "copulas", "copulas", ("--eta", str(ETA)), 0,
                     checks.check_copulas))
    return jobs


def _horizon_job(program, workdir, seed, t_max):
    grid = checks.horizon_grid(t_max)
    path = []

    def verify(data):
        # The CLI simulates its own path from --seed; reproduce it once.
        if not path:
            path.append(program.simulate(program.canonical_model(ETA),
                                         t_max, seed)[1])
        checks.check_horizon_sweep(data, ETA, path[0], grid)

    return _job(workdir, "sweep-horizon", "sweep-horizon",
                ("--eta", str(ETA), "--t-max", str(t_max), "--seed", str(seed)),
                int(grid.sum()), verify)


def horizon(program, workdir, seed, sizes):
    return [_horizon_job(program, workdir, seed, sizes.t_max)]


def long_path(program, workdir, seed, sizes):
    _, faces = program.simulate(program.canonical_model(ETA),
                                sizes.long_periods, seed)
    path_file = workdir / "path.txt"
    path_file.write_text("\n".join(map(str, faces.tolist())) + "\n")
    spec = f"@{path_file}"
    t = int(faces.size)
    wac_seed = random.Random(seed).randrange(2**31)
    return [
        _job(workdir, "bounds", "bounds", ("--eta", str(ETA), "--path", spec), t,
             partial(checks.check_bounds, eta=ETA, faces=faces)),
        _job(workdir, "smooth", "smooth", ("--eta", str(ETA), "--path", spec), t,
             partial(checks.check_smooth, eta=ETA, faces=faces)),
        _job(workdir, "wac-dist", "wac-dist",
             ("--eta", str(ETA), "--path", spec, "--theta", "comonotonic",
              "--samples", str(sizes.long_samples), "--seed", str(wac_seed)),
             t, partial(checks.check_wac, eta=ETA, faces=faces,
                        samples=sizes.long_samples)),
        _horizon_job(program, workdir, seed, sizes.long_t_max),
    ]


WORKLOADS = {"short-paths": short_paths, "horizon": horizon,
             "long-path": long_path}
