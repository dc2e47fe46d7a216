"""Seeded request streams for the benchmark workloads.

Each workload is an endless, deterministic stream of CLI requests built
from the workload seed alone: the same seed always yields the same
requests in the same order.  A request carries its argv (the arguments
after ``python -m bellmodel``) and the parameters the output checks need,
so the checks never ask the program under test what it was asked.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

#: (a0, a1, b0, b1) in radians: the configuration that maximizes CHSH.
TSIRELSON = (0.0, math.pi / 4, 5 * math.pi / 8, 7 * math.pi / 8)

#: Default settings of the `bell` subcommand: (a1, b0) never occurs.
BELL_DEFAULT_SETTINGS = (1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0)

UNIFORM = (0.25, 0.25, 0.25, 0.25)

SAMPLE_CSV_N = 1_000_000
SAMPLE_SUMMARY_N = 10_000_000

#: Latent grid of the at-support fit on `lhv-search`: the CLI default.  Near
#: the Tsirelson configuration the exact mixture LP has support 8, so this
#: grid is at or above the support.
LHV_SUPPORT_GRID = 16
#: Below the LP support: the problem stays non-convex and needs a search.
LHV_BELOW_GRID = 4
#: Seeded random starts per cascade level.  The CLI default (8) makes one fit
#: take 1.7-7 s at grid 8 depending on where the random starts land, too
#: erratic for a steady median in one run; with 0 the structured starts (LP
#: mixture, product, central, two-point, padded previous level) still run at
#: every level and a grid-16 fit takes about 1.1 s.
LHV_RESTARTS = 0
#: Half-width (radians) of the jitter around the Tsirelson configuration;
#: small enough that every table stays nonlocal with LP support 8, where a
#: wider jitter gives occasional fits eight times slower than the rest.
LHV_JITTER = 0.05


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    #: subcommand name, or "malformed" for requests that must exit 2
    kind: str
    #: latency group: the subcommand, plus the grid for `lhv-fit`
    group: str
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


WORKLOADS = ("cli-quick", "sample-csv", "sample-summary", "lhv-search")


def stream(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream of ``workload`` for workload seed ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-quick":
        return _cli_quick(rng)
    if workload == "sample-csv":
        return _sample(rng, SAMPLE_CSV_N, "csv")
    if workload == "sample-summary":
        return _sample(rng, SAMPLE_SUMMARY_N, "json")
    if workload == "lhv-search":
        return _lhv_search(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _random_angles(rng: random.Random, count: int) -> list[float]:
    return [rng.uniform(0.0, math.pi) for _ in range(count)]


def _random_settings(rng: random.Random, zero: int | None = None) -> tuple[float, ...]:
    """Random p00,p01,p10,p11 summing to 1; entry ``zero`` is exactly 0."""
    weights = [rng.uniform(0.05, 1.0) for _ in range(4)]
    if zero is not None:
        weights[zero] = 0.0
    total = sum(weights)
    return tuple(w / total for w in weights)


def _angle_args(rng: random.Random, radians: list[float]) -> tuple[list[str], list[float]]:
    """argv for ``radians``, a quarter of the time written in degrees.

    Returns the argv and the radians the CLI will actually use.
    """
    if rng.random() < 0.25:
        degrees = [math.degrees(r) for r in radians]
        return [f"--angles={_floats(degrees)}", "--degrees"], [math.radians(d) for d in degrees]
    return [f"--angles={_floats(radians)}"], list(radians)


#: One deck of `cli-quick` request kinds.  The stream deals shuffled decks, so
#: every 11 requests hold each kind in this proportion and every run holds
#: the same mix: the peak RSS (set by `factorize`) and the median latency do
#: not depend on which kinds a seed happens to draw.
CLI_QUICK_DECK = (
    ["measure"] * 3 + ["chsh"] * 3 + ["bell", "nosignal", "witness", "factorize", "malformed"]
)


def _cli_quick(rng: random.Random) -> Iterator[Request]:
    while True:
        deck = list(CLI_QUICK_DECK)
        rng.shuffle(deck)
        for kind in deck:
            yield _cli_request(rng, kind)


def _cli_request(rng: random.Random, kind: str) -> Request:
    if kind == "malformed":
        return _malformed(rng)
    args: list[str] = [kind]
    params: dict = {}
    if kind in ("measure", "chsh", "nosignal", "factorize"):
        angle_args, params["angles"] = _angle_args(rng, _random_angles(rng, 4))
        args += angle_args
    if kind in ("measure", "nosignal"):
        roll = rng.random()
        if roll < 0.4:
            params["settings"] = UNIFORM
        else:
            zero = rng.randrange(4) if roll < 0.7 else None
            params["settings"] = _random_settings(rng, zero)
            args.append(f"--settings={_floats(params['settings'])}")
    if kind == "chsh":
        # conditional CHSH is undefined when a setting pair has probability 0
        params["mode"] = rng.choice(("conditional", "partial"))
        args += ["--mode", params["mode"]]
        if rng.random() < 0.5:
            params["settings"] = UNIFORM
        else:
            zero = rng.randrange(4) if params["mode"] == "partial" and rng.random() < 0.5 else None
            params["settings"] = _random_settings(rng, zero)
            args.append(f"--settings={_floats(params['settings'])}")
    if kind == "bell":
        angle_args, params["angles"] = _angle_args(rng, _random_angles(rng, 3))
        args += angle_args
        if rng.random() < 0.5:
            params["settings"] = BELL_DEFAULT_SETTINGS
        else:
            # the (a1, b0) pair must have probability exactly 0
            params["settings"] = _random_settings(rng, zero=2)
            args.append(f"--settings={_floats(params['settings'])}")
    if kind == "witness":
        params["grid"] = rng.choice((10000, rng.randrange(100, 50001)))
        args += ["--grid", str(params["grid"])]
    formats = {"measure": ("table", "json", "csv")}.get(kind, ("table", "json"))
    params["format"] = rng.choice(formats)
    args += ["--format", params["format"]]
    return Request(argv=tuple(args), kind=kind, group=kind, params=params)


def _malformed(rng: random.Random) -> Request:
    """A request the CLI must reject with exit 2 and one ``error:`` line.

    None of them asks for a large allocation.
    """
    command = rng.choice(("measure", "chsh", "nosignal", "sample"))
    flaw = rng.choice(("angle-count", "settings-sum", "format"))
    args = [command]
    if flaw == "angle-count":
        args.append(f"--angles={_floats(_random_angles(rng, rng.choice((1, 2, 3, 5))))}")
    elif flaw == "settings-sum":
        weights = [rng.uniform(0.1, 1.0) for _ in range(4)]
        scale = rng.choice((0.5, 1.5))
        args.append(f"--settings={_floats(w * scale / sum(weights) for w in weights)}")
    else:
        args += ["--format", rng.choice(("xml", "yaml", "html", "tsv"))]
    if command == "sample":
        args += ["--n", "1000"]
    return Request(argv=tuple(args), kind="malformed", group="malformed")


def _sample(rng: random.Random, n: int, fmt: str) -> Iterator[Request]:
    """Cycle over one fixed anchor configuration and three seeded ones.

    Every configuration recurs within a run, so the bytes of repeated
    (inputs, seed, n) requests are compared inside a run; the anchor is the
    same for every workload seed, so it is also compared across runs.
    """
    configs = [(list(TSIRELSON), UNIFORM, 42)]
    for settings in (UNIFORM, _random_settings(rng), _random_settings(rng, rng.randrange(4))):
        configs.append((_random_angles(rng, 4), settings, rng.randrange(2**63)))
    requests = []
    for angles, settings, philox_seed in configs:
        args = ["sample", f"--angles={_floats(angles)}", "--n", str(n), "--seed", str(philox_seed)]
        if settings != UNIFORM:
            args.append(f"--settings={_floats(settings)}")
        if fmt != "csv":
            args += ["--format", fmt]
        params = {"angles": angles, "settings": settings, "n": n, "seed": philox_seed, "format": fmt}
        requests.append(Request(argv=tuple(args), kind="sample", group="sample", params=params))
    return itertools.cycle(requests)


def _lhv_search(rng: random.Random) -> Iterator[Request]:
    """Pairs of fits on the same jittered angles: at the LP support, then below it."""
    while True:
        angles = [a + rng.uniform(-LHV_JITTER, LHV_JITTER) for a in TSIRELSON]
        search_seed = rng.randrange(2**32)
        for grid in (LHV_SUPPORT_GRID, LHV_BELOW_GRID):
            args = ("lhv-fit", f"--angles={_floats(angles)}", "--grid", str(grid),
                    "--restarts", str(LHV_RESTARTS), "--seed", str(search_seed), "--format", "json")
            params = {"angles": angles, "grid": grid, "restarts": LHV_RESTARTS, "seed": search_seed}
            yield Request(argv=args, kind="lhv-fit", group=f"lhv-fit.grid{grid}", params=params)
