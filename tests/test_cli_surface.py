"""CLI surface snapshot: ``python -m repro`` flag names are frozen.

Scripts, docs, and the CI workflows spell these flags out; renaming one
is a breaking change that must be made here deliberately, in the same
commit that updates every caller.  The snapshot pins, per subcommand and
per ``bench`` suite, the exact set of option strings (and positional
dests in ``<angle>`` brackets); defaults and help texts are free to
evolve.
"""

import argparse

import pytest

from repro.__main__ import build_parser

# The frozen flag inventory.  Additions are fine (append here); removals
# and renames are breaking.
CLI_SURFACE = {
    "run": ["--checkpoint-interval", "--crash", "--fifo", "--flush-interval",
            "--help", "--horizon", "--protocol", "--seed", "--timeline",
            "--timeline-limit", "--workload", "-h", "-n"],
    "table1": ["--help", "--jobs", "--seeds", "-h", "-n"],
    "figures": ["--help", "-h"],
    "trace": ["--help", "--out", "--seed", "-h", "<scenario>"],
    "bench": ["--help", "-h", "<suite>"],
    "stress": ["--cache-dir", "--fail-fast", "--help", "--jobs", "--live",
               "--no-shrink", "--out-dir", "--profile", "--quiet", "--replay",
               "--schedules", "--seed", "-h"],
    "overhead": ["--crash", "--help", "--horizon", "--seed", "-h", "-n"],
    "live": ["--crash-at", "--crash-pid", "--downtime", "--fault-seed",
             "--faults", "--help", "--jobs", "--no-crash", "--run-seconds",
             "--workdir", "-h", "-n"],
    "rollback": ["--at", "--data-dir", "--dry-run", "--earliest", "--help",
                 "--pids", "--reason", "--witness", "-h", "-n"],
    "serve": ["--crash-at", "--downtime", "--fault-seed", "--help",
              "--no-crash", "--nodes-per-shard", "--run-seconds", "--shards",
              "--workdir", "-h"],
}

# The frozen flag inventory of each ``bench <suite>``, same rules.
BENCH_SUITE_SURFACE = {
    "obs": ["--help", "--jobs", "--matrix", "--out", "--repeats", "--seed",
            "-h", "<scenario>"],
    "exec": ["--budget-slots", "--help", "--jobs", "--min-speedup", "--out",
             "--profile", "--schedules", "--seed", "-h"],
    "live": ["--help", "--jobs", "--out", "--run-seconds", "--workdir", "-h",
             "-n"],
    "wire": ["--help", "--min-piggyback-reduction", "--out", "--seed", "-h"],
    "load": ["--check-trend", "--duration", "--help",
             "--min-deliveries-per-sec", "--out", "--rates", "--start-at",
             "--trend-file", "--workdir", "-h", "-n"],
    "scale": ["--budget-slots", "--check-trend", "--help", "--jobs",
              "--max-exponent", "--ns", "--out", "--runner-jobs",
              "--trend-file", "--workdir", "-h"],
    "service": ["--crash-at", "--downtime", "--fault-seed", "--help", "--keys",
                "--no-crash", "--nodes-per-shard", "--ops-per-session",
                "--out", "--put-ratio", "--request-timeout", "--run-seconds",
                "--seed", "--sessions", "--shards", "--workdir", "--zipf-s",
                "-h"],
}


def _subparsers(
    parser: argparse.ArgumentParser | None = None,
) -> dict[str, argparse.ArgumentParser]:
    parser = parser or build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return dict(action.choices)


def _surface(sub: argparse.ArgumentParser) -> list[str]:
    surface = []
    for action in sub._actions:
        if action.option_strings:
            surface.extend(action.option_strings)
        else:
            surface.append(f"<{action.dest}>")
    return sorted(surface)


def test_subcommand_set_is_frozen():
    assert sorted(_subparsers()) == sorted(CLI_SURFACE)


@pytest.mark.parametrize("name", sorted(CLI_SURFACE))
def test_subcommand_flags_are_frozen(name):
    assert _surface(_subparsers()[name]) == sorted(CLI_SURFACE[name]), name


def test_bench_suite_set_is_frozen():
    suites = _subparsers(_subparsers()["bench"])
    assert sorted(suites) == sorted(BENCH_SUITE_SURFACE)


@pytest.mark.parametrize("suite", sorted(BENCH_SUITE_SURFACE))
def test_bench_suite_flags_are_frozen(suite):
    sub = _subparsers(_subparsers()["bench"])[suite]
    assert _surface(sub) == sorted(BENCH_SUITE_SURFACE[suite]), suite


@pytest.mark.parametrize("suite", sorted(BENCH_SUITE_SURFACE))
def test_every_bench_suite_has_a_runner_and_help(suite):
    from repro.__main__ import BENCH_SUITES

    assert callable(BENCH_SUITES[suite].run), suite
    assert callable(BENCH_SUITES[suite].gate), suite
    assert BENCH_SUITES[suite].help, suite


def test_retired_bench_subcommands_are_gone():
    retired = {"exec-bench", "live-bench", "wire-bench", "load",
               "scale-bench", "service-bench"}
    assert not retired.intersection(_subparsers())


@pytest.mark.parametrize("name", sorted(CLI_SURFACE))
def test_every_subcommand_has_a_runner_and_help(name):
    sub = _subparsers()[name]
    assert callable(sub.get_default("func")), name


def test_shared_concepts_spell_the_same_flag():
    """The consistency contract behind the shared helpers: wherever a
    concept appears, it uses one spelling (never --outfile/--work-dir/
    --rand-seed variants)."""
    forbidden = {"--outfile", "--output", "--work-dir", "--out-file",
                 "--rand-seed", "--random-seed", "--num-shards"}
    subs = _subparsers()
    subs.update(
        (f"bench {suite}", sub)
        for suite, sub in _subparsers(subs["bench"]).items()
    )
    for name, sub in subs.items():
        for action in sub._actions:
            assert not forbidden.intersection(action.option_strings), (
                name, action.option_strings
            )
