"""``repro-uts run`` and ``serve`` keep their option sets and defaults.

The two subcommands take their shared options from one argparse
parent; the tables below are every option string each accepts, with
the value an empty command line parses to and the allowed choices.
A moved default or a flag gained or lost by either subcommand (for
example ``run`` growing ``serve``'s ``--seed``, or ``serve``'s
``set_defaults`` reaching ``run`` through a shared action) fails here.
"""

import argparse

import pytest

from repro.harness.cli import build_parser

PRESETS = ("altix", "kittyhawk", "numa-2x", "numa-8x", "sharedmem",
           "topsail")
IDLE = ("poll", "park")
QUEUES = ("auto", "heap", "bucket")
BACKENDS = ("auto", "pure", "fast")
FORMATS = ("chrome", "jsonl", "report")

#: option string -> (default, choices or None)
SHARED = {
    "--preset": ("kittyhawk", PRESETS),
    "--queue": ("auto", QUEUES),
    "--fastpath": ("auto", BACKENDS),
    "--faults": (None, None),
    "--fault-seed": (0, None),
    "--trace": (None, None),
    "--trace-format": (None, FORMATS),
}

RUN = {
    **SHARED,
    "--threads": (16, None),
    "--chunk-size": (8, None),
    "--idle-strategy": ("poll", IDLE),
    "--algorithm": ("upc-distmem",
                    ("mpi-ws", "tree-split", "upc-distmem",
                     "upc-distmem-hier", "upc-sharedmem", "upc-term",
                     "upc-term-rapdif", "ws-fencefree")),
    "--b0": (500, None),
    "--q": (0.499, None),
    "--tree-seed": (0, None),
    "--engine": ("sha1", ("sha1", "sha1-pure", "splitmix")),
    "--no-verify": (False, None),
    "--scenario": (None, None),
    "--victim-policy": (None, ("uniform", "hierarchical")),
}

SERVE = {
    **SHARED,
    "--threads": (64, None),
    "--chunk-size": (2, None),
    "--idle-strategy": ("park", IDLE),
    "--arrivals": ("poisson:rate=1e5", None),
    "--tasks": (200, None),
    "--queue-capacity": (64, None),
    "--policy": ("block", ("block", "shed-oldest", "shed-newest")),
    "--deadline": (0.0, None),
    "--max-retries": (2, None),
    "--task-b0": (4, None),
    "--task-q": (0.45, None),
    "--task-gran": (1, None),
    "--service-seed": (0, None),
    "--seed": (0, None),
}


def _options(command):
    parser = build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    parsed = parser.parse_args([command])
    return {
        action.option_strings[-1]: (
            getattr(parsed, action.dest),
            tuple(action.choices) if action.choices else None)
        for action in sub.choices[command]._actions
        if action.option_strings and action.dest != "help"
    }


@pytest.mark.parametrize("command, table", [("run", RUN), ("serve", SERVE)])
def test_option_set_and_defaults_are_pinned(command, table):
    assert _options(command) == table

