"""Helpers shared by the three workloads."""

from __future__ import annotations

import contextlib
import io
import json
import random

from bqlcd import cli


def cli_call(probe, argv):
    """``bqlcd <argv>`` in process, as the console script runs it; returns
    the exit code and the parsed JSON it printed (None if it printed none)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = probe.call("cli.main", cli.main, argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def quantile_picks(items, quota, key):
    """``quota`` members of ``items`` at evenly spaced quantiles of ``key``,
    so that two pools with similar spreads of ``key`` give similar picks."""
    ranked = sorted(items, key=key)
    if len(ranked) < quota:
        raise RuntimeError(f"stratum holds {len(ranked)} items, needs {quota}")
    return [ranked[int((i + 0.5) * len(ranked) / quota)] for i in range(quota)]


def sub_seed(seed, j):
    """The j-th corpus seed derived from the workload seed."""
    return random.Random(f"{seed}:{j}").randrange(2 ** 31)


def proof_nodes(data):
    """Node count of a proof in JSON form, without recursion."""
    n, stack = 0, [data]
    while stack:
        d = stack.pop()
        n += 1
        stack.extend(d.get("children", ()))
    return n


def tree_nodes(t):
    """Node count of a ``Proof`` tree, without recursion."""
    n, stack = 0, [t]
    while stack:
        p = stack.pop()
        n += 1
        stack.extend(p.children)
    return n
