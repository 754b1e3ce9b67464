"""Seeded request rounds for the three workloads.

A workload is a list of request classes; each round draws every class's
requests with fresh seeded inputs.  A class fixes what sets a request's
cost (subcommand, strand count, word length, wheel index, table window)
and the seed picks the rest (letters, a small move of the index or
window), so rounds of every seed cost nearly the same while no two rounds
repeat their inputs.  All inputs are valid, so no request should fail.

Each workload also puts a group of like requests where the median and the
tail percentile fall (run.tail_percentile: the 89th for 32 requests a
round, the 83rd for 20), so a quantile sits inside a group instead of in
the gap between two lone requests, where a small change of either would
move it far.

Each request is a dict with ``command`` and ``argv`` (what the CLI gets)
plus the fields ``checks.py`` needs to recompute the answer.
"""

from __future__ import annotations

import json

# braid_words: (subcommand, strands, length, form, count) per round; the
# 32 latencies spread from ~10 ms to ~1 s.  Groups: ten colorgroup on 24
# strands (the median; their cost, mostly the t = -1 Burau product,
# varies little with the letters), five abf on 16 strands (the tail).
# "split" words are sent with two more strands than their letters use, so
# the closure has split components and Delta = 0; "json" words use the
# JSON wire form.  Every word contains the letter +-(strands - 1), so the
# CLI infers a fixed strand count.
BRAID_CLASSES = (
    ("colorgroup", 6, 20, "text", 1),
    ("colorgroup", 6, 120, "json", 1),
    ("colorgroup", 6, 300, "text", 1),
    ("colorgroup", 10, 40, "text", 1),
    ("colorgroup", 10, 90, "split", 1),
    ("colorgroup", 16, 20, "text", 1),
    ("colorgroup", 16, 50, "json", 1),
    ("colorgroup", 24, 10, "split", 1),
    ("colorgroup", 24, 30, "text", 1),
    ("abf", 6, 20, "text", 1),
    ("abf", 6, 40, "json", 1),
    ("abf", 10, 20, "split", 1),
    ("colorgroup", 24, 80, "text", 5),
    ("colorgroup", 24, 80, "json", 5),
    ("abf", 10, 90, "split", 1),
    ("abf", 24, 12, "json", 1),
    ("abf", 10, 120, "text", 1),
    ("abf", 16, 40, "text", 5),
    ("abf", 24, 22, "text", 1),
    ("abf", 16, 80, "text", 1),
)

# wheel_single: (n, count) per round; the seed moves n by up to 2 % and
# the parity of n alternates request by request.  n spreads from 10 to
# 270; groups: six at n ~ 100 (the median), five at n ~ 170 (the tail).
WHEEL_CLASSES = (
    (10, 1), (15, 1), (22, 1), (32, 1), (45, 1), (62, 1), (80, 1),
    (100, 6), (130, 1), (170, 5), (270, 1),
)
WHEEL_MODULI = [2, 3, 5, 7]

# range_sweeps: table windows (centre, rows, count) with the four formats
# in turn, the seed moving each window by up to 1 row; then verify at
# five bounds (max_n, max_index, format), each moved by the seed.  Groups:
# six windows at n ~ 104 (the median), the verify requests (the tail).
TABLE_WINDOWS = (
    (4, 3, 1), (18, 4, 1), (32, 5, 1), (46, 3, 1), (60, 4, 1), (72, 5, 1), (84, 3, 1),
    (104, 4, 6), (140, 4, 1), (192, 6, 1),
)
TABLE_RANGE = (2, 200)
TABLE_FORMATS = ("text", "json", "csv", "markdown")
VERIFY_BOUNDS = ((6, 12, "json"), (8, 20, "text"), (10, 16, "json"), (7, 18, "text"), (9, 14, "json"))


def _braid_request(command: str, strands: int, letters: list[int], form: str) -> dict:
    if form == "json":
        argv = [command, json.dumps({"strands": strands, "letters": letters})]
    else:
        argv = [command, " ".join(str(x) for x in letters)]
        if form == "split":
            argv += ["--strands", str(strands)]
    argv += ["--format", "json"]
    return {"command": command, "argv": argv, "strands": strands, "letters": letters}


def random_word(rng, strands: int, length: int) -> list[int]:
    """Random letters on the given strands, one of them +-(strands - 1)."""
    letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
    letters[rng.randrange(length)] = rng.choice((1, -1)) * (strands - 1)
    return letters


def braid_words(rng) -> list[dict]:
    requests = []
    for command, strands, length, form, count in BRAID_CLASSES:
        for _ in range(count):
            letters = random_word(rng, strands, length)
            used = strands + 2 if form == "split" else strands
            requests.append(_braid_request(command, used, letters, form))
    return requests


def wheel_single(rng) -> list[dict]:
    requests = []
    for centre, count in WHEEL_CLASSES:
        for _ in range(count):
            jitter = max(1, centre // 50)
            n = centre + rng.randint(-jitter, jitter)
            if n % 2 != len(requests) % 2:
                n += 1 if n < centre else -1
            argv = ["wheel", str(n), "--moduli", *map(str, WHEEL_MODULI), "--format", "json"]
            requests.append({"command": "wheel", "argv": argv, "n": n, "moduli": list(WHEEL_MODULI)})
    return requests


def range_sweeps(rng) -> list[dict]:
    low, high = TABLE_RANGE
    requests = []
    for centre, rows, count in TABLE_WINDOWS:
        for _ in range(count):
            start = min(max(low, centre - rows // 2 + rng.randint(-1, 1)), high - rows + 1)
            end = start + rows - 1
            fmt = TABLE_FORMATS[len(requests) % len(TABLE_FORMATS)]
            argv = ["table", "--from", str(start), "--to", str(end), "--format", fmt]
            requests.append({"command": "table", "argv": argv, "from": start, "to": end, "format": fmt})
    for max_n, max_index, fmt in VERIFY_BOUNDS:
        max_n += rng.randint(-1, 1)
        max_index += rng.randint(-2, 2)
        argv = ["verify", "--max-n", str(max_n), "--max-index", str(max_index), "--format", fmt]
        requests.append(
            {"command": "verify", "argv": argv, "max_n": max_n, "max_index": max_index, "format": fmt}
        )
    return requests


WORKLOADS = {
    "braid_words": braid_words,
    "wheel_single": wheel_single,
    "range_sweeps": range_sweeps,
}
