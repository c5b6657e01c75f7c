"""Seeded request streams for the three workloads, and the check of each answer.

A stream is an endless sequence of rounds of two to three seconds.  Every
round holds the same slots, each dealing its sizes from a narrow band or a
short list of sizes of nearly equal cost, and is shuffled, so that runs
with different seeds send different requests with the same spread of
costs.  A run sends whole rounds only, so its request mix
does not depend on where the clock stops.  That keeps throughput, medians
and tails comparable from seed to seed.
"""

from __future__ import annotations

import json
import random
from itertools import count, product

import oracles

WHY = {
    "cli-oneshot": (
        "one-off CLI processes: cold Gaussian fills (add), process start and "
        "peak memory dominate; multiply is almost unused"
    ),
    "verify-poly": (
        "one session of polynomial identity checks: schoolbook multiply and "
        "pbar_gf memo reuse dominate; no large fills, no CLI"
    ),
    "verify-oracle": (
        "one session of oracle identity checks: millions of small p/qbinom "
        "memo reads and brute-force enumeration; almost no multiply"
    ),
}

# The workloads that keep one library session open; cli-oneshot starts a process per request.
SESSION = ("verify-poly", "verify-oracle")


def _cli(kind: str, params: dict[str, int], argv: list[str]) -> dict:
    return {"kind": kind, "params": params, "argv": argv + ["--format", "json"]}


def _flags(params: dict[str, int]) -> list[str]:
    out = []
    for name, value in params.items():
        out += [f"--{name}", str(value)]
    return out


def _count(function: str, params: dict[str, int], method: str = "genfun") -> dict:
    kind = f"count {function}" + ("" if method == "genfun" else f" {method}")
    return _cli(kind, params, ["count", function, *_flags(params), "--method", method])


def _cli_rounds(rng: random.Random, tiny: bool):
    # The two slowest slots share one band and fill the latency tail, so the
    # 11th slowest request falls inside their costs; the first round alone
    # adds the largest query, so every run's peak memory comes from the same fill.
    bands = [(5, 10), (11, 15)] if tiny else [(20, 30), (36, 44), (50, 55), (50, 55)]
    decks = [_deck(rng, {"n": band}) for band in bands]
    for index in count():
        batch = [_count("partition", deck[index % len(deck)]) for deck in decks]
        if index == 0 and not tiny:
            batch.append(_count("partition", {"n": 86}))
        yield batch + _cli_small(rng, tiny)


def _cli_small(rng: random.Random, tiny: bool) -> list[dict]:
    """The cheap queries of one round, drawn at random: process start dominates them."""
    pick = rng.randint
    top = 6 if tiny else 25
    low = 2 if tiny else 5
    batch = [_count("partition", {"n": pick(4, 8) if tiny else pick(12, 18)}, "enumerate")]

    N, k = pick(low, top), pick(low, top)
    batch.append(_count("p", {"N": N, "k": k, "n": pick(N * k // 4, N * k // 2)}))

    for method in ("genfun", "convolution"):
        r = pick(1, 3)
        b = {name: pick(low, top) for name in ("n1", "n2", "k1", "k2")}
        total = r * b["n1"] * b["k1"] + b["n2"] * b["k2"]
        n = min(pick(total // 4, total // 2), 500)
        batch.append(_count("pbar", {"r": r, **b, "n": n}, method))

    small = {name: pick(2, 3 if tiny else 4) for name in ("n1", "n2", "k1", "k2")}
    batch.append(_count("pbar", {"r": pick(1, 2), **small, "n": pick(4, 12)}, "enumerate"))

    r, n1, n2 = pick(1, 3), pick(low + 3, top), pick(low + 3, top)
    k1, k2 = pick(1, min(6, n1)), pick(1, min(8, n2))
    least = r * k1 * (k1 + 1) // 2 + k2 * (k2 + 1) // 2
    most = r * (k1 * n1 - k1 * (k1 - 1) // 2) + k2 * n2 - k2 * (k2 - 1) // 2
    mid = (least + most) // 2
    batch.append(_count("qbar", {"r": r, "n1": n1, "n2": n2, "k1": k1, "k2": k2,
                                 "n": pick((least + mid) // 2, mid)}))

    N, k = pick(low, top), pick(low, top)
    first = pick(0, N * k // 2)
    last = first + (pick(10, 20) if tiny else pick(50, 150))
    batch.append(_cli("table p", {"N": N, "k": k, "first": first, "last": last},
                      ["table", "p", "--N", str(N), "--k", str(k), "--n", f"{first}..{last}"]))

    gtop = pick(6, 12) if tiny else pick(30, 60)
    gauss = {"top": gtop, "bottom": pick(gtop // 4, gtop // 2), "step": pick(1, 3)}
    batch.append(_cli("gauss", gauss, ["gauss", *_flags(gauss)]))

    n_max = pick(4, 8) if tiny else pick(10, 40)
    batch.append(_cli("verify cor3.2", {"n_max": n_max},
                      ["verify", "cor3.2", "--n-max", str(n_max)]))
    return batch


def _identity(identity_id: str, **kw: int) -> dict:
    return {"kind": identity_id, "params": kw, "op": "run_identity", "id": identity_id, "kw": kw}


def _deck(rng: random.Random, bands: dict[str, tuple[int, int]]) -> list[dict[str, int]]:
    """Every size combination in ``bands``, in seeded order; round i takes entry i mod length.

    Dealing sizes in turn rather than drawing them afresh gives every run
    nearly the same multiset of sizes, whatever the seed.
    """
    names = list(bands)
    deck = [
        dict(zip(names, values))
        for values in product(*(range(low, high + 1) for low, high in bands.values()))
    ]
    rng.shuffle(deck)
    return deck


def _identity_rounds(rng: random.Random, slots, extra: tuple[dict, ...] = ()):
    """Rounds with one request per slot ``(identity, (kw, kw, ...))``.

    Each slot lists a few sizes of nearly the same cost, found by timing
    them; round i takes entry i mod length of the slot's seeded shuffle.
    """
    decks = [rng.sample(choices, len(choices)) for _identity_id, choices in slots]
    for index in count():
        batch = [
            _identity(identity_id, **deck[index % len(deck)])
            for (identity_id, _choices), deck in zip(slots, decks)
        ]
        yield batch + list(extra)


def _sizes(names: str, *values: tuple[int, ...]) -> tuple[dict[str, int], ...]:
    keys = names.split()
    return tuple(dict(zip(keys, row)) for row in values)


# Slots of one round, slowest first, with the cost of each size in ms on a
# two-core machine with a warm session.  The two slowest slots have the
# same sizes, so the tail (the 11th slowest request) falls inside their
# costs rather than between two slots.  The slot marked as the median is
# alone in its cost band, with as many requests per round clearly above it
# as below it (verify-oracle counts the unsigned thm3.3 below), so the
# median request is always one of its requests.  Within a slot the sizes
# cost about the same, so the seed changes which requests are sent and in
# what order, not how much work a round holds.
_POLY_SLOTS = (
    ("eq3", _sizes("m_max n_max", (19, 19), (24, 16))),                 # 640-650
    ("eq3", _sizes("m_max n_max", (19, 19), (24, 16))),                 # 640-650
    ("eq3", _sizes("m_max n_max", (22, 16), (24, 15))),                 # 500-510
    ("eq2", _sizes("m_max n_max", (24, 17), (25, 17), (23, 18))),       # 330-450
    ("eq2", _sizes("m_max n_max", (19, 20), (20, 19))),                 # 285-290, the median
    ("thm2.3", _sizes("r_max param_max", (2, 5), (3, 5))),              # 80-140
    ("eq3", _sizes("m_max n_max", (13, 14), (14, 13))),                 # 60-65
    ("thm2.4", _sizes("r_max param_max", (3, 6), (2, 7))),              # 30-40
    ("thm2.5", _sizes("r_max param_max", (2, 7), (3, 7))),              # 20-45
)
_ORACLE_SLOTS = (
    ("thm2.1", _sizes("r_max param_max", (4, 4))),                      # 750-780
    ("thm2.1", _sizes("r_max param_max", (4, 4))),                      # 750-780
    ("thm3.1", _sizes("n_max k_max", (11, 11), (10, 12), (12, 10))),    # 500-580
    ("thm2.2", _sizes("r_max param_max", (5, 4))),                      # 300-320, the median
    ("thm2.6", _sizes("r_max param_max", (3, 7), (4, 7))),              # 125-165
    ("thm3.3", _sizes("n_max k_max", (6, 9), (7, 8))),                  # 100-110
)
_TINY = {"r_max": 2, "param_max": 3, "m_max": 5, "n_max": 4, "k_max": 3}
_TINY_POLY_SLOTS = tuple(
    (identity_id, ({name: _TINY[name] for name in choices[0]},))
    for identity_id, choices in _POLY_SLOTS
)
_TINY_ORACLE_SLOTS = tuple(
    (identity_id, ({name: _TINY[name] for name in choices[0]},))
    for identity_id, choices in _ORACLE_SLOTS
)


_UNSIGNED_THM33 = {"kind": "thm3.3-unsigned", "params": {}, "op": "thm3.3-unsigned"}


def rounds(workload: str, seed: int, tiny: bool = False):
    """The endless stream of shuffled request rounds of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-oneshot":
        stream = _cli_rounds(rng, tiny)
    elif workload == "verify-poly":
        stream = _identity_rounds(rng, _TINY_POLY_SLOTS if tiny else _POLY_SLOTS)
    else:
        stream = _identity_rounds(rng, _TINY_ORACLE_SLOTS if tiny else _ORACLE_SLOTS,
                                  (_UNSIGNED_THM33,))
    for batch in stream:
        rng.shuffle(batch)
        yield batch


def mix(sent: list[dict]) -> dict:
    """Request counts by kind and the largest value of each size parameter."""
    out: dict[str, dict] = {}
    for request in sent:
        entry = out.setdefault(request["kind"], {"count": 0, "largest": {}})
        entry["count"] += 1
        for name, value in request["params"].items():
            entry["largest"][name] = max(entry["largest"].get(name, value), value)
    return dict(sorted(out.items()))


# Grid used by verify_thm33(signed=False), which takes its defaults.
_UNSIGNED_THM33_GRID = {"n_max": 5, "k_max": 6}


def check(request: dict, reply) -> str | None:
    """None when ``reply`` is the right answer to ``request``, else the reason it is not.

    A command-line reply is ``(exit code, stdout bytes)``; a session reply is
    the worker's JSON object.
    """
    try:
        return _check(request, reply)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed reply: {exc!r}"


def _check(request: dict, reply) -> str | None:
    if "argv" in request:
        code, stdout = reply
        if code != 0:
            return f"exit code {code}"
        return _check_cli(request["kind"], request["params"], json.loads(stdout))
    if "error" in reply:
        return reply["error"].strip().splitlines()[-1]
    if request["op"] == "thm3.3-unsigned":
        identity_id, kw, passed = "thm3.3", _UNSIGNED_THM33_GRID, False
    else:
        identity_id, kw, passed = request["id"], request["kw"], True
    if reply["identity_id"] != identity_id:
        return f"report for {reply['identity_id']}, asked for {identity_id}"
    expected = oracles.grid_size(identity_id, kw)
    if reply["checked"] != expected:
        return f"checked {reply['checked']} grid points, grid has {expected}"
    if reply["passed"] != passed:
        return f"passed={reply['passed']}, expected {passed}"
    return None


def _check_cli(kind: str, params: dict[str, int], out: dict) -> str | None:
    if kind == "gauss":
        want = [str(c) for c in oracles.gaussian_coeffs(params["top"], params["bottom"], params["step"])]
        return None if out["coeffs"] == want else "wrong Gaussian coefficients"
    if kind == "table p":
        want = [
            {"n": str(n), "count": str(oracles.one_kind(params["N"], params["k"], n))}
            for n in range(params["first"], params["last"] + 1)
        ]
        return None if out["rows"] == want else "wrong table rows"
    if kind == "verify cor3.2":
        if out["checked"] != params["n_max"] + 1 or out["failures"]:
            return f"cor3.2 report checked={out['checked']} failures={len(out['failures'])}"
        return None
    function = kind.split()[1]
    if function == "partition":
        want = oracles.partition_number(params["n"])
    elif function == "p":
        want = oracles.one_kind(params["N"], params["k"], params["n"])
    else:
        want = getattr(oracles, function)(*(params[x] for x in ("r", "n1", "n2", "k1", "k2", "n")))
    return None if out["count"] == str(want) else f"count {out['count']}, oracle says {want}"
