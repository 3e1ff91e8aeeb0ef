"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of rounds.  Every round of one workload
has the same composition (genera, word lengths, list sizes, sweep sizes,
flags and output formats); only the random content is drawn, from the
seed, the workload name and the round number.  Runs execute whole rounds,
so the request mix, and with it every throughput and latency figure, does
not depend on where a run stops, and a round never repeats the content of
another round, so no result can be served from a cache.

The program sees only argv and the classes files written here; each
request also carries ``expect``, the data the independent checker needs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("alexander", "twistlb", "scl", "pants")

# The timed benchmark runs two workloads, each the union of two of the four
# above, so that each run can last long enough to average over the
# machine's changes of speed.  Every layer is exercised by one of them:
# ``matrix`` holds the large-rank fold and charpoly, the rank <= 12
# battery and the obstruction kernel; ``sweeps`` holds the height search,
# derivation replay, the pants layer and the largest documents.
COMBINED = {"matrix": ("alexander", "twistlb"), "sweeps": ("scl", "pants")}

EXPONENTS = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect: dict
    cost: int  # rough size; picks the workload's smallest request

    @property
    def kind(self) -> str:
        return self.argv[0]


def rank(genus: int, boundary: int) -> int:
    return 2 * genus + max(boundary - 1, 0)


def _format_flags(fmt: str) -> tuple[str, ...]:
    return ("--format", "tsv") if fmt == "tsv" else ()


# ---------------------------------------------------------------------------
# alexander: few, large, growing-bigint matrices

# (genus, boundary, letters, verify).  Requests with g <= 6 are verified;
# two surfaces have 2-3 boundary components; genus reaches 20 (rank 40).
# Costs rise down the list.  Twelve copies of one g = 7 shape sit where the
# median falls and four of one g = 12 shape where the tail percentile falls
# (in ``matrix`` the twistlb copies below take that place), so each of those
# figures is a quantile of many like requests rather than one request that
# noise can swap with its neighbour.  Few requests cost more than the tail
# copies (four per ``matrix`` round), so that the tail lands among them.
ALEXANDER_SLOTS = (
    (1, 1, 2, True),
    (1, 1, 4, True),
    (2, 1, 4, True),
    (2, 1, 8, True),
    (3, 1, 6, True),
    (3, 1, 12, True),
    (4, 1, 8, True),
    (5, 1, 10, True),
    (2, 2, 6, True),
    (3, 3, 9, True),
    *((7, 1, 21, False),) * 12,
    (4, 1, 16, True),
    (8, 1, 32, False),
    (6, 1, 12, True),
    (9, 1, 27, False),
    (10, 1, 30, False),
    (5, 1, 20, True),
    *((12, 1, 36, False),) * 4,
    (14, 1, 35, False),
    (20, 1, 40, False),
)


def _sparse_vector(rng: random.Random, n: int) -> list[int]:
    vec = [0] * n
    for position in rng.sample(range(n), min(n, rng.randint(1, 3))):
        vec[position] = rng.choice((-2, -1, 1, 2))
    return vec


def _alexander_request(rng, genus, boundary, length, verify, fmt) -> Request:
    """Half the letters are vector tokens and the exponents are balanced over
    +-1..+-3, so entry growth, and with it cost, varies little between seeds."""
    n = rank(genus, boundary)
    exponents = [EXPONENTS[i % len(EXPONENTS)] for i in range(length)]
    vector_token = [i % 2 == 1 for i in range(length)]
    rng.shuffle(exponents)
    rng.shuffle(vector_token)
    tokens, letters = [], []
    for exponent, is_vector in zip(exponents, vector_token):
        if is_vector:
            coords = _sparse_vector(rng, n)
            token = "[" + ",".join(map(str, coords)) + "]"
        else:
            if boundary > 1 and rng.random() < 0.25:
                index = rng.randint(1, boundary - 1)
                token, position = f"d{index}", 2 * genus + index - 1
            else:
                family = rng.choice("ab")
                index = rng.randint(1, genus)
                token = f"{family}{index}"
                position = 2 * (index - 1) + (family == "b")
            coords = [0] * n
            coords[position] = 1
        tokens.append(token if exponent == 1 else f"{token}^{exponent}")
        letters.append((coords, exponent))
    word = " ".join(tokens)
    argv = ("alexander", "--surface", f"{genus},{boundary}", "--word", word)
    argv += ("--verify",) * verify + _format_flags(fmt)
    expect = {
        "genus": genus,
        "boundary": boundary,
        "letters": letters,
        "word": word,
        "verify": verify,
        "format": fmt,
    }
    return Request(argv, expect, n * n * length)


def alexander_round(rng, slots, write_classes) -> list[Request]:
    return [
        _alexander_request(rng, g, b, n, verify, "tsv" if i % 3 == 2 else "json")
        for i, (g, b, n, verify) in enumerate(slots)
    ]


# ---------------------------------------------------------------------------
# twistlb: many short words at rank <= 12 through the --verify battery

# (genus, list size, distinct classes): empty lists, lists with duplicates,
# and lists of 2g distinct classes, which get no certificate.  As for
# alexander, costs rise down the list, with twelve copies of one shape at the
# median and four at the tail percentile.
TWISTLB_SLOTS = (
    (1, 0, 0),
    (3, 0, 0),
    (5, 0, 0),
    (2, 4, 4),
    (4, 8, 8),
    (6, 12, 12),
    (1, 2, 1),
    (1, 2, 1),
    *((2, 3, 2),) * 12,
    (2, 4, 3),
    (3, 4, 3),
    (3, 6, 5),
    (4, 5, 4),
    *((4, 8, 7),) * 4,
    (6, 7, 6),
    (6, 12, 11),
)


def _random_class(rng, genus) -> tuple[int, ...]:
    n = 2 * genus
    if rng.random() < 0.5:
        coords = [0] * n
        coords[rng.randrange(n)] = 1
        return tuple(coords)
    return tuple(_sparse_vector(rng, n))


def _class_entry(rng, coords):
    """A classes-file entry: basis token, vector token or integer array."""
    genus = len(coords) // 2
    nonzero = [i for i, c in enumerate(coords) if c]
    if len(nonzero) == 1 and coords[nonzero[0]] == 1 and rng.random() < 0.6:
        i = nonzero[0]
        return f"{'ab'[i % 2]}{i // 2 + 1}"
    if rng.random() < 0.3 and genus:
        return "[" + ",".join(map(str, coords)) + "]"
    return list(coords)


def twistlb_round(rng, slots, write_classes) -> list[Request]:
    requests = []
    for i, (genus, size, distinct) in enumerate(slots):
        classes: list[tuple[int, ...]] = []
        while len(classes) < distinct:
            coords = _random_class(rng, genus)
            if coords not in classes:
                classes.append(coords)
        classes += [rng.choice(classes) for _ in range(size - distinct)]
        rng.shuffle(classes)
        path = write_classes(i, json.dumps([_class_entry(rng, c) for c in classes]))
        fmt = "tsv" if i % 2 else "json"
        argv = ("twistlb", "--surface", f"{genus},1", "--classes", path, "--verify")
        expect = {
            "genus": genus,
            "classes": [list(c) for c in classes],
            "distinct": distinct,
            "format": fmt,
        }
        requests.append(Request(argv + _format_flags(fmt), expect, 4 * genus * genus * (size + 1)))
    return requests


# ---------------------------------------------------------------------------
# scl: exact Fraction height search and derivation replay, no homology

SCL_SWEEP_SIZES = (10, 19, 37, 72, 139, 268, 518, 1000)
SCL_SINGLE_EXPONENTS = (0, 1.7, 3.4, 5.1, 6.9, 8.6, 10.3, 12)
SCL_CHAIN_FACTORS = (0, 7, 23, 50)
MODELS = ("1/2,3", "1,0", "3/2,-1", "2,5", "2/3,1", "5/4,-2")


def _log_spread(rng, top_exponent: float) -> int:
    return int(10 ** (rng.random() * top_exponent))


def _small_rational(rng) -> str:
    return f"{rng.randint(0, 5)}/{rng.randint(1, 60)}"


def _fibre(rng, i):
    """Alternate ``--fibre-b1`` and ``--surface``; return flags and b1."""
    if i % 2:
        b1 = rng.randint(0, 12)
        return ("--fibre-b1", str(b1)), b1
    genus, boundary = rng.randint(0, 6), rng.randint(1, 3)
    return ("--surface", f"{genus},{boundary}"), rank(genus, boundary)


def _heightlb_request(rng, i, ns_text, ns, fmt) -> Request:
    fibre_flags, b1 = _fibre(rng, i)
    model = MODELS[rng.randrange(len(MODELS))] if i % 4 in (1, 2) else None
    argv = ("heightlb", *fibre_flags, f"--n={ns_text}", "--verify")
    if model is not None:
        argv += ("--model", model)
    expect = {
        "fibre_b1": b1,
        "model": model,
        "ns": sorted(set(ns)),
        "format": fmt,
    }
    return Request(argv + _format_flags(fmt), expect, len(ns))


def scl_round(rng, slots, write_classes) -> list[Request]:
    singles, sweeps, chains = slots
    requests = []
    for i, top in enumerate(singles):
        n = _log_spread(rng, top) * rng.choice((-1, 1))
        fmt = "tsv" if i % 3 == 2 else "json"
        requests.append(_heightlb_request(rng, i, str(n), [n], fmt))
    for i, size in enumerate(sweeps):
        if i % 2 or size > 50:  # a range's cost hangs on one magnitude; keep ranges short
            ns = [_log_spread(rng, 12) * rng.choice((-1, 1)) for _ in range(size)]
            text = ",".join(map(str, ns))
        else:
            step = rng.randint(1, 10 ** rng.randint(0, 9))
            lo = rng.randint(-(10**12), 10**12 - step * size)
            ns = list(range(lo, lo + step * (size - 1) + 1, step))
            text = f"{lo}..{ns[-1]}..{step}"
        requests.append(_heightlb_request(rng, i, text, ns, "tsv" if i % 4 == 3 else "json"))
    for i, k in enumerate(chains):
        tc, phi0 = _small_rational(rng), _small_rational(rng)
        twists = [_small_rational(rng) for _ in range(k)]
        n = rng.randint(-(10**6), 10**6)
        fmt = "tsv" if i % 2 else "json"
        argv = ("sclbound", "--tc", tc, "--phi0", phi0, "--twists", ",".join(twists),
                f"--n={n}", "--verify")
        expect = {"tc": tc, "phi0": phi0, "twists": twists, "n": n, "format": fmt}
        requests.append(Request(argv + _format_flags(fmt), expect, k + 1))
    return requests


# ---------------------------------------------------------------------------
# pants: long sweeps, large documents, rank-2 homology checks

# (rows, verify, format): sweeps of 10-5000 rows, each size once verified and
# once not, JSON and TSV.  The median and the tail percentile of ``sweeps``
# and ``pants`` would otherwise fall where few requests of unlike cost sit
# (heightlb singles and short sweeps, whose cost hangs on the magnitude of
# n), so a seed's draw could move them by half.  Sixteen copies of an
# unverified 144-row sweep sit where the median falls and five more
# unverified 5000-row sweeps (six with the slot above) where the tail
# percentile falls; a sweep's cost hardly depends on where it starts.
PANTS_SIZES = (10, 24, 59, 144, 350, 850, 2060, 5000)
PANTS_SLOTS = (
    *(
        (size, verify, fmt)
        for i, size in enumerate(PANTS_SIZES)
        for verify, fmt in ((True, ("json", "tsv")[i % 2]), (False, ("tsv", "json")[i % 2]))
    ),
    *((144, False, "json"),) * 16,
    *((5000, False, "json"),) * 5,
)


def pants_round(rng, slots, write_classes) -> list[Request]:
    requests = []
    for size, verify, fmt in slots:
        lo = rng.randint(-(3 * size) // 2, size // 2)
        hi = lo + size - 1
        argv = ("pants", f"--n={lo}..{hi}") + ("--verify",) * verify + _format_flags(fmt)
        expect = {"lo": lo, "hi": hi, "verify": verify, "format": fmt}
        requests.append(Request(argv, expect, size))
    return requests


# ---------------------------------------------------------------------------

_ROUNDS = {
    "alexander": (alexander_round, ALEXANDER_SLOTS, sorted(set(s for s in ALEXANDER_SLOTS if s[0] <= 3))),
    "twistlb": (twistlb_round, TWISTLB_SLOTS, sorted(set(s for s in TWISTLB_SLOTS if s[0] <= 3))),
    "scl": (
        scl_round,
        (SCL_SINGLE_EXPONENTS, SCL_SWEEP_SIZES, SCL_CHAIN_FACTORS),
        (SCL_SINGLE_EXPONENTS, SCL_SWEEP_SIZES[:3], SCL_CHAIN_FACTORS),
    ),
    "pants": (pants_round, PANTS_SLOTS, tuple(s for s in PANTS_SLOTS if s[0] <= 59)),
}


def make_round(
    workload: str, seed: int, index: int, files_dir: Path, root: Path, tiny: bool = False
) -> list[Request]:
    """Round ``index`` of ``workload``; tiny rounds keep only the smallest slots.

    A combined workload's round is one round of each of its parts.  The
    requests are shuffled, so that copies of one shape are spread over the
    round's duration instead of meeting one moment's machine speed.
    """
    requests = []
    for part in COMBINED.get(workload, (workload,)):
        build, slots, tiny_slots = _ROUNDS[part]

        def write_classes(slot: int, text: str, part=part) -> str:
            """Write a classes file; return its path as the program is given it."""
            files_dir.mkdir(parents=True, exist_ok=True)
            path = files_dir / f"classes-r{index}-{part}-s{slot}.json"
            path.write_text(text)
            return str(path.relative_to(root) if path.is_relative_to(root) else path)

        rng = random.Random(f"{part}:{seed}:{index}")
        requests += build(rng, tiny_slots if tiny else slots, write_classes)
    random.Random(f"{workload}:{seed}:{index}").shuffle(requests)
    return requests
