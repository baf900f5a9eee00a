"""Instance I/O, seeded generators for utility domains, and worked examples.

The text format is line oriented: a header ``n m``, then n rows of m
whitespace-separated nonnegative rationals written as ``p`` or ``p/q``.
Lines starting with ``#`` and blank lines are ignored. The same format
serves utility matrices (instances) and bid matrices.

Generators are deterministic functions of their spec, including the seed,
so suites can be reproduced byte for byte.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Optional, Sequence, Union

from .core import (
    Allocation,
    AllocationDistribution,
    BidProfile,
    FairDivError,
    Instance,
    ItemCounts,
    Value,
    as_value,
    format_value,
    marginal_counts,
)
from .mechanisms import Mechanism, like, maximum_like

DOMAIN_NAMES = (
    "general",
    "nonzero",
    "binary",
    "identical-cardinal",
    "identical-ordinal",
    "borda",
    "lexicographic",
)


class ParseError(FairDivError):
    """Malformed instance or bid text."""


_TOKEN = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_rational(token: str) -> Value:
    """Parse 'p' or 'p/q' into an exact nonnegative rational."""
    m = _TOKEN.match(token)
    if not m:
        raise ParseError(f"bad rational {token!r}; expected 'p' or 'p/q'")
    num = int(m.group(1))
    if m.group(2) is None:
        return num
    den = int(m.group(2))
    if den == 0:
        raise ParseError(f"zero denominator in {token!r}")
    return as_value(Fraction(num, den))


def _parse_matrix(text: str, what: str) -> tuple[tuple[Value, ...], ...]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise ParseError(f"empty {what}")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 1 or m < 0:
        raise ParseError(f"header out of range: n={n}, m={m}")
    body = lines[1:]
    if m == 0:
        if body:
            raise ParseError("no rows expected when m = 0")
        return tuple(() for _ in range(n))
    if len(body) != n:
        raise ParseError(f"expected {n} rows, found {len(body)}")
    rows = []
    for line in body:
        toks = line.split()
        if len(toks) != m:
            raise ParseError(f"expected {m} values per row, got {len(toks)} in {line!r}")
        rows.append(tuple(parse_rational(t) for t in toks))
    return tuple(rows)


def parse_instance(text: str) -> Instance:
    try:
        return Instance(_parse_matrix(text, "instance"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_bids(text: str) -> BidProfile:
    try:
        return BidProfile(_parse_matrix(text, "bid profile"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_instance(instance: Instance) -> str:
    lines = [f"{instance.n} {instance.m}"]
    if instance.m:
        for row in instance.utilities:
            lines.append(" ".join(format_value(x) for x in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DomainSpec:
    """Deterministic recipe for one random instance.

    ``bound`` caps the magnitude of generated values. Non-integer domains
    draw every value on the grid k/6.
    """

    domain: str
    n: int
    m: int
    seed: int
    bound: int = 3

    def __post_init__(self) -> None:
        if self.domain not in DOMAIN_NAMES:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.n < 1:
            raise ValueError("need at least one agent")
        if self.m < 0:
            raise ValueError("negative item count")
        if self.bound < 1:
            raise ValueError("bound must be positive")


def generate(spec: DomainSpec) -> Instance:
    """Draw one instance from the domain, deterministically from the seed."""
    rng = random.Random(spec.seed)
    n, m = spec.n, spec.m
    d = 6  # every non-integer domain draws its values on the grid k/6
    top = spec.bound * d

    def frac(k: int) -> Value:
        return as_value(Fraction(k, d))

    rows: list[list[Value]]
    if spec.domain == "general":
        rows = [[frac(rng.randint(0, top)) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(rows[i][j] == 0 for i in range(n)):
                rows[rng.randrange(n)][j] = frac(rng.randint(1, top))
    elif spec.domain == "nonzero":
        rows = [[frac(rng.randint(1, top)) for _ in range(m)] for _ in range(n)]
    elif spec.domain == "binary":
        rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(rows[i][j] == 0 for i in range(n)):
                rows[rng.randrange(n)][j] = 1
    elif spec.domain == "identical-cardinal":
        base = [frac(rng.randint(1, top)) for _ in range(m)]
        rows = [list(base) for _ in range(n)]
    elif spec.domain == "identical-ordinal":
        ranking = list(range(m))
        rng.shuffle(ranking)
        span = max(top, m)
        rows = []
        for _ in range(n):
            vals = sorted(rng.sample(range(1, span + 1), m), reverse=True)
            row: list[Value] = [0] * m
            for rank, j in enumerate(ranking):
                row[j] = frac(vals[rank])
            rows.append(row)
    elif spec.domain == "borda":
        rows = []
        for _ in range(n):
            row = list(range(1, m + 1))
            rng.shuffle(row)
            rows.append(row)
    elif spec.domain == "lexicographic":
        rows = []
        for _ in range(n):
            row = [2**k for k in range(m)]
            rng.shuffle(row)
            rows.append(row)
    else:  # pragma: no cover - guarded by DomainSpec
        raise ValueError(spec.domain)
    instance = Instance(tuple(tuple(r) for r in rows))
    assert validate_domain(instance, spec.domain)
    return instance


def validate_domain(instance: Instance, domain: str) -> bool:
    """Independent membership test, not tied to how instances are generated."""
    if domain not in DOMAIN_NAMES:
        raise ValueError(f"unknown domain {domain!r}")
    rows = instance.utilities
    if domain == "general":
        return True
    if domain == "nonzero":
        return all(x > 0 for row in rows for x in row)
    if domain == "binary":
        return all(x in (0, 1) for row in rows for x in row)
    if domain == "identical-cardinal":
        return all(row == rows[0] for row in rows)
    if domain == "identical-ordinal":
        m = instance.m

        def ranking(row: Sequence[Value]) -> Optional[tuple[int, ...]]:
            if len(set(row)) != len(row) or any(x <= 0 for x in row):
                return None
            return tuple(sorted(range(m), key=lambda j: (-row[j], j)))

        first = ranking(rows[0])
        if first is None:
            return False
        return all(ranking(r) == first for r in rows[1:])
    if domain == "borda":
        return all(sorted(row) == list(range(1, instance.m + 1)) for row in rows)
    if domain == "lexicographic":
        want = [2**k for k in range(instance.m)]
        return all(sorted(row) == want for row in rows)
    raise AssertionError(domain)


@dataclass(frozen=True)
class ConstructedMechanism:
    """A base mechanism with finitely many hand-picked exceptions.

    Each override pairs an observed bid matrix with a fixed distribution to
    return instead of running the base mechanism. Matching is on the bids
    alone, which is all a mechanism can see. It is on the exact bids, so
    the mechanism's bid view (see `Mechanism.view`) is "bids" whatever the
    base's is.
    """

    name: str
    base: Mechanism
    overrides: tuple[tuple[tuple[tuple[Value, ...], ...], AllocationDistribution], ...]
    view: ClassVar[str] = "bids"

    def __post_init__(self) -> None:
        # each matrix is checked as a bid matrix and kept exact, so it
        # matches exactly the bid profiles equal to it
        overrides = tuple((BidProfile(mat).bids, dist) for mat, dist in self.overrides)
        for mat, dist in overrides:
            if len(mat) != dist.n or len(mat[0]) != dist.m:
                raise ValueError("override distribution shape differs from its bid matrix")
        object.__setattr__(self, "overrides", overrides)

    def _override(self, instance: Instance, bids: Optional[BidProfile],
                  ) -> tuple[BidProfile, Optional[AllocationDistribution]]:
        """The checked bids, and the override distribution they select."""
        bids = BidProfile.for_instance(instance, bids)
        for mat, dist in self.overrides:
            if bids.bids == mat:
                return bids, dist
        return bids, None

    def run(self, instance: Instance,
            bids: Optional[BidProfile] = None) -> AllocationDistribution:
        bids, dist = self._override(instance, bids)
        if dist is not None:
            # rebind to the caller's instance; the outcome depends on
            # the observed bids only
            return AllocationDistribution._trusted(
                instance, dict(zip(dist.owners, dist.weights)), dist.scale)
        return self.base.run(instance, bids)

    def item_counts(self, instance: Instance,
                    bids: Optional[BidProfile] = None) -> tuple[ItemCounts, int]:
        """Integer item marginals (counts, L) of `run`'s distribution, as
        `Mechanism.item_counts` gives them; L is the lcm of an override's
        probability denominators."""
        bids, dist = self._override(instance, bids)
        if dist is None:
            return self.base.item_counts(instance, bids)
        return marginal_counts(dist)


def worked_example(eid: int) -> tuple[Instance, Optional[ConstructedMechanism]]:
    """The library's four built-in worked examples.

    1: two agents with swapped preferences over two items; the instance on
       which the six built-in mechanisms all differ in instructive ways.
    2: a mechanism that behaves like ``like`` everywhere except that on one
       instance it gives the second item to agent 2 with probability
       3/4; envy-free ex ante without matching like's marginals.
    3: two agents with close values; its Pareto frontier contains a split
       allocation that dictatorship-style mechanisms never return.
    4: a mechanism that behaves like ``maximum-like`` everywhere except on
       the first example's instance, where agent 1 keeps item 1 surely and
       item 2 with probability 3/4; the exception leaves agent 1 strictly
       better off than under ``maximum-like`` while mixing in a dominated
       allocation, so the mechanism is Pareto efficient neither ex post nor
       ex ante.
    """
    if eid == 1:
        return Instance(((1, 2), (2, 1))), None
    if eid == 2:
        inst = Instance(((1, 1), (0, 1)))
        # the tilt must lie in (1/2, 1] for the override to stay envy-free
        # ex ante
        tilt = Fraction(3, 4)
        dist = AllocationDistribution.from_map(
            inst, {Allocation((0, 1)): tilt, Allocation((0, 0)): 1 - tilt})
        mech = ConstructedMechanism("like-with-tilt", like(), ((inst.utilities, dist),))
        return inst, mech
    if eid == 3:
        return Instance(((1, 4), (2, 3))), None
    if eid == 4:
        inst = Instance(((1, 2), (2, 1)))
        # epsilon must lie in (0, 1/2): above 0 to mix in the dominated
        # allocation, below 1/2 to leave agent 1 better off than under
        # maximum-like
        epsilon = Fraction(1, 4)
        dist = AllocationDistribution.from_map(
            inst, {Allocation((0, 0)): 1 - epsilon, Allocation((0, 1)): epsilon}
        )
        mech = ConstructedMechanism(
            "maximum-like-with-exception", maximum_like(), ((inst.utilities, dist),)
        )
        return inst, mech
    raise ValueError(f"no worked example {eid}; valid ids are 1..4")


WORKED_EXAMPLE_IDS = (1, 2, 3, 4)

Labeled = tuple[str, Instance]


def counterexample_instances() -> list[Labeled]:
    """Small named instances that witness axiom failures quickly.

    Suites put these ahead of random fill so that searches for expected
    failures terminate on the first few instances.
    """
    data: list[tuple[str, Sequence[Sequence[int]]]] = [
        ("two-agent-swap", [[1, 2], [2, 1]]),
        ("one-sided-second-item", [[1, 1], [0, 1]]),
        ("close-values", [[1, 4], [2, 3]]),
        ("identical-ascending", [[1, 2], [1, 2]]),
        ("identical-spread", [[1, 3], [1, 3]]),
        ("all-ones", [[1, 1, 1], [1, 1, 1]]),
        ("binary-three-agents", [[1, 1, 1], [1, 1, 0], [1, 0, 1]]),
        ("zero-corner", [[1, 2], [0, 1]]),
        ("steep-second-agent", [[1, 2], [2, 4]]),
        ("uneven-pair", [[2, 1], [3, 1]]),
    ]
    return [(label, Instance(rows)) for label, rows in data]


def random_suite(count: int, seed: int, *,
                 domains: Sequence[str] = DOMAIN_NAMES,
                 n_range: tuple[int, int] = (2, 3),
                 m_range: tuple[int, int] = (2, 3),
                 bound: int = 3) -> list[Labeled]:
    """A deterministic mixed-domain suite of ``count`` labeled instances."""
    if not domains:
        raise ValueError("a random suite needs at least one domain")
    master = random.Random(seed)
    out: list[Labeled] = []
    for idx in range(count):
        domain = domains[idx % len(domains)]
        n = master.randint(*n_range)
        m = master.randint(*m_range)
        child = master.randrange(1 << 30)
        inst = generate(DomainSpec(domain, n, m, seed=child, bound=bound))
        out.append((f"r{idx:03d}-{domain}-n{n}m{m}", inst))
    return out


# --- suite manifests -------------------------------------------------------

def expand_entries(entries: Iterable[dict]) -> list[Labeled]:
    """Expand manifest entries into labeled instances.

    Entry kinds:
      {"example": k}                      one worked example's instance
      {"utilities": [[...], ...]}         an inline matrix (values as 'p/q' strings or ints)
      {"random": {"count":..., "seed":..., ...}}   a random_suite block

    A malformed entry raises ValueError naming the entry.
    """
    out: list[Labeled] = []
    for pos, entry in enumerate(entries):
        try:
            out += _expand_entry(pos, entry)
        except KeyError as exc:
            raise ValueError(f"bad manifest entry {entry!r}: missing key {exc}") from None
        except (TypeError, ValueError, ParseError) as exc:
            raise ValueError(f"bad manifest entry {entry!r}: {exc}") from None
    return out


def _entry_int(value: object, key: str, minimum: Optional[int] = None) -> int:
    """A manifest integer: an int that is not a bool, at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{key!r} must be at least {minimum}, got {value}")
    return value


def _expand_entry(pos: int, entry: dict) -> list[Labeled]:
    if "example" in entry:
        eid = _entry_int(entry["example"], "example")
        inst, _ = worked_example(eid)
        return [(f"example-{eid}", inst)]
    if "utilities" in entry:
        rows = [tuple(parse_rational(x) if isinstance(x, str) else as_value(x) for x in row)
                for row in entry["utilities"]]
        return [(entry.get("label", f"inline-{pos}"), Instance(tuple(rows)))]
    if "random" in entry:
        params = dict(entry["random"])
        count = _entry_int(params.pop("count"), "count", 0)
        seed = _entry_int(params.pop("seed"), "seed")
        prefix = params.pop("label", f"blk{pos}")
        return [(f"{prefix}-{label}", inst) for label, inst in random_suite(count, seed, **params)]
    raise ValueError("expected an 'example', 'utilities' or 'random' key")


def _inline(label: str, inst: Instance) -> dict:
    return {
        "label": label,
        "utilities": [[format_value(x) for x in row] for row in inst.utilities],
    }


def build_table_manifest(per_block: int = 200, seed: int = 20240801) -> dict:
    """Default three-block manifest for the verdict table.

    Each block lists targeted counterexample instances first, then enough
    seeded random fill to reach ``per_block`` instances. A negative
    ``per_block`` is a ValueError.
    """
    if per_block < 0:
        raise ValueError(f"per-block suite size must be at least 0, got {per_block}")
    targeted = dict(counterexample_instances())
    general_names = list(targeted)
    identical_names = ["identical-ascending", "identical-spread", "all-ones"]
    binary_names = ["one-sided-second-item", "all-ones", "binary-three-agents"]

    def block(names: list[str], domains: Sequence[str], salt: int) -> list[dict]:
        entries = [_inline(name, targeted[name]) for name in names]
        fill = per_block - len(entries)
        if fill > 0:
            entries.append({
                "random": {
                    "count": fill,
                    "seed": seed + salt,
                    "domains": list(domains),
                    "n_range": [2, 3],
                    "m_range": [2, 3],
                    "bound": 3,
                }
            })
        return entries

    return {
        "blocks": {
            "general": block(
                general_names,
                ("general", "nonzero", "binary", "identical-cardinal", "borda", "lexicographic"),
                salt=1,
            ),
            "identical": block(identical_names, ("identical-cardinal",), salt=2),
            "binary": block(binary_names, ("binary",), salt=3),
        }
    }


def load_manifest(source: Union[str, dict]) -> dict[str, list[Labeled]]:
    """Parse a manifest (JSON text or dict) into labeled instances per block."""
    obj = json.loads(source) if isinstance(source, str) else source
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), dict):
        raise ValueError("manifest must have a 'blocks' object")
    for name, entries in obj["blocks"].items():
        if not isinstance(entries, list):
            raise ValueError(f"manifest block {name!r} must be a list of entries, got {entries!r}")
    return {name: expand_entries(entries) for name, entries in obj["blocks"].items()}
