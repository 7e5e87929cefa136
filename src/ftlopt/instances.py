"""Benchmark file parsing, instance transformation, and native JSON I/O.

The native JSON layout is the only interchange format between CLI commands;
it is described in docs/formats.md.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from operator import add, floordiv, mod, mul

from .model import (
    MINUTES_PER_DAY,
    CostModel,
    Horizon,
    Instance,
    RegParams,
    Request,
    SchemaError,
    TimeWindow,
    TravelMatrix,
    _conv,
    _finite,
    _list,
    _members,
    _number,
    _str,
    _whole,
    cents,
    d10_from_km,
    read_json,
    write_text,
)


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        # pickle rebuilds from the constructor's arguments, not the text
        return type(self), (self.line, self.message)


class TransformError(ValueError):
    pass


@dataclass(frozen=True)
class GhNode:
    id: int
    x: float
    y: float
    demand: int
    tw_start: int
    tw_end: int
    service: int


@dataclass(frozen=True)
class GhInstance:
    name: str
    nodes: tuple[GhNode, ...]


# the transformation's fixed rules; its cost model and driving rules are
# the CostModel() and RegParams() defaults
DAY_OPEN = 360    # 06:00
DAY_CLOSE = 1080  # 18:00
MU_PER_DAY_KM = 250
SLACK_DAYS = 7    # horizon past the last ready day


def parse_gh(text: str) -> GhInstance:
    """Read a whitespace-column benchmark file (depot plus customer rows)."""
    lines = text.splitlines()
    name = ""
    data_from = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if not name and len(stripped.split()) == 1:
            name = stripped
        if stripped.upper().startswith("CUST"):
            # both the section line and the column-header line match; the
            # node rows follow the last of them
            data_from = i + 1
    nodes = []
    for i in range(data_from, len(lines)):
        tokens = lines[i].split()
        if not tokens:
            continue
        if len(tokens) != 7:
            if nodes or data_from:
                raise ParseError(i + 1, f"expected 7 columns, got {len(tokens)}")
            continue
        try:
            nums = [float(t) for t in tokens[1:]]
            if not all(map(math.isfinite, nums)):
                raise ValueError
            x, y, *ints = nums
            nodes.append(GhNode(int(tokens[0]), x, y, *map(int, ints)))
        except ValueError:
            raise ParseError(
                i + 1, f"non-numeric or non-finite field in {lines[i].strip()!r}"
            ) from None
    if not nodes:
        raise ParseError(1, "no node rows found")
    return GhInstance(name, tuple(nodes))


def _euclid_matrix(coords: tuple[tuple[float, float], ...], nu: float) -> TravelMatrix:
    """Euclidean distances in d10, each rounded to the closest integer
    kilometre (halves up), with travel times at speed nu.

    Each pair is computed once, into the upper triangle; the matrix is that
    triangle plus its transpose.  math.dist is hypot of the differences, and
    the same float with the points swapped.
    """
    upper = []
    for i, a in enumerate(coords):
        km = map(math.floor, map(add, map(math.dist, repeat(a), coords[i + 1 :]), repeat(0.5)))
        upper.append([0] * (i + 1) + list(map(mul, km, repeat(10))))
    dist = [list(map(add, row, col)) for row, col in zip(upper, zip(*upper))]
    return TravelMatrix.from_distances(dist, nu)


def transform(gh: GhInstance, factor: int = 6) -> Instance:
    """Turn a benchmark instance into a multi-day full-truck-load instance.

    Node 0 (the depot) is dropped; node n and N/2 + n become the pickup and
    delivery of request n.  Distances and pickup start times are stretched
    by the factor, locations open daily between DAY_OPEN and DAY_CLOSE, and
    the minimum driven distance scales with the number of days that have
    pickups.
    """
    by_id = {}
    for node in gh.nodes:
        if by_id.setdefault(node.id, node) is not node:
            raise TransformError(f"node {node.id} appears twice")
    if 0 not in by_id:
        raise TransformError("node 0 (depot) not found")
    customers = sorted((n for n in gh.nodes if n.id != 0), key=lambda n: n.id)
    n = len(customers)
    if not n:
        raise TransformError("no customer nodes")
    if n % 2:
        raise TransformError(f"{n} non-depot nodes cannot be paired")
    half = n // 2
    for i in range(1, n + 1):
        if i not in by_id:
            raise TransformError(f"node {i} missing; ids must be consecutive")

    if factor < 1:
        raise TransformError(f"factor {factor} must be at least 1")

    index = {node.id: k for k, node in enumerate(customers)}
    coords = []
    for node in customers:
        # the reader's bound, so that every written file reads back
        try:
            coords.append((_coord(factor * node.x), _coord(factor * node.y)))
        except (ValueError, OverflowError) as exc:
            raise TransformError(f"factor {factor}: node {node.id}: stretched x/y {exc}") from None
    coords = tuple(coords)
    regs = RegParams()
    matrix = _euclid_matrix(coords, regs.nu)

    ready_days = []
    for i in range(1, half + 1):
        ready_days.append((factor * by_id[i].tw_start) // MINUTES_PER_DAY)
    last_ready = max(ready_days)

    cost = CostModel()
    # each part checks itself when built, so a rejected part raises before
    # anything is built from it
    try:
        horizon = Horizon(0, last_ready + 1 + SLACK_DAYS)  # day 0 is a Monday
        requests = []
        for i in range(1, half + 1):
            pickup = index[i]
            delivery = index[half + i]
            day = ready_days[i - 1]
            pickup_window = TimeWindow(
                day * MINUTES_PER_DAY + DAY_OPEN, day * MINUTES_PER_DAY + DAY_CLOSE
            )
            # a checked horizon and pickup day bound the number of windows
            delivery_windows = tuple(
                TimeWindow(d * MINUTES_PER_DAY + DAY_OPEN, d * MINUTES_PER_DAY + DAY_CLOSE)
                for d in range(day, horizon.days)
            )
            direct = matrix.distance[pickup][delivery]
            # co-located pairs exist in some benchmark files; a request still
            # needs a positive outsourcing price
            price = max(1, cost.sm_price(direct))
            requests.append(Request(i, pickup, delivery, pickup_window, delivery_windows, price))

        mu_d10 = 10 * MU_PER_DAY_KM * len(set(ready_days))
        return Instance(
            requests=tuple(requests),
            matrix=matrix,
            cost=cost,
            regs=regs,
            mu_d10=mu_d10,
            horizon=horizon,
            name=gh.name,
            coords=coords,
        )
    except ValueError as exc:
        raise TransformError(f"factor {factor}: {exc}") from None


# ---------------------------------------------------------------------------
# native JSON format


def _km_out(d10: int):
    return d10 // 10 if d10 % 10 == 0 else d10 / 10


def _km_row_out(row) -> list:
    """_km_out of every cell of a row; a row of whole kilometres in one pass."""
    if any(map(mod, row, repeat(10))):
        return list(map(_km_out, row))
    return list(map(floordiv, row, repeat(10)))


def _money_out(c: int):
    return c // 100 if c % 100 == 0 else c / 100


def instance_to_dict(instance: Instance) -> dict:
    locations = []
    for i in range(instance.matrix.n_locations):
        loc: dict = {"id": i}
        if instance.coords is not None:
            x, y = instance.coords[i]
            loc["x"] = x
            loc["y"] = y
        locations.append(loc)
    cost: dict = {
        "kappa": _money_out(instance.cost.kappa_cents),
        "sm_tiers": [
            [None if b is None else _km_out(b), _money_out(r)] for b, r in instance.cost.sm_tiers
        ],
    }
    return {
        "name": instance.name,
        "locations": locations,
        "matrix": {
            "distance": list(map(_km_row_out, instance.matrix.distance)),
            "time": [list(row) for row in instance.matrix.time],
        },
        "requests": [
            {
                "id": r.id,
                "origin": r.origin,
                "destination": r.destination,
                "pickup_window": {"start": r.pickup_window.start, "end": r.pickup_window.end},
                "delivery_windows": [{"start": w.start, "end": w.end} for w in r.delivery_windows],
                "sm_price": _money_out(r.sm_price_cents),
            }
            for r in instance.requests
        ],
        "cost": cost,
        "regs": {
            "tau_n": instance.regs.tau_n,
            "tau_b": instance.regs.tau_b,
            "tau_s": instance.regs.tau_s,
            "sigma": instance.regs.sigma,
            "nu": instance.regs.nu if not float(instance.regs.nu).is_integer() else int(instance.regs.nu),
        },
        "mu": _km_out(instance.mu_d10),
        "horizon": {"origin_weekday": instance.horizon.origin_weekday, "days": instance.horizon.days},
    }


def _nested(value) -> bool:
    return isinstance(value, list) and any(isinstance(x, (list, dict)) for x in value)


def _layout(value, pad: str = "") -> str:
    """value as JSON text, one item per line.  The document, and an object
    whose members are all lists of lists or objects (the matrix), have one
    member per line; such a list has one element per line.  Everything else,
    each location, request and matrix row among it, is one json.dumps call,
    which runs the C encoder; any indent would make json fall back to its
    pure-Python one."""
    inner = pad + "  "
    if isinstance(value, dict) and (not pad or all(map(_nested, value.values()))):
        members = (f"{inner}{json.dumps(k)}: {_layout(v, inner)}" for k, v in value.items())
        return "{\n" + ",\n".join(members) + f"\n{pad}}}"
    if _nested(value):
        return "[\n" + ",\n".join(inner + json.dumps(x) for x in value) + f"\n{pad}]"
    return json.dumps(value)


def write_instance(instance: Instance, path: str) -> None:
    write_text(path, _layout(instance_to_dict(instance)))


@contextmanager
def _at(pointer: str):
    """Build a part under its pointer: a constructor's ValueError raises
    SchemaError at pointer, and a converter's SchemaError passes unchanged."""
    try:
        yield
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from None


# Upper bounds on read distances (matrix cells, tier bounds, mu) and money
# values (prices, kappa, tier rates).  A cost total is a sum of a few
# thousand products of the two at most, so it stays far inside float range,
# which the annealing temperature and the acceptance test compute in.
MAX_KM = 10**9
MAX_EUR = 10**12


def _at_most(v, limit, bound: str):
    """v, unless it exceeds limit, which the text bound names."""
    if v > limit:
        raise ValueError(f"more than {bound}")
    return v


def _coord(x) -> float:
    """A coordinate in km.  Within MAX_KM / 4 of 0 on both axes, any two
    locations are less than MAX_KM apart, also under the euclidean directive."""
    v = _finite(x)
    _at_most(abs(v), MAX_KM / 4, f"{MAX_KM // 4} km from 0")
    return v


def _km(x) -> int:
    return _at_most(d10_from_km(_number(x)), 10 * MAX_KM, f"{MAX_KM} km")


def _money(x) -> int:
    return _at_most(cents(_number(x)), 100 * MAX_EUR, f"{MAX_EUR} EUR")


def _km_row(row: list) -> list[int]:
    """_km of every cell of a row of JSON numbers: d10_from_km is
    int(round(float(x) * 10)), an int times a float multiplies float(x), and
    round of a float is already an int."""
    out = list(map(round, map(mul, row, repeat(10.0))))
    _at_most(max(out), 10 * MAX_KM, f"{MAX_KM} km")
    return out


def _whole_row(row: list) -> list[int]:
    """_whole of every cell of a row of JSON numbers: int of NaN or inf
    raises, and int of a fractional number differs from it."""
    out = list(map(int, row))
    if out != row:
        raise ValueError("a cell is not a whole number")
    return out


def _grid(rows, where: str, conv, row_conv, n: int) -> list[list]:
    """An n x n list of lists with every cell through conv; a wrong shape or
    a rejected cell raises SchemaError with its pointer.

    A row whose cells are all JSON numbers goes whole through row_conv,
    which returns what conv returns cell by cell.  Only a row that holds
    another type, or that row_conv rejects, goes through conv cell by cell,
    which names the rejected cell.
    """
    if len(_conv(rows, where, _list)) != n:
        raise SchemaError(where, f"expected {n} rows")
    out = []
    for i, row in enumerate(rows):
        if len(_conv(row, f"{where}/{i}", _list)) != n:
            raise SchemaError(f"{where}/{i}", f"expected {n} cells")
        if set(map(type, row)) <= {int, float}:
            try:
                out.append(row_conv(row))
                continue
            except (ValueError, OverflowError):
                pass
        out.append([_conv(v, f"{where}/{i}/{j}", conv) for j, v in enumerate(row)])
    return out


def _window(obj, where: str) -> TimeWindow:
    return TimeWindow(**_members(obj, where, {"start": _whole, "end": _whole}))


def instance_from_dict(doc: dict) -> Instance:
    doc = _members(doc, "", {
        "name": _str, "locations": _list, "matrix": None, "requests": _list,
        "cost": None, "regs": None, "mu": _km, "horizon": None,
    }, ("name",))
    locations = []
    for i, loc in enumerate(doc["locations"]):
        where = f"/locations/{i}"
        locations.append(_members(loc, where, {"id": _whole, "x": _coord, "y": _coord}, ("x", "y")))
        if locations[i]["id"] != i:
            raise SchemaError(f"{where}/id", "ids must be 0..n-1 in order")
    n = len(locations)
    coords = None
    if locations and all(len(loc) == 3 for loc in locations):  # x and y on every location
        coords = tuple((loc["x"], loc["y"]) for loc in locations)

    with _at("/regs"):
        regs = RegParams(**_members(doc["regs"], "/regs", {
            "tau_n": _whole, "tau_b": _whole, "tau_s": _whole, "sigma": _whole, "nu": _finite,
        }))

    with _at("/matrix"):
        if doc["matrix"] == "euclidean":
            if coords is None:
                raise SchemaError("/matrix", "euclidean directive needs x/y on every location")
            matrix = _euclid_matrix(coords, regs.nu)
        else:
            grids = _members(doc["matrix"], "/matrix", {"distance": None, "time": None}, ("time",))
            dist = _grid(grids["distance"], "/matrix/distance", _km, _km_row, n)
            if "time" in grids:
                time = _grid(grids["time"], "/matrix/time", _whole, _whole_row, n)
                matrix = TravelMatrix(n, tuple(map(tuple, dist)), tuple(map(tuple, time)))
            else:
                matrix = TravelMatrix.from_distances(dist, regs.nu)

    kappa, sm_tiers = _members(doc["cost"], "/cost", {"kappa": _money, "sm_tiers": _list}).values()
    tiers = []
    for i, tier in enumerate(sm_tiers):
        where = f"/cost/sm_tiers/{i}"
        if len(_conv(tier, where, _list)) != 2:
            raise SchemaError(where, "expected [bound, rate]")
        bound = None if tier[0] is None else _conv(tier[0], f"{where}/0", _km)
        tiers.append((bound, _conv(tier[1], f"{where}/1", _money)))
    with _at("/cost"):
        cost = CostModel(kappa, tuple(tiers))

    with _at("/horizon"):
        horizon = Horizon(
            **_members(doc["horizon"], "/horizon", {"origin_weekday": _whole, "days": _whole})
        )

    requests = []
    for i, rd in enumerate(doc["requests"]):
        where = f"/requests/{i}"
        rid, origin, destination, pickup, deliveries, price = _members(rd, where, {
            "id": _whole, "origin": _whole, "destination": _whole,
            "pickup_window": None, "delivery_windows": _list, "sm_price": _money,
        }).values()
        with _at(where):
            requests.append(Request(
                rid, origin, destination,
                _window(pickup, f"{where}/pickup_window"),
                tuple(
                    _window(w, f"{where}/delivery_windows/{k}") for k, w in enumerate(deliveries)
                ),
                price,
            ))

    # the instance reports its own faults at /mu and /requests/<i>
    return Instance(
        requests=tuple(requests),
        matrix=matrix,
        cost=cost,
        regs=regs,
        mu_d10=doc["mu"],
        horizon=horizon,
        name=doc.get("name", ""),
        coords=coords,
    )


def read_instance(path: str) -> Instance:
    return instance_from_dict(read_json(path))
