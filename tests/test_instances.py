import copy
import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ftlopt.instances import (
    GhInstance,
    GhNode,
    ParseError,
    SchemaError,
    TransformError,
    instance_from_dict,
    instance_to_dict,
    parse_gh,
    read_instance,
    transform,
    write_instance,
)
from ftlopt import cli
from ftlopt.engine import AlnsConfig
from ftlopt.model import MAX_HORIZON_DAYS, travel_minutes
from ftlopt.scenarios import scenario_all_fct, scenario_mixed

from helpers import gh_instance, time_limit

DATA = os.path.join(os.path.dirname(__file__), "data")


def mini_text():
    with open(os.path.join(DATA, "gh_mini.txt"), "r", encoding="utf-8") as fh:
        return fh.read()


class TestParse:
    def test_mini_fixture(self):
        gh = parse_gh(mini_text())
        assert gh.name == "GH_MINI"
        assert len(gh.nodes) == 5
        assert gh.nodes[0] == GhNode(0, 50.0, 50.0, 0, 0, 1000, 0)
        assert gh.nodes[2].tw_start == 250

    def test_empty_file(self):
        with pytest.raises(ParseError) as err:
            parse_gh("")
        assert err.value.line == 1

    def test_errors_survive_pickling(self):
        # compare sends a failed search's exception across a process boundary
        import pickle

        for err in (ParseError(3, "bad"), SchemaError("/a", "bad"), SchemaError("/b")):
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is type(err) and str(back) == str(err)
            assert vars(back) == vars(err)
        assert pickle.loads(pickle.dumps(ParseError(3, "bad"))).line == 3
        assert pickle.loads(pickle.dumps(SchemaError("/a", "bad"))).pointer == "/a"

    def test_non_numeric_coordinate(self):
        bad = mini_text().replace("    1       0          0", "    1       x          0")
        with pytest.raises(ParseError) as err:
            parse_gh(bad)
        assert "non-numeric" in str(err.value)

    def test_real_layout_when_available(self):
        path = os.path.join(DATA, "gh", "C1_2_1.txt")
        if not os.path.exists(path):
            pytest.skip("public benchmark file not bundled; see README")
        gh = parse_gh(open(path).read())
        assert len(gh.nodes) == 201  # depot + 200 customers


class TestTransform:
    def test_two_node_example(self):
        gh = GhInstance(
            "pair",
            (
                GhNode(0, 50, 50, 0, 0, 1000, 0),
                GhNode(1, 0, 0, 10, 0, 240, 90),
                GhNode(2, 0, 70, 10, 0, 240, 90),
            ),
        )
        inst = transform(gh)
        assert len(inst.requests) == 1
        r = inst.requests[0]
        assert inst.direct_d10(1) == 4200  # 6 * 70 km
        assert r.sm_price_cents == 48300  # 420 km at 1.15 -> 483.00
        assert inst.matrix.time[r.origin][r.destination] == 360
        assert r.pickup_window.start == 360
        assert r.pickup_window.end == 1080

    def test_ready_day_zero(self):
        gh = parse_gh(mini_text())
        inst = transform(gh)
        r1 = inst.request(1)
        assert (r1.pickup_window.start, r1.pickup_window.end) == (360, 1080)
        # request 2: tw_start 250 * 6 = 1500 -> day 1
        r2 = inst.request(2)
        assert (r2.pickup_window.start, r2.pickup_window.end) == (1440 + 360, 1440 + 1080)

    def test_mu_counts_days_with_pickups(self):
        # 100 requests whose pickups cover 10 distinct days -> 2,500 km
        nodes = [GhNode(0, 0, 0, 0, 0, 100_000, 0)]
        for i in range(1, 101):
            day = (i - 1) % 10
            nodes.append(GhNode(i, i % 50, (i * 3) % 50, 1, day * 240, day * 240 + 60, 90))
        for i in range(101, 201):
            nodes.append(GhNode(i, (i * 7) % 50 + 60, i % 50, 1, 0, 100_000, 90))
        inst = transform(GhInstance("bulk", tuple(nodes)))
        assert len(inst.requests) == 100
        assert inst.mu_d10 == 10 * 250 * 10

    def test_window_widths_and_ladder(self):
        inst = transform(parse_gh(mini_text()))
        for r in inst.requests:
            assert r.pickup_window.end - r.pickup_window.start == 720
            for k, w in enumerate(r.delivery_windows):
                assert w.end - w.start == 720
                if k:
                    assert w.start - r.delivery_windows[k - 1].start == 1440
            assert r.delivery_windows[0].start == r.pickup_window.start

    def test_request_count_is_half(self):
        inst = transform(parse_gh(mini_text()))
        assert len(inst.requests) == (5 - 1) // 2

    def test_co_located_pair_gets_token_price(self):
        gh = GhInstance(
            "dup",
            (
                GhNode(0, 0, 0, 0, 0, 1000, 0),
                GhNode(1, 10, 10, 1, 0, 100, 9),
                GhNode(2, 10, 10, 1, 0, 100, 9),
            ),
        )
        inst = transform(gh)
        assert inst.direct_d10(1) == 0
        assert inst.request(1).sm_price_cents == 1

    def test_odd_customer_count_rejected(self):
        gh = GhInstance(
            "odd",
            (
                GhNode(0, 0, 0, 0, 0, 100, 0),
                GhNode(1, 1, 1, 1, 0, 100, 9),
                GhNode(2, 2, 2, 1, 0, 100, 9),
                GhNode(3, 3, 3, 1, 0, 100, 9),
            ),
        )
        with pytest.raises(TransformError):
            transform(gh)

    def test_repeated_node_id_is_named(self):
        # a second row with id 3 would replace the first and leave node 4
        # missing; the repeated id itself is the fault
        gh = parse_gh(mini_text().replace("    4      30", "    3      30"))
        assert [node.id for node in gh.nodes] == [0, 1, 2, 3, 3]
        with pytest.raises(TransformError, match=r"^node 3 appears twice$"):
            transform(gh)

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(transform(parse_gh(mini_text())), str(a))
        write_instance(transform(parse_gh(mini_text())), str(b))
        assert a.read_bytes() == b.read_bytes()


from hypothesis import Phase, example, given, settings, strategies as st


class TestNativeFormatProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000_000))
    def test_round_trip_over_random_instances(self, seed):
        from helpers import micro_instance

        inst = micro_instance(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.json")
            write_instance(inst, path)
            assert read_instance(path) == inst
            with open(path, "r", encoding="utf-8") as fh:
                assert json.load(fh) == instance_to_dict(inst)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=12),
        st.sampled_from((70, 32.3, 0.7)),
    )
    def test_euclidean_matrix_is_hypot_per_ordered_pair(self, coords, nu):
        from ftlopt.instances import _euclid_matrix

        matrix = _euclid_matrix(tuple(coords), nu)
        for i, (xa, ya) in enumerate(coords):
            for j, (xb, yb) in enumerate(coords):
                km = int(math.floor(math.hypot(xa - xb, ya - yb) + 0.5))
                assert matrix.distance[i][j] == 10 * km
                assert matrix.time[i][j] == travel_minutes(10 * km, nu)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(
            st.one_of(
                st.integers(-10**6, 10**6),
                st.sampled_from((2**53 // 10, 2**53 // 10 + 1, -(2**53) // 10 - 1, 2**60 + 1, 10**400)),
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-2000, 2000).map(lambda k: k / 4),
                st.sampled_from(("12.5", "30", True, False, None)),
            ),
            min_size=n, max_size=n,
        ),
        min_size=n, max_size=n,
    )))
    def test_grid_rows_equal_the_cell_by_cell_conversion(self, rows):
        # whole-row conversion returns exactly what the scalar converters
        # return cell by cell, and names the same first rejected cell
        from ftlopt.instances import _grid, _km, _km_row, _whole, _whole_row

        for conv, row_conv in ((_km, _km_row), (_whole, _whole_row)):
            want, bad = [], None
            for i, row in enumerate(rows):
                try:
                    want.append([conv(v) for v in row])
                except (TypeError, ValueError, OverflowError):
                    j = next(j for j, v in enumerate(row) if not _converts(conv, v))
                    bad = f"/g/{i}/{j}"
                    break
            if bad is None:
                got = _grid(rows, "/g", conv, row_conv, len(rows))
                assert got == want
                assert all(type(v) is int for row in got for v in row)
            else:
                with pytest.raises(SchemaError) as err:
                    _grid(rows, "/g", conv, row_conv, len(rows))
                assert err.value.pointer == bad


def _converts(conv, value) -> bool:
    try:
        conv(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


class TestNativeFormat:
    def test_round_trip_identity(self, tmp_path):
        for name in ("gh_mini", "gh_syn_c1", "gh_syn_mix"):
            inst = gh_instance(name)
            p = tmp_path / f"{name}.json"
            write_instance(inst, str(p))
            assert read_instance(str(p)) == inst, name
            assert json.loads(p.read_text(encoding="utf-8")) == instance_to_dict(inst), name

    def test_written_layout_has_one_item_per_line(self, tmp_path):
        # each location, request and matrix row is one line, so that a
        # 200-location instance is a few hundred lines, not one per cell
        inst = gh_instance("gh_syn_c1")
        p = tmp_path / "c1.json"
        write_instance(inst, str(p))
        lines = p.read_text(encoding="utf-8").splitlines()
        assert len(lines) < 1000
        items = {line.strip().rstrip(",") for line in lines}
        doc = instance_to_dict(inst)
        for item in doc["locations"] + doc["matrix"]["distance"] + doc["requests"]:
            assert json.dumps(item) in items

    def test_missing_mu_pointer(self):
        window = "/requests/0/pickup_window"
        cases = (
            ("/mu", lambda doc: doc.pop("mu")),
            (f"{window}/start", lambda doc: doc["requests"][0]["pickup_window"].update(start="abc")),
            (f"{window}/start", lambda doc: doc["requests"][0]["pickup_window"].update(start=None)),
            ("/requests/0/sm_price", lambda doc: doc["requests"][0].update(sm_price=math.nan)),
            ("/requests", lambda doc: doc.update(requests=5)),
            ("/matrix/distance/0/1", lambda doc: doc["matrix"]["distance"][0].__setitem__(1, "x")),
            ("/cost/sm_tiers/0/1", lambda doc: doc["cost"]["sm_tiers"][0].__setitem__(1, math.nan)),
            ("/locations/0/x", lambda doc: doc["locations"][0].update(x="abc")),
            # a coordinate that would put two locations beyond the distance bound
            ("/locations/0/x",
             lambda doc: doc.update(matrix="euclidean") or doc["locations"][0].update(x=-1e308)),
            # fractional minutes are rejected, not truncated
            (f"{window}/start",
             lambda doc: doc["requests"][0]["pickup_window"].update(start=360.9)),
            ("/matrix/time/0/1", lambda doc: doc["matrix"]["time"][0].__setitem__(1, 12.7)),
            ("/regs/tau_n", lambda doc: doc["regs"].update(tau_n=450.5)),
            # each part check reports at its own pointer, never at "/"
            ("/cost", lambda doc: doc["cost"].update(sm_tiers=[])),
            ("/cost", lambda doc: doc["cost"].update(sm_tiers=[[350, 1.4], [150, 1.75], [None, 1.15]])),
            ("/matrix", lambda doc: doc["matrix"]["distance"][0].__setitem__(1, -1)),
            ("/mu", lambda doc: doc.update(mu=-1)),
            ("/name", lambda doc: doc.update(name=5)),
            # numeric fields take JSON numbers only, never strings or booleans
            ("/matrix/distance/0/1", lambda doc: doc["matrix"]["distance"][0].__setitem__(1, "12.5")),
            ("/matrix/distance/0/1", lambda doc: doc["matrix"]["distance"][0].__setitem__(1, True)),
            ("/matrix/time/0/1", lambda doc: doc["matrix"]["time"][0].__setitem__(1, "30")),
            (f"{window}/start", lambda doc: doc["requests"][0]["pickup_window"].update(start="360")),
            ("/requests/0/delivery_windows/0/end",
             lambda doc: doc["requests"][0]["delivery_windows"][0].update(end=True)),
            ("/requests/0/sm_price", lambda doc: doc["requests"][0].update(sm_price="99.5")),
            ("/requests/0/origin", lambda doc: doc["requests"][0].update(origin=False)),
            ("/locations/1/id", lambda doc: doc["locations"][1].update(id=True)),
            ("/locations/0/y", lambda doc: doc["locations"][0].update(y="12.0")),
            ("/regs/nu", lambda doc: doc["regs"].update(nu="70")),
            ("/regs/sigma", lambda doc: doc["regs"].update(sigma=True)),
            ("/mu", lambda doc: doc.update(mu="3250")),
            ("/cost/kappa", lambda doc: doc["cost"].update(kappa="1.06")),
            ("/cost/sm_tiers/0/0", lambda doc: doc["cost"]["sm_tiers"][0].__setitem__(0, "150")),
            # requests[].sm_price is the only price; the old override table is refused
            ("/cost/explicit_sm_prices",
             lambda doc: doc["cost"].update(explicit_sm_prices={"1": 12.5})),
            ("/horizon/days", lambda doc: doc["horizon"].update(days="20")),
        )
        for pointer, edit in cases:
            doc = instance_to_dict(transform(parse_gh(mini_text())))
            edit(doc)
            with pytest.raises(SchemaError) as err:
                instance_from_dict(doc)
            assert err.value.pointer == pointer

    def test_a_document_that_is_not_an_object_is_named_at_the_root(self):
        for doc in ([], "x", 5, None):
            with pytest.raises(SchemaError) as err:
                instance_from_dict(doc)
            assert str(err.value) == "/: not an object"

    def test_euclidean_directive(self):
        doc = instance_to_dict(transform(parse_gh(mini_text())))
        explicit = [row[:] for row in doc["matrix"]["distance"]]
        doc["matrix"] = "euclidean"
        inst = instance_from_dict(doc)
        # independent recomputation from the stored coordinates
        locs = [(l["x"], l["y"]) for l in doc["locations"]]
        for i in range(len(locs)):
            for j in range(len(locs)):
                want = 0 if i == j else int(
                    math.floor(math.hypot(locs[i][0] - locs[j][0], locs[i][1] - locs[j][1]) + 0.5)
                )
                assert inst.matrix.distance[i][j] == want * 10
                assert explicit[i][j] == want

    def test_format_doc_names_only_written_fields(self):
        text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
        example = text.split("## Native instance (JSON)", 1)[1].split("```json", 1)[1]
        keys = set(re.findall(r'"(\w+)":', example.split("```", 1)[0]))
        written: set = set()

        def collect(value):
            if isinstance(value, dict):
                written.update(value)
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    collect(item)

        collect(instance_to_dict(transform(parse_gh(mini_text()))))
        assert keys and keys <= written, sorted(keys - written)


# one field of the transformed gh_mini, set to one hostile value
HOSTILE_FIELDS = (
    "/locations/0/id", "/locations/0/x",
    "/matrix/distance/0/2", "/matrix/time/0/2",  # request 1's own leg
    "/requests/0/id", "/requests/0/origin", "/requests/0/pickup_window/start",
    "/requests/0/delivery_windows/0/end", "/requests/0/sm_price",
    # the checks against the instance (a repeated id, an unknown location,
    # a window past the horizon) fire only after the first request
    "/requests/1/id", "/requests/1/origin", "/requests/1/pickup_window/start",
    "/requests/1/delivery_windows/7/end",
    "/cost/kappa", "/cost/sm_tiers/0/0", "/cost/sm_tiers/0/1",
    "/regs/tau_n", "/regs/tau_b", "/regs/tau_s", "/regs/sigma", "/regs/nu",
    "/mu", "/horizon/days", "/horizon/origin_weekday",
    # whole objects: a value that is not an object names the object, and {}
    # names its first missing member
    "/regs", "/cost", "/horizon", "/matrix", "/locations/0", "/requests/0",
    "/requests/0/pickup_window", "/requests/0/delivery_windows/0",
)
HOSTILE_VALUES = (
    math.nan, math.inf, -math.inf, -1, 0, 0.5, 10**307, 10**400, 1e308, "1", True, None, [], {},
    # the longest horizon in days, and one day past it
    MAX_HORIZON_DAYS, MAX_HORIZON_DAYS + 1,
)
MINI_DOC = instance_to_dict(transform(parse_gh(mini_text())))
# the same instance with its distances computed from the coordinates
EUCLIDEAN_DOC = {**MINI_DOC, "matrix": "euclidean"}
EUCLIDEAN_FIELDS = (
    "/matrix", *(f"/locations/{i}/{axis}" for i in range(len(MINI_DOC["locations"])) for axis in "xy"),
)


def assert_named_or_harmless(base, field, value):
    """Either the reader names the field, an ancestor of it (never "/") or,
    at an object position, a member below it, or the document with the
    field set to value is sound enough for both searches to run within
    10 s."""
    doc = copy.deepcopy(base)
    *path, last = field[1:].split("/")
    node = doc
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    try:
        inst = instance_from_dict(doc)
    except SchemaError as err:
        assert err.pointer not in ("", "/"), err
        assert field == err.pointer or field.startswith(err.pointer + "/") or (
            isinstance(value, dict) and err.pointer.startswith(field + "/")
        ), err
        assert len(str(err)) < 200, str(err)
        return
    config = AlnsConfig(max_iterations=5, seed=1)
    with time_limit(10):
        scenario_mixed(inst, config)
        scenario_all_fct(inst, config)


class TestHostileInput:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(HOSTILE_FIELDS), st.sampled_from(HOSTILE_VALUES))
    def test_one_hostile_field_is_named_or_harmless(self, field, value):
        assert_named_or_harmless(MINI_DOC, field, value)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(EUCLIDEAN_FIELDS), st.sampled_from(HOSTILE_VALUES))
    def test_one_hostile_field_of_a_euclidean_document_is_named_or_harmless(self, field, value):
        assert_named_or_harmless(EUCLIDEAN_DOC, field, value)

    def test_rejected_values_name_their_bound_briefly(self):
        cases = (
            ("/requests/0/sm_price", "1000000000000 EUR",
             lambda doc: doc["requests"][0].update(sm_price=1e306)),
            ("/matrix/distance/0/2", "1000000000 km",
             lambda doc: doc["matrix"]["distance"][0].__setitem__(2, 10**307)),
        )
        for pointer, bound, edit in cases:
            doc = copy.deepcopy(MINI_DOC)
            edit(doc)
            with pytest.raises(SchemaError) as err:
                instance_from_dict(doc)
            assert err.value.pointer == pointer
            assert bound in str(err.value) and len(str(err.value)) < 200, str(err.value)

    def test_an_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        # json raises a bare ValueError for an integer of more than 4,300
        # digits, not a JSONDecodeError
        text = json.dumps(MINI_DOC).replace('"mu": 500', '"mu": ' + "9" * 5000)
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_instance(str(path))
        assert err.value.pointer == "/"


# columns of a benchmark node row, and values a hostile file may put there
GH_COLUMNS = {"id": 0, "x": 1, "y": 2, "ready": 4, "due": 5}
GH_VALUES = (
    "1e18", "-1e18", "1e308", "-1e308", "1e8", "-1e8", "4e7", "1e400", "nan", "inf", "-inf",
    "0", "-1", "0.5", "1.5", "abc", "99999999999999999999",
)


class TestHostileGhFile:
    # no shrinking: should a case hang again, its memory grows until the
    # time limit, so a failure is reported as found instead of re-run
    @settings(max_examples=150, deadline=None, phases=(Phase.explicit, Phase.generate))
    @example([(1, "ready", "1e18")]).via("a ready time that built unbounded windows")
    @example([(1, "x", "1e308")]).via("a coordinate that overflowed once stretched")
    @example([(1, "x", "1e8")]).via("a coordinate that the reader rejected once stretched")
    @given(st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(sorted(GH_COLUMNS)), st.sampled_from(GH_VALUES)),
        min_size=1, max_size=3,
    ))
    def test_transform_exits_2_or_writes_a_readable_file(self, edits):
        lines = mini_text().splitlines()
        rows = [i for i, line in enumerate(lines) if len(line.split()) == 7]
        for node, column, value in edits:
            tokens = lines[rows[node]].split()
            tokens[GH_COLUMNS[column]] = value
            lines[rows[node]] = "  ".join(tokens)
        with tempfile.TemporaryDirectory() as tmp:
            gh, out = os.path.join(tmp, "gh.txt"), os.path.join(tmp, "out.json")
            Path(gh).write_text("\n".join(lines) + "\n", encoding="utf-8")
            stderr = io.StringIO()
            with time_limit(2), redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = cli.main(["transform", "--gh", gh, "--out", out])
            if code == 2:
                assert stderr.getvalue().startswith("input error: "), stderr.getvalue()
                assert len(stderr.getvalue()) < 300, stderr.getvalue()
            else:
                assert code == 0
                read_instance(out)

