"""The serving RPC's encode-once / parse-once fast path.

``wire.encode`` and ``wire.decode`` are the reference codec.  The fast
path (``encode_flat`` plus per-record ``RecordFragment``s, and decode
hints seeded on every frame) must produce the reference bytes exactly and
hand receivers exactly what the reference decoder would return.  The
world tests pin that on live traffic and check that ``parse_once=False``
still decodes every frame without moving the simulation.
"""

import json
from dataclasses import replace

from hypothesis import given, strategies as st

from repro.net import Network
from repro.sdp.base import ServiceRecord
from repro.serving import frontend as frontend_module, wire
from repro.world import World
from repro.world.scenarios import serving_backbone_spec

from world.test_catalog_golden import invariant_extras

# Characters JSON must escape or that ``ensure_ascii`` rewrites.
AWKWARD = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "€",
                           " ", "😀"])
TEXT = st.text(st.one_of(AWKWARD, st.characters()), max_size=10)

RECORDS = st.builds(
    ServiceRecord,
    service_type=TEXT,
    url=TEXT,
    attributes=st.dictionaries(TEXT, TEXT, max_size=3),
    lifetime_s=st.integers(min_value=-(2**40), max_value=2**40),
    source_sdp=TEXT,
    location=st.one_of(st.just(""), TEXT),
)
STAMPS = st.integers(min_value=0, max_value=2**40)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8,
)


@given(record=RECORDS, stamp=STAMPS)
def test_fragment_renders_the_reference_record(record, stamp):
    fragment = wire.record_fragment(record)
    assert fragment.to_wire(stamp) == wire.record_to_wire(record, stamp)
    assert fragment.render(stamp) == json.dumps(
        wire.record_to_wire(record, stamp), sort_keys=True
    )


@given(message=st.dictionaries(TEXT, JSON_VALUES, max_size=8))
def test_flat_encoder_equals_reference_on_any_string_keyed_object(message):
    assert wire.encode_flat(message) == wire.encode(message)


@given(
    kind=st.sampled_from(wire.REQUEST_KINDS),
    rid=st.integers(min_value=0, max_value=2**31),
    service_type=TEXT,
    targets=st.lists(TEXT, max_size=4),
    districts=st.lists(st.integers(min_value=0, max_value=64), max_size=3),
    prefix=st.booleans(),
)
def test_flat_encoder_equals_reference_on_requests(
    kind, rid, service_type, targets, districts, prefix
):
    message = wire.request(kind, rid, st=service_type, url=service_type, targets=targets,
                           prefix=prefix, where={service_type: service_type})
    if districts:
        message["scope"] = {"districts": districts}
    payload = wire.encode_flat(message)
    assert payload == wire.encode(message)
    assert wire.decode(payload) == message


@given(
    rows=st.lists(st.tuples(RECORDS, STAMPS), max_size=5),
    rid=st.integers(min_value=0, max_value=2**31),
    ver=st.integers(min_value=0, max_value=2**31),
    served_by=TEXT,
    stale=st.booleans(),
    targets=st.lists(TEXT, max_size=3),
    districts=st.dictionaries(TEXT, st.integers(min_value=0, max_value=99), max_size=3),
    shape=st.sampled_from(["plain", "by_target", "districts", "miss_by_target"]),
)
def test_replies_encode_to_reference_bytes(
    rows, rid, ver, served_by, stale, targets, districts, shape
):
    """Replies built the way the frontend builds them: records from
    fragments, ``by_target`` arrays rendered per target, then the
    frontend's top-level fields."""
    fragment_rows = [(wire.record_fragment(record), stamp) for record, stamp in rows]
    if shape == "miss_by_target":
        per_target = {str(t): [] for t in targets}
        reply = wire.response(0, "miss", records=[], by_target=per_target)
        rendered = {"by_target": wire.render_object({t: "[]" for t in per_target})}
    else:
        reply, rendered = frontend_module._ok(fragment_rows)
    if shape == "by_target":
        per_target, texts = {}, {}
        for i, target in enumerate(targets):
            per_target[target], texts[target] = frontend_module._render(
                fragment_rows[i::len(targets)]
            )
        reply["by_target"] = per_target
        rendered["by_target"] = wire.render_object(texts)
    elif shape == "districts":
        reply["districts"] = districts
    reply["rid"] = rid
    reply["ver"] = ver
    reply["served_by"] = served_by
    if stale:
        reply["stale"] = True
    payload = wire.encode_flat(reply, rendered)
    assert payload == wire.encode(reply)
    assert wire.decode(payload) == reply


# -- live traffic --------------------------------------------------------------

SMALL = dict(
    members=3, nodes=30, service_types=4, cold_types=1, clients_per_leaf=2,
    queries_per_client=30, mean_interval_us=15_000, batch_every=4, url_every=3,
    districts_every=5, run_us=2_500_000,
)


def run_small(parse_once=True):
    world = World.build(serving_backbone_spec(**SMALL), seed=5, parse_once=parse_once)
    world.net.scheduler.fire_log = []
    world.run_workload()
    return world


def test_every_serving_frame_carries_a_hint_equal_to_its_decode(monkeypatch):
    seen = []
    send = Network.send_datagram

    def capture(self, sender, source, destination, payload, decode_hint=None, origin=None):
        if decode_hint is not None and decode_hint[0] == wire.WIRE_MEMO_KEY:
            seen.append((payload, decode_hint[1]))
        return send(self, sender, source, destination, payload, decode_hint, origin)

    monkeypatch.setattr(Network, "send_datagram", capture)
    world = run_small()
    kinds = {}
    for payload, hint in seen:
        assert payload == wire.encode(hint)
        assert wire.decode(payload) == hint
        kinds[hint["kind"]] = kinds.get(hint["kind"], 0) + 1
    rows = world.load_groups["query"]
    sent = sum(row["sent"] for row in rows)
    assert kinds.pop("resp") == sum(row["responses"] for row in rows) > 0
    assert sum(kinds.values()) == sent and set(kinds) == set(wire.REQUEST_KINDS)
    assert sum(row["decode_errors"] for row in rows) == 0
    # Replies exercised records, per-target arrays and district maps.
    replies = [hint for _, hint in seen if hint["kind"] == "resp"]
    assert any(r["records"] for r in replies)
    assert any(r.get("by_target") for r in replies)
    assert any(r.get("districts") for r in replies)


def test_parse_once_off_decodes_every_frame_and_changes_nothing(monkeypatch):
    decodes = []
    reference_decode = wire.decode

    def counting_decode(payload):
        decodes.append(payload)
        return reference_decode(payload)

    monkeypatch.setattr(wire, "decode", counting_decode)
    shared = run_small(parse_once=True)
    shared_decodes = len(decodes)
    decodes.clear()
    unshared = run_small(parse_once=False)

    assert shared.net.scheduler.fire_log == unshared.net.scheduler.fire_log
    assert len(shared.net.scheduler.fire_log) > 500
    assert shared.load_groups["query"] == unshared.load_groups["query"]
    shared_outcome, unshared_outcome = shared.outcome(), unshared.outcome()
    assert invariant_extras(shared_outcome.extras) == invariant_extras(unshared_outcome.extras)
    assert replace(shared_outcome, world=None, extras=None) == replace(
        unshared_outcome, world=None, extras=None
    )
    # Hints remove every serving decode; without them each receiver of
    # each request and reply decodes once.
    rows = shared.load_groups["query"]
    assert shared_decodes == 0
    assert len(decodes) == sum(row["sent"] + row["responses"] for row in rows)
