"""The SLP codec's encode-once fast path.

``wire._encode_reference`` (the ``_Writer`` encoder) and ``wire.decode``
are the reference codec.  ``wire.encode(message, memo)`` remembers
SrvRqst/SrvRply bodies and header prefixes in the sender's memo and
splices the XID in; it must produce the reference bytes exactly, for every
message type, on a cold memo and on a warm one, and reject exactly what
the reference rejects.
"""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.sdp.slp import (
    AttrRply,
    AttrRqst,
    DAAdvert,
    ErrorCode,
    Flags,
    FunctionId,
    Header,
    SAAdvert,
    SrvAck,
    SrvDeReg,
    SrvReg,
    SrvRply,
    SrvRqst,
    SrvTypeRply,
    SrvTypeRqst,
    UrlEntry,
    decode,
    encode,
)
from repro.net import Memo
from repro.sdp.slp import wire
from repro.sdp.slp.errors import SlpEncodeError
from repro.sdp.slp.messages import MESSAGE_TYPES

_CHARS = st.characters(blacklist_categories=("Cs",))
# Free text: commas, non-ASCII and empty strings all survive a round trip.
TEXT = st.one_of(
    st.sampled_from(["", ",", "a,b", "é", "€,x", "service:clock", "(model=cyber*)"]),
    st.text(_CHARS, max_size=12),
)
# List items are comma-joined on the wire, so each must be non-empty and
# comma-free to round-trip.
ITEM = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=","),
               min_size=1, max_size=8)
LIST = st.lists(ITEM, max_size=3).map(tuple)
XID = st.one_of(st.sampled_from([0, 1, 0xFFFF]), st.integers(0, 0xFFFF))
FLAGS = st.sampled_from([0, Flags.REQUEST_MCAST, Flags.FRESH, Flags.OVERFLOW,
                         Flags.FRESH | Flags.REQUEST_MCAST])
LANGUAGE = st.sampled_from(["en", "", "de-CH", "x"])
ERROR = st.sampled_from(list(ErrorCode))
ENTRY = st.builds(UrlEntry, url=TEXT, lifetime_s=st.integers(0, 0xFFFF))


def _header(fid):
    return st.builds(Header, function_id=st.just(fid), xid=XID, flags=FLAGS,
                     language_tag=LANGUAGE)


STRATEGIES = {
    SrvRqst: st.builds(SrvRqst, header=_header(FunctionId.SRVRQST), prlist=LIST,
                       service_type=TEXT, scopes=LIST, predicate=TEXT, spi=TEXT),
    SrvRply: st.builds(SrvRply, header=_header(FunctionId.SRVRPLY), error_code=ERROR,
                       url_entries=st.lists(ENTRY, max_size=3).map(tuple)),
    SrvReg: st.builds(SrvReg, header=_header(FunctionId.SRVREG), url_entry=ENTRY,
                      service_type=TEXT, scopes=LIST, attr_list=TEXT),
    SrvDeReg: st.builds(SrvDeReg, header=_header(FunctionId.SRVDEREG), scopes=LIST,
                        url_entry=ENTRY, tag_list=TEXT),
    SrvAck: st.builds(SrvAck, header=_header(FunctionId.SRVACK), error_code=ERROR),
    AttrRqst: st.builds(AttrRqst, header=_header(FunctionId.ATTRRQST), prlist=LIST,
                        url=TEXT, scopes=LIST, tag_list=TEXT, spi=TEXT),
    AttrRply: st.builds(AttrRply, header=_header(FunctionId.ATTRRPLY), error_code=ERROR,
                        attr_list=TEXT),
    DAAdvert: st.builds(DAAdvert, header=_header(FunctionId.DAADVERT), error_code=ERROR,
                        boot_timestamp=st.integers(0, 0xFFFFFFFF), url=TEXT,
                        scopes=LIST, attr_list=TEXT, spi=TEXT),
    SrvTypeRqst: st.builds(SrvTypeRqst, header=_header(FunctionId.SRVTYPERQST),
                           prlist=LIST, naming_authority=TEXT, scopes=LIST),
    SrvTypeRply: st.builds(SrvTypeRply, header=_header(FunctionId.SRVTYPERPLY),
                           error_code=ERROR, service_types=LIST),
    SAAdvert: st.builds(SAAdvert, header=_header(FunctionId.SAADVERT), url=TEXT,
                        scopes=LIST, attr_list=TEXT),
}
MESSAGES = st.one_of(*STRATEGIES.values())


def _with_xid(message, xid):
    return replace(message, header=replace(message.header, xid=xid))


#: One sender's memo, kept warm across the property test's examples.
WARM = Memo(wire.ENCODE_MEMO_SIZE)


@pytest.fixture
def cold():
    return Memo(wire.ENCODE_MEMO_SIZE)


def _bodies(memo):
    return [key for key in memo if key[0] in (SrvRqst, SrvRply)]


def _prefixes(memo):
    return [key for key in memo if key[0] not in (SrvRqst, SrvRply)]


def test_all_eleven_types_are_drawn():
    assert set(STRATEGIES) == set(MESSAGE_TYPES.values())
    assert len(STRATEGIES) == 11


@given(message=MESSAGES, other_xid=XID)
def test_encode_equals_reference_cold_and_warm(message, other_xid):
    reference = wire._encode_reference(message)
    assert encode(message) == reference  # no memo: the reference encoder
    assert encode(message, WARM) == reference
    assert encode(message, WARM) == reference  # warm: body and prefix cached
    assert decode(reference) == message
    resent = _with_xid(message, other_xid)
    assert encode(resent, WARM) == wire._encode_reference(resent)
    assert decode(encode(resent, WARM)) == resent


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # the type is what the test compares
        return type(exc)
    return None


def _long():
    return "x" * 0x10000


# (label, a message the reference accepts, a variant it rejects).
BAD_VARIANTS = [
    (
        "xid above 0xFFFF",
        SrvRqst(header=Header(FunctionId.SRVRQST, xid=1), service_type="service:a"),
        lambda m: _with_xid(m, 0x10000),
    ),
    (
        "negative xid",
        SrvRply(header=Header(FunctionId.SRVRPLY, xid=1),
                url_entries=(UrlEntry("service:a://h"),)),
        lambda m: _with_xid(m, -1),
    ),
    (
        "reserved flag bits",
        SrvRqst(header=Header(FunctionId.SRVRQST, xid=1), service_type="service:a"),
        lambda m: replace(m, header=m.header.with_flags(0x0001)),
    ),
    (
        "string over 0xFFFF bytes",
        SrvRqst(header=Header(FunctionId.SRVRQST, xid=1), service_type="service:a"),
        lambda m: replace(m, predicate=_long()),
    ),
    (
        "lifetime out of range",
        SrvRply(header=Header(FunctionId.SRVRPLY, xid=1),
                url_entries=(UrlEntry("service:a://h"),)),
        lambda m: replace(m, url_entries=(UrlEntry("service:a://h", 0x10000),)),
    ),
    (
        "non-ASCII language tag",
        SrvRply(header=Header(FunctionId.SRVRPLY, xid=1),
                url_entries=(UrlEntry("service:a://h"),)),
        lambda m: replace(m, header=replace(m.header, language_tag="é")),
    ),
    (
        "reserved flag bits on a reference-path type",
        SrvAck(header=Header(FunctionId.SRVACK, xid=1)),
        lambda m: replace(m, header=m.header.with_flags(0x0100)),
    ),
]


@pytest.mark.parametrize("label,good,make_bad", BAD_VARIANTS,
                         ids=[row[0] for row in BAD_VARIANTS])
def test_rejections_match_reference_on_cold_and_warm_caches(cold, label, good, make_bad):
    bad = make_bad(good)
    expected = _raised(lambda: wire._encode_reference(bad))
    assert expected in (SlpEncodeError, UnicodeEncodeError)
    memo = cold
    assert _raised(lambda: encode(bad, memo)) is expected  # cold
    # Warm: the good message's body and prefix are cached; the bad one
    # reuses whatever it can and must still fail the same way, also when
    # re-sent with a fresh XID.
    assert encode(good, memo) == wire._encode_reference(good)
    assert encode(good, memo) == wire._encode_reference(good)
    assert _raised(lambda: encode(bad, memo)) is expected
    if 0 <= bad.header.xid < 0xFFFF:
        assert _raised(lambda: encode(_with_xid(bad, bad.header.xid + 1), memo)) is expected
    assert encode(good, memo) == wire._encode_reference(good)


def test_rejected_bodies_are_never_cached(cold):
    bad = SrvRply(header=Header(FunctionId.SRVRPLY, xid=1),
                  url_entries=(UrlEntry("service:a://h", 0x10000),))
    with pytest.raises(SlpEncodeError):
        encode(bad, cold)
    assert not cold


def test_unhashable_fields_take_the_reference_path(cold):
    message = SrvRqst(header=Header(FunctionId.SRVRQST, xid=9), service_type="service:a",
                      scopes=["DEFAULT", "HOME"])
    assert encode(message, cold) == wire._encode_reference(message)
    assert not cold


def test_body_cache_stays_within_its_bound(cold):
    bound = cold.bound
    messages = [
        SrvRqst(header=Header(FunctionId.SRVRQST, xid=i & 0xFFFF),
                service_type=f"service:t{i}")
        for i in range(bound + 100)
    ]
    for message in messages:
        assert encode(message, cold) == wire._encode_reference(message)
        assert len(cold) <= bound
    assert len(cold) == bound
    # The newest bodies are still served from the memo, the oldest were
    # evicted and re-encode correctly.
    bodies = _bodies(cold)
    assert bodies[-1][2] == messages[-1].service_type
    assert all(key[2] != messages[0].service_type for key in bodies)
    for message in (messages[-1], messages[0]):
        resent = _with_xid(message, 7)
        assert encode(resent, cold) == wire._encode_reference(resent)
    assert len(cold) <= bound


def test_prefix_cache_stays_within_its_bound(cold):
    bound = cold.bound
    for i in range(bound + 100):
        message = SrvRply(header=Header(FunctionId.SRVRPLY, xid=3, language_tag=f"l{i}"))
        assert encode(message, cold) == wire._encode_reference(message)
        assert len(cold) <= bound
        assert len(_bodies(cold)) <= 1
    assert len(cold) == bound
    assert len(_prefixes(cold)) >= bound - 1


def test_parse_once_off_memos_store_nothing():
    from repro.net import Network

    memo = Network(parse_once=False).memo(wire.ENCODE_MEMO_SIZE)
    message = SrvRply(header=Header(FunctionId.SRVRPLY, xid=3),
                      url_entries=(UrlEntry("service:a://h"),))
    for xid in (3, 4):
        resent = _with_xid(message, xid)
        assert encode(resent, memo) == wire._encode_reference(resent)
    assert memo.bound == 0 and not memo
