"""Malformed SLP frames are decode failures, never run-aborting errors.

Every SLP receiver (native agents, the INDISS SLP unit) decodes through
``decode_or_none``, which turns :class:`SlpDecodeError` into ``None``; a
frame whose bytes break the codec in any other way would escape
``net.run`` and stop the whole simulation.
"""

import pytest

from repro.core import Indiss, IndissConfig
from repro.net import Endpoint, LatencyModel, Network
from repro.sdp.slp import (
    SLP_MULTICAST_GROUP,
    SLP_PORT,
    ErrorCode,
    FunctionId,
    Header,
    ServiceAgent,
    SlpDecodeError,
    SrvRply,
    UrlEntry,
    UserAgent,
    decode,
    encode,
)

#: Offsets in an SLPv2 frame with a two-byte language tag: the tag sits at
#: 14..16 (after the fixed header), a SrvRply's error code at 16..18.
TAG = slice(14, 16)
ERROR_CODE = slice(16, 18)


def reply_bytes() -> bytearray:
    reply = SrvRply(
        header=Header(FunctionId.SRVRPLY, xid=9, language_tag="en"),
        error_code=ErrorCode.OK,
        url_entries=(UrlEntry("service:clock://192.168.1.7", 60),),
    )
    return bytearray(encode(reply))


def non_ascii_tag() -> bytes:
    frame = reply_bytes()
    frame[TAG] = b"\xe9\xe9"
    return bytes(frame)


def unknown_error_code() -> bytes:
    frame = reply_bytes()
    frame[ERROR_CODE] = (99).to_bytes(2, "big")
    return bytes(frame)


@pytest.mark.parametrize(
    "frame", [non_ascii_tag(), unknown_error_code()], ids=["non-ascii-tag", "error-99"]
)
def test_decode_raises_slp_decode_error(frame):
    with pytest.raises(SlpDecodeError):
        decode(frame)


def test_malformed_frames_are_decoded_negatives_at_every_receiver():
    net = Network(latency=LatencyModel(jitter_us=0))
    sa = ServiceAgent(net.add_node("sa"))
    ua = UserAgent(net.add_node("ua"))
    indiss = Indiss(net.add_node("indiss"), IndissConfig(units=("slp",)))
    parser = indiss.units["slp"].parser
    sender = net.add_node("sender").udp.socket()
    group = Endpoint(SLP_MULTICAST_GROUP, SLP_PORT)
    for frame in (non_ascii_tag(), unknown_error_code()):
        sender.sendto(frame, group)
    net.run(duration_us=100_000)
    assert sa.decode_errors == 2 and ua.decode_errors == 2
    assert parser.parse_errors == 2 and parser.messages_parsed == 0
    counter = net.parse_stats["slp"]
    # One decode per frame; the other receivers share its negative result.
    assert (counter.decoded, counter.shared) == (2, 4)
