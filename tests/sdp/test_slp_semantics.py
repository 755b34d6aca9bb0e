"""Tests for SLP attributes, predicates, and service-type matching."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sdp.slp import (
    FunctionId,
    Header,
    ServiceType,
    SlpDecodeError,
    SlpPredicateError,
    SlpRegistration,
    SlpServiceTypeError,
    SrvRqst,
    parse_attributes,
    parse_predicate,
    predicate_matches,
    serialize_attributes,
)


class TestAttributes:
    def test_simple_round_trip(self):
        attrs = {"model": "Clock", "version": "1.0"}
        assert parse_attributes(serialize_attributes(attrs)) == attrs

    def test_multi_valued(self):
        attrs = {"version": ["1", "2", "3"]}
        assert parse_attributes(serialize_attributes(attrs)) == attrs

    def test_keyword_attribute(self):
        attrs = {"color": True}
        text = serialize_attributes(attrs)
        assert text == "color"
        assert parse_attributes(text) == attrs

    def test_mixed(self):
        attrs = {"a": "1", "multi": ["x", "y"], "flag": True}
        assert parse_attributes(serialize_attributes(attrs)) == attrs

    def test_empty(self):
        assert serialize_attributes({}) == ""
        assert parse_attributes("") == {}

    def test_reserved_characters_escaped(self):
        attrs = {"desc": "a,b(c)=d"}
        text = serialize_attributes(attrs)
        assert "(" in text  # wrapper parens only
        assert parse_attributes(text) == attrs

    def test_paper_figure4_attr_shape(self):
        # The attribute list shape from the paper's Fig. 4 SrvRply.
        attrs = {
            "major": "1",
            "minor": "0",
            "friendlyName": "CyberGarage Clock Device",
            "manufacturerURL": "http://www.cybergarage.org",
        }
        assert parse_attributes(serialize_attributes(attrs)) == attrs

    @pytest.mark.parametrize("bad", ["(a", "(a=1))", "((a=1)", "(noequals)"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(SlpDecodeError):
            parse_attributes(bad)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10).filter(lambda s: s.strip() == s and s),
            st.text(max_size=20),
            max_size=5,
        )
    )
    def test_round_trip_property(self, attrs):
        assert parse_attributes(serialize_attributes(attrs)) == attrs


class TestPredicates:
    ATTRS = {"model": "CyberClock", "version": "2", "location": "hall", "color": True}

    @pytest.mark.parametrize(
        "pred,expected",
        [
            ("", True),
            ("(model=CyberClock)", True),
            ("(model=cyberclock)", True),  # case-insensitive
            ("(model=Cyber*)", True),
            ("(model=*Clock)", True),
            ("(model=*er*)", True),
            ("(model=Other)", False),
            ("(version>=2)", True),
            ("(version>=3)", False),
            ("(version<=2)", True),
            ("(version<=1)", False),
            ("(missing=x)", False),
            ("(model=*)", True),  # presence
            ("(missing=*)", False),
            ("(color=*)", True),  # keyword presence
            ("(&(model=CyberClock)(version>=1))", True),
            ("(&(model=CyberClock)(version>=9))", False),
            ("(|(model=Other)(location=hall))", True),
            ("(|(model=Other)(location=attic))", False),
            ("(!(model=Other))", True),
            ("(!(model=CyberClock))", False),
            ("(&(|(a=1)(model=Cyber*))(!(missing=*)))", True),
        ],
    )
    def test_evaluation(self, pred, expected):
        assert predicate_matches(pred, self.ATTRS) is expected

    def test_multivalued_attribute_any_match(self):
        attrs = {"version": ["1", "2"]}
        assert predicate_matches("(version=2)", attrs)
        assert not predicate_matches("(version=3)", attrs)

    @pytest.mark.parametrize(
        "bad", ["(", "(a=1", "a=1)", "(&)", "(a!1)", "(a=1)(b=2)", "()", "(a<1)"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(SlpPredicateError):
            parse_predicate(bad)

    def test_numeric_vs_string_ordering(self):
        # "10" >= "9" numerically, even though it is not lexicographically.
        assert predicate_matches("(v>=9)", {"v": "10"})

    def test_whitespace_tolerated(self):
        assert predicate_matches(" ( & (model=CyberClock) (version>=1) ) ", self.ATTRS)


class TestServiceType:
    def test_parse_abstract(self):
        st_ = ServiceType.parse("service:clock")
        assert st_.abstract == "clock"
        assert st_.concrete == ""
        assert st_.render() == "service:clock"

    def test_parse_concrete(self):
        st_ = ServiceType.parse("service:clock:soap")
        assert st_.concrete == "soap"
        assert st_.render() == "service:clock:soap"

    def test_parse_naming_authority(self):
        st_ = ServiceType.parse("service:clock.acme:soap")
        assert st_.naming_authority == "acme"
        assert st_.render() == "service:clock.acme:soap"

    def test_prefix_optional(self):
        assert ServiceType.parse("clock") == ServiceType.parse("service:clock")

    def test_case_insensitive(self):
        assert ServiceType.parse("SERVICE:Clock") == ServiceType.parse("service:clock")

    @pytest.mark.parametrize(
        "offer,wanted,expected",
        [
            ("service:clock:soap", "service:clock", True),
            ("service:clock:soap", "service:clock:soap", True),
            ("service:clock:soap", "service:clock:http", False),
            ("service:clock", "service:clock:soap", False),
            ("service:clock", "service:printer", False),
            ("service:clock.acme", "service:clock", False),
            ("service:clock.acme", "service:clock.acme", True),
        ],
    )
    def test_matching(self, offer, wanted, expected):
        assert ServiceType.parse(offer).matches(ServiceType.parse(wanted)) is expected

    @pytest.mark.parametrize("bad", ["", "service:", "service:a:b:c", "service:cl ock", "service:cl/ock"])
    def test_malformed(self, bad):
        with pytest.raises(SlpServiceTypeError):
            ServiceType.parse(bad)

    @pytest.mark.parametrize("bad", ["", "service:", "service:a:b:c", "service:cl ock", "service:cl/ock"])
    def test_malformed_raises_on_every_call(self, bad):
        # parse is memoized; an error must never be cached as a result.
        for _ in range(3):
            with pytest.raises(SlpServiceTypeError):
                ServiceType.parse(bad)

    def test_equal_strings_share_one_frozen_result(self):
        text = "".join(["service:", "clock", ":soap"])
        first = ServiceType.parse(text)
        again = ServiceType.parse("service:clock:soap")
        assert first == again
        assert first is again
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.concrete = "http"

    def test_memo_is_bounded(self):
        for i in range(ServiceType.parse.cache_info().maxsize + 10):
            ServiceType.parse(f"service:t{i}")
        info = ServiceType.parse.cache_info()
        assert info.currsize <= info.maxsize


def _legacy_matches(registration, request):
    """``SlpRegistration.matches_request`` as it was: two sets per call."""
    try:
        wanted = ServiceType.parse(request.service_type)
    except Exception:
        return False
    if not registration.service_type.matches(wanted):
        return False
    if request.scopes and not set(s.upper() for s in request.scopes) & set(
        s.upper() for s in registration.scopes
    ):
        return False
    if request.predicate:
        return predicate_matches(request.predicate, registration.attributes)
    return True


_SCOPE = st.sampled_from(["DEFAULT", "default", "Default", "home", "HOME", "Lab", "lab2"])


class TestRegistrationMatching:
    def _request(self, service_type="service:clock", scopes=("DEFAULT",), predicate=""):
        return SrvRqst(header=Header(FunctionId.SRVRQST), service_type=service_type,
                       scopes=scopes, predicate=predicate)

    def _registration(self, scopes=("DEFAULT",)):
        return SlpRegistration(url="service:clock:soap://h", scopes=scopes,
                               service_type=ServiceType.parse("service:clock:soap"),
                               attributes={"model": "CyberClock"})

    @pytest.mark.parametrize(
        "offered,requested,expected",
        [
            (("DEFAULT",), ("default",), True),
            (("Home", "Lab"), ("LAB",), True),
            (("home",), ("DEFAULT", "Other"), False),
            (("home",), (), True),  # empty request scopes match any
            ((), (), True),
            ((), ("DEFAULT",), False),
        ],
    )
    def test_mixed_case_and_empty_scopes(self, offered, requested, expected):
        registration = self._registration(offered)
        request = self._request(scopes=requested)
        assert registration.matches_request(request) is expected
        assert _legacy_matches(registration, request) is expected

    @given(
        offered=st.lists(_SCOPE, max_size=3).map(tuple),
        requested=st.lists(_SCOPE, max_size=3).map(tuple),
        service_type=st.sampled_from(["service:clock", "service:clock:soap",
                                      "service:clock:http", "service:printer", "bad type",
                                      "SERVICE:Clock"]),
        predicate=st.sampled_from(["", "(model=Cyber*)", "(model=Other)"]),
    )
    def test_same_answers_as_before(self, offered, requested, service_type, predicate):
        registration = self._registration(offered)
        request = self._request(service_type, requested, predicate)
        assert registration.matches_request(request) == _legacy_matches(registration, request)
