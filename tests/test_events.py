import json

import pytest
from hypothesis import given, strategies as st

from sentinel.events import (
    BruteForce,
    DetectionMethod,
    EmergentThreat,
    IpAddress,
    ParseError,
    PhishingAlert,
    Timestamp,
    deserialize_event,
    serialize_event,
)


class TestIpAddress:
    def test_low_octet(self):
        assert IpAddress.parse("0.0.0.1").to_numeric() == 1

    def test_all_ones(self):
        assert IpAddress.parse("255.255.255.255").to_numeric() == 4294967295

    def test_positional_expansion(self):
        # hand check: 192*2^24 + 168*2^16 + 1*2^8 + 12
        assert IpAddress.parse("192.168.1.12").to_numeric() == 192 * 2**24 + 168 * 2**16 + 1 * 2**8 + 12
        assert IpAddress.parse("192.168.1.12").to_numeric() == 3232235788

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4",
                                     "a.b.c.d", "", "1.2.3.-4"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            IpAddress.parse(bad)

    def test_no_leading_zeros_in_canonical_form(self):
        assert str(IpAddress.parse("10.0.0.9")) == "10.0.0.9"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_numeric_roundtrip(self, value):
        assert IpAddress.from_numeric(value).to_numeric() == value

    def test_parse_roundtrip_random(self):
        import random
        rng = random.Random(7)
        for _ in range(10_000):
            value = rng.randrange(2**32)
            ip = IpAddress.from_numeric(value)
            assert IpAddress.parse(str(ip)).to_numeric() == value


class TestTimestamp:
    def test_iso_parse_hour(self):
        ts = Timestamp.parse("2025-02-12T15:23:01Z")
        assert ts.hour() == 15
        assert ts.isoformat() == "2025-02-12T15:23:01Z"

    def test_syslog_parse_with_year(self):
        ts = Timestamp.parse("Feb 12 15:23:01", default_year=2025)
        assert ts.isoformat() == "2025-02-12T15:23:01Z"

    def test_midnight_hour(self):
        assert Timestamp.parse("2025-01-01T00:00:00Z").hour() == 0

    def test_unparseable_echoes_input(self):
        with pytest.raises(ParseError, match="nonsense"):
            Timestamp.parse("nonsense")

    def test_serialized_form_ends_in_z_no_fraction(self):
        ts = Timestamp.now()
        text = ts.isoformat()
        assert text.endswith("Z") and "." not in text

    def test_roundtrip(self):
        ts = Timestamp.parse("2025-06-30T23:59:59Z")
        assert Timestamp.parse(ts.isoformat()) == ts


def _ts_strategy():
    return st.integers(min_value=0, max_value=2**31).map(
        lambda s: Timestamp.parse("1970-01-01T00:00:00Z").add_seconds(s))


def _event_strategy():
    ts = _ts_strategy()
    ip = st.integers(min_value=0, max_value=2**32 - 1).map(IpAddress.from_numeric)
    brute = st.builds(BruteForce, ts, ip, st.integers(min_value=1, max_value=10**6))
    phish = st.builds(
        PhishingAlert, ts,
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80),
        st.integers(min_value=0, max_value=100),
        st.sampled_from(list(DetectionMethod)),
    )
    emergent = st.builds(
        EmergentThreat, ts, ip,
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.dictionaries(st.sampled_from(["hour", "freq", "status"]),
                        st.floats(allow_nan=False, allow_infinity=False, width=32)),
        st.sampled_from(["mahalanobis", "isolation_forest"]),
        st.text(alphabet="abcdef0123456789-", min_size=1, max_size=20),
    )
    return st.one_of(brute, phish, emergent)


class TestEventJson:
    def test_brute_force_field_order_and_values(self):
        event = BruteForce(Timestamp.parse("2025-02-12T15:23:01Z"),
                           IpAddress.parse("192.168.1.12"), 10)
        text = serialize_event(event)
        assert list(json.loads(text).keys()) == ["timestamp", "event_type", "ip",
                                                 "failed_attempts"]
        assert json.loads(text) == {
            "timestamp": "2025-02-12T15:23:01Z",
            "event_type": "BruteForce",
            "ip": "192.168.1.12",
            "failed_attempts": 10,
        }

    def test_phishing_alert_keys(self):
        event = PhishingAlert(Timestamp.parse("2025-02-12T16:45:10Z"),
                              "http://fake-bank-login.com", 100, DetectionMethod.BLACKLIST)
        obj = json.loads(serialize_event(event))
        assert set(obj) == {"timestamp", "event_type", "url", "score", "detection_method"}
        assert obj["detection_method"] == "Blacklist"

    def test_deserialize_accepts_any_field_order(self):
        text = ('{"failed_attempts": 3, "ip": "1.2.3.4", '
                '"event_type": "BruteForce", "timestamp": "2025-02-12T15:23:01Z"}')
        event = deserialize_event(text)
        assert isinstance(event, BruteForce) and event.failed_attempts == 3

    @given(_event_strategy())
    def test_roundtrip(self, event):
        assert deserialize_event(serialize_event(event)) == event

    def test_unknown_type_rejected(self):
        with pytest.raises(ParseError):
            deserialize_event('{"event_type": "Nope", "timestamp": "2025-01-01T00:00:00Z"}')
