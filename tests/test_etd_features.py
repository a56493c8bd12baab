import random

import pytest

from oracles import freq_recount
from sentinel.events import IpAddress, Timestamp
from sentinel.etd.features import (
    FeatureRow,
    MANDATORY_FEATURES,
    StreamingFeatureExtractor,
    load_feature_csv,
    save_feature_csv,
)
from sentinel.etd.geo import GeoTable, haversine_km
from sentinel.ssh_monitor import SshAuthRecord


def _rec(iso, ip, status):
    return SshAuthRecord(Timestamp.parse(iso), "u", IpAddress.parse(ip), 22,
                         status, False, "")


def _extract(records, geo=None, freq_window_secs=300.0):
    extractor = StreamingFeatureExtractor(geo, freq_window_secs)
    return [extractor.extract(rec) for rec in records]


class TestGeoTable:
    def test_longest_prefix_wins(self):
        table = GeoTable([("10.0.0.0/8", 50.0, 8.0), ("10.1.0.0/16", 40.0, -3.0)])
        assert table.lookup("10.1.2.3") == (40.0, -3.0)
        assert table.lookup("10.9.2.3") == (50.0, 8.0)
        assert table.lookup("192.0.2.1") is None

    def test_distance_from_centroid(self):
        table = GeoTable([("10.0.0.0/8", 0.0, 0.0)], centroid=(0.0, 0.0))
        assert table.distance_km("10.0.0.1") == 0.0

    def test_haversine_known_value(self):
        # London to Paris is roughly 344 km
        assert abs(haversine_km(51.5074, -0.1278, 48.8566, 2.3522) - 344) < 5

    def test_csv_load(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("cidr,lat,lon\n192.0.2.0/24,10,20\n")
        table = GeoTable.load(str(path), centroid=(10, 20))
        assert table.distance_km("192.0.2.7") == 0.0


class TestExtract:
    def test_single_accepted_record(self):
        geo = GeoTable([("192.168.0.0/16", 0.0, 0.0)], centroid=(0.0, 0.0))
        rows = _extract([_rec("2025-02-12T15:23:01Z", "192.168.1.12", "accepted")], geo=geo)
        row = rows[0]
        assert row.hour == 15
        assert row.ip_numeric == 3232235788
        assert row.status == 1
        assert row.failed_attempts == 0
        assert row.freq == 1
        assert row.geo_distance == 0.0

    def test_consecutive_failures_then_success(self):
        recs = [
            _rec("2025-02-12T10:00:00Z", "1.2.3.4", "failed"),
            _rec("2025-02-12T10:00:01Z", "1.2.3.4", "failed"),
            _rec("2025-02-12T10:00:02Z", "1.2.3.4", "failed"),
            _rec("2025-02-12T10:00:03Z", "1.2.3.4", "accepted"),
        ]
        rows = _extract(recs)
        assert [r.failed_attempts for r in rows] == [1, 2, 3, 0]

    def test_unknown_ip_uses_imputed_distance(self):
        geo = GeoTable([], centroid=(0.0, 0.0))
        rows = _extract([_rec("2025-02-12T10:00:00Z", "8.8.8.8", "accepted")], geo=geo)
        assert rows[0].geo_distance == 0.0
        assert geo.misses == 1

    def test_freq_matches_recount_oracle(self):
        rng = random.Random(9)
        t = Timestamp.parse("2025-02-12T00:00:00Z")
        recs = []
        for _ in range(500):
            t = t.add_seconds(rng.uniform(0, 20))
            ip = rng.choice(["1.1.1.1", "2.2.2.2", "3.3.3.3"])
            recs.append(_rec(t.isoformat(), ip, rng.choice(["failed", "accepted"])))
        rows = _extract(recs, freq_window_secs=300)
        assert [r.freq for r in rows] == freq_recount(recs, 300)


class TestFeatureRow:
    def test_vector_order(self):
        row = FeatureRow(1, 2, 3, 4, 5, 6)
        assert MANDATORY_FEATURES == ("hour", "ip_numeric", "status", "failed_attempts",
                                      "freq", "geo_distance")
        assert list(row) == [1, 2, 3, 4, 5, 6]
        assert row._asdict() == dict(zip(MANDATORY_FEATURES, [1, 2, 3, 4, 5, 6]))

    def test_csv_roundtrip(self, tmp_path):
        rows = [FeatureRow(1.0, 2.0, 3.0, 4.0, 5.0, 6.0), FeatureRow(9.0, 8.0, 7.0, 6.0, 5.0, 0.1)]
        path = tmp_path / "rows.csv"
        save_feature_csv(str(path), rows)
        assert path.read_text().splitlines()[0] == ",".join(MANDATORY_FEATURES)
        assert load_feature_csv(str(path)) == rows

    @pytest.mark.parametrize("header, named", [
        (",".join(MANDATORY_FEATURES) + ",url_risk", "url_risk"),
        (",".join(MANDATORY_FEATURES[:5]), "geo_distance"),
    ], ids=["extra-url_risk", "missing-geo_distance"])
    def test_csv_header_must_be_the_six_features(self, tmp_path, header, named):
        path = tmp_path / "rows.csv"
        path.write_text(header + "\n" + ",".join(["1"] * header.count(",")) + ",1\n")
        with pytest.raises(ValueError, match=named):
            load_feature_csv(str(path))

    @pytest.mark.parametrize("cells", ["1,2,3,4,5,x", "1,2,3,4,5", "1,2,3,4,5,6,7",
                                       "nan,2,3,4,5,6", "1,2,3,4,5,inf"])
    def test_csv_row_must_be_six_numbers(self, tmp_path, cells):
        path = tmp_path / "rows.csv"
        path.write_text(",".join(MANDATORY_FEATURES) + "\n1,2,3,4,5,6\n" + cells + "\n")
        with pytest.raises(ValueError, match=":3:"):
            load_feature_csv(str(path))
