import pytest
from hypothesis import given, settings, strategies as st

import sentinel.phishing as phishing
from oracles import levenshtein_recursive
from sentinel.events import DetectionMethod, Timestamp
from sentinel.harness import Scenario, gen_urls
from sentinel.phishing import (
    Blacklist,
    HeuristicWeights,
    InvalidUrlError,
    UrlEvaluator,
    UrlParts,
    check_blacklist,
    evaluate_url,
    heuristic_score,
    levenshtein,
    parse_url,
)


class TestParseUrl:
    def test_plain_domain(self):
        parts = parse_url("http://secure-updates-login.com")
        assert parts.scheme == "http"
        assert parts.host == "secure-updates-login.com"
        assert parts.registered_domain == "secure-updates-login.com"
        assert parts.subdomain_depth == 0

    def test_depth_and_percent_encoding(self):
        parts = parse_url("https://a.b.c.d.example.com/x?q=%20%3F")
        assert parts.subdomain_depth == 4
        assert parts.percent_encoded_count == 2

    def test_not_a_url(self):
        with pytest.raises(InvalidUrlError):
            parse_url("not a url")

    def test_other_scheme(self):
        assert parse_url("ftp://files.example.com/x").scheme == "other"

    def test_host_lowercased(self):
        assert parse_url("http://EXAMPLE.com").host == "example.com"

    def test_one_trailing_dot_stripped(self):
        parts = parse_url("http://a.evil.example./x")
        assert parts.host == "a.evil.example"
        assert parts.registered_domain == "evil.example"
        assert parts.subdomain_depth == 1

    @pytest.mark.parametrize("url", ["http://./", "http://[::1/", "http://a b.com/"])
    def test_hostless_or_unparseable(self, url):
        with pytest.raises(InvalidUrlError):
            parse_url(url)


def exact(a, b):
    """The bounded distance with a limit no pair can exceed."""
    return levenshtein(a, b, max(len(a), len(b)))


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc", 2) == 0

    def test_homograph_pair(self):
        assert levenshtein("google.com", "g00gle.com", 2) == 2
        assert exact("google.com", "g00gle.com") == \
            levenshtein_recursive("google.com", "g00gle.com")

    def test_kitten_sitting(self):
        assert exact("kitten", "sitting") == 3
        assert levenshtein_recursive("kitten", "sitting") == 3
        assert levenshtein("kitten", "sitting", 2) == 3
        assert levenshtein("kitten", "sitting", 1) == 2

    short = st.text(alphabet="abcde", max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(short, short)
    def test_matches_recursive_oracle(self, a, b):
        assert exact(a, b) == levenshtein_recursive(a, b)

    @settings(max_examples=100, deadline=None)
    @given(short, short)
    def test_symmetry(self, a, b):
        assert exact(a, b) == exact(b, a)

    @settings(max_examples=100, deadline=None)
    @given(short, short, short)
    def test_triangle_inequality(self, a, b, c):
        assert exact(a, c) <= exact(a, b) + exact(b, c)

    @settings(max_examples=100, deadline=None)
    @given(short, short)
    def test_identity_of_indiscernibles(self, a, b):
        assert (exact(a, b) == 0) == (a == b)

    domainish = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.", max_size=14)

    @settings(max_examples=300, deadline=None)
    @given(domainish, domainish, st.integers(min_value=0, max_value=3))
    def test_bounded_equals_capped_oracle(self, a, b, k):
        assert levenshtein(a, b, k) == min(levenshtein_recursive(a, b), k + 1)

    @pytest.mark.parametrize("a, b, limit, expected", [
        ("", "", 0, 0),
        ("", "", 2, 0),
        ("", "ab", 2, 2),
        ("ab", "", 2, 2),
        ("", "abc", 2, 3),
        ("", "a", 0, 1),
        ("apple.com", "apple.cxx", 2, 2),      # shared prefix only
        ("apple.com", "appl", 2, 3),
        ("paypal.com", "qaypal.com", 2, 1),    # shared suffix only
        ("google.com", "oogle.com", 1, 1),
        ("google.com", "google.com.x", 2, 2),  # length gap exactly the limit
        ("google.com", "xxgoogle.com", 2, 2),
        ("google.com", "goxxogle.com", 2, 2),
        ("google.com", "gxxoogle.co", 2, 3),
        ("microsoft.com", "micr0s0ft.c0m", 2, 3),
    ])
    def test_edge_cases(self, a, b, limit, expected):
        assert levenshtein(a, b, limit) == expected
        assert levenshtein(b, a, limit) == expected
        assert expected == min(levenshtein_recursive(a, b), limit + 1)


class TestBlacklist:
    def test_listed_domain(self):
        bl = Blacklist(["fake-bank-login.com"])
        assert check_blacklist(parse_url("http://fake-bank-login.com"), bl)

    def test_empty(self):
        assert not check_blacklist(parse_url("http://x.com"), Blacklist())

    def test_subdomain_of_listed_domain(self):
        bl = Blacklist(["fake-bank-login.com"])
        parts = parse_url("http://x.fake-bank-login.com/a")
        # registered-domain oracle: the last two labels
        assert ".".join(parts.host.split(".")[-2:]) == "fake-bank-login.com"
        assert check_blacklist(parts, bl)

    def test_multi_label_entry_matches_host_and_subdomains(self):
        bl = Blacklist(["login.evil.example"])
        assert check_blacklist(parse_url("http://login.evil.example/a"), bl)
        assert check_blacklist(parse_url("http://a.login.evil.example/"), bl)
        assert not check_blacklist(parse_url("http://evil.example/"), bl)
        assert not check_blacklist(parse_url("http://xlogin.evil.example/"), bl)

    def test_trailing_dot_host_still_listed(self):
        bl = Blacklist(["evil.example"])
        verdict, event = evaluate_url("http://evil.example./a", blacklist=bl)
        assert verdict.score == 100 and event is not None

    def test_fully_qualified_entry_listed(self):
        bl = Blacklist(["evil.example.", "Bad.Example. "])
        for url in ("http://evil.example/a", "http://evil.example./a", "http://x.bad.example/"):
            verdict, event = evaluate_url(url, blacklist=bl)
            assert verdict.score == 100 and event is not None
        assert len(bl) == 2 and "evil.example" in bl

    def test_load_file_with_comments(self, tmp_path):
        path = tmp_path / "bl.txt"
        path.write_text("# header\nbad.com\n\nworse.com  # inline\n")
        bl = Blacklist.load(str(path))
        assert len(bl) == 2 and "bad.com" in bl and "worse.com" in bl


@st.composite
def brand_and_lookalike(draw):
    """A lower-case brand, with or without a TLD, and that brand after
    up to three random edits."""
    letters = "abcdego"  # few letters, so pieces of the brand recur by chance
    label = draw(st.text(alphabet=letters, max_size=12))
    tld = draw(st.sampled_from(["", ".com", ".co", ".a"]))
    brand = label + tld
    reg = list(brand)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        i = draw(st.integers(min_value=0, max_value=len(reg)))
        ch = draw(st.sampled_from(letters + "."))
        if op == "insert":
            reg.insert(i, ch)
        elif i < len(reg):
            reg[i:i + 1] = [ch] if op == "substitute" else []
    return brand, "".join(reg)


class TestHeuristicScore:
    def test_calibrated_example_scores_85(self):
        score, triggered = heuristic_score(parse_url("http://secure-updates-login.com"))
        assert score == 85
        assert set(triggered) == {"host_keyword", "plain_http", "multi_hyphen_domain"}

    def test_clean_https_scores_zero(self):
        score, triggered = heuristic_score(parse_url("https://example.com"))
        assert score == 0 and triggered == []

    def test_brand_plus_http_plus_path_keyword(self):
        score, triggered = heuristic_score(parse_url("http://g00gle.com/login"))
        assert score == 40 + 15 + 10
        assert set(triggered) == {"brand_similarity", "plain_http", "path_keyword"}

    def test_host_keyword_cap(self):
        # login + verify + update all in host: 30 + 15 + 15 capped at 45
        parts = parse_url("https://login-verify-update.net")
        score, _ = heuristic_score(parts)
        w = HeuristicWeights()
        assert score == w.host_keyword_cap + w.multi_hyphen_domain

    def test_score_bounded_and_cap_at_100(self):
        parts = parse_url("http://a.b.c.login-verify-g00gle.com/login?x=%20%3F")
        score, _ = heuristic_score(parts, brands=["login-verify-g0gle.com"])
        assert 0 <= score <= 100

    def test_trailing_dot_lookalike(self):
        _, triggered = heuristic_score(parse_url("https://paypa1.com."))
        assert triggered == ["brand_similarity"]

    def test_http_never_decreases_score(self):
        for suffix in ["example.com", "a.b.c.d.login-site.com/verify?%20%21"]:
            https, _ = heuristic_score(parse_url("https://" + suffix))
            http, _ = heuristic_score(parse_url("http://" + suffix))
            assert http >= https

    @settings(max_examples=500, deadline=None)
    @given(brand_and_lookalike())
    def test_brand_verdict_matches_the_oracle(self, pair):
        brand, reg = pair
        parts = UrlParts("https", reg, reg, 0, "", "", 0)
        _, triggered = heuristic_score(parts, brands=[brand], keywords=[])
        assert ("brand_similarity" in triggered) == (1 <= levenshtein_recursive(reg, brand) <= 2)

    def test_benign_urls_skip_the_edit_distance(self, monkeypatch):
        # Each of these 1,624 hosts is within two characters of a brand's
        # length; without the three-piece filter they cost 5,010 DP calls.
        urls, labels = gen_urls(Scenario(seed=42), n=2000)
        benign = [url for url, label in zip(urls, labels) if not label]
        calls = []
        exact = phishing.levenshtein
        monkeypatch.setattr(phishing, "levenshtein", lambda *args: calls.append(1) or exact(*args))
        for url in benign:
            heuristic_score(parse_url(url))
        assert len(benign) == 1624
        assert len(calls) <= 100  # 0 measured


class TestEvaluateUrl:
    def test_blacklisted_is_100(self):
        bl = Blacklist(["fake-bank-login.com"])
        verdict, event = evaluate_url("http://fake-bank-login.com", blacklist=bl)
        assert verdict.score == 100
        assert verdict.method is DetectionMethod.BLACKLIST
        assert verdict.triggered == ("blacklist",)
        assert event is not None and event.detection_method is DetectionMethod.BLACKLIST

    def test_heuristic_event_above_threshold(self):
        verdict, event = evaluate_url("http://secure-updates-login.com")
        assert verdict.score == 85
        assert event is not None and event.score == 85
        assert event.detection_method is DetectionMethod.HEURISTIC

    def test_benign_no_event(self):
        verdict, event = evaluate_url("https://example.com")
        assert verdict.score == 0 and event is None

    def test_stateless(self):
        now = Timestamp.parse("2025-02-13T09:11:45Z")
        first = evaluate_url("http://secure-updates-login.com", clock=lambda: now)
        second = evaluate_url("http://secure-updates-login.com", clock=lambda: now)
        assert first == second

    def test_invalid_url_raises_without_event(self):
        with pytest.raises(InvalidUrlError):
            evaluate_url("not a url")


class TestUrlEvaluator:
    def test_each_alert_carries_its_own_now(self):
        ev = UrlEvaluator()
        first, second = (Timestamp.parse("2025-01-01T00:00:00Z"),
                         Timestamp.parse("2025-06-01T00:00:00Z"))
        _, a = ev.evaluate("http://secure-updates-login.com", clock=lambda: first)
        _, b = ev.evaluate("http://secure-updates-login.com", clock=lambda: second)
        assert a.timestamp == first and b.timestamp == second

    def test_brands_and_keywords_any_case(self):
        ev = UrlEvaluator(brands=["PayPal.com"], keywords=["LOGIN"])
        verdict, _ = ev.evaluate("https://paypa1.com/Login")
        assert set(verdict.triggered) == {"brand_similarity", "path_keyword"}
