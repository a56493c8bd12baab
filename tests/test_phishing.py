import pytest
from hypothesis import given, settings, strategies as st

import sentinel.phishing as phishing
from oracles import blacklist_entries, levenshtein_recursive, urlsplit_url_parts
from sentinel.events import DetectionMethod, Timestamp
from sentinel.harness import Scenario, gen_urls
from sentinel.phishing import (
    DEFAULT_BRANDS,
    DEFAULT_KEYWORDS,
    HOST_KEYWORD_CAP,
    MULTI_HYPHEN_DOMAIN,
    Blacklist,
    InvalidUrlError,
    UrlEvaluator,
    UrlParts,
    check_blacklist,
    heuristic_score,
    levenshtein,
    parse_url,
)


def default_score(parts):
    return heuristic_score(parts, DEFAULT_BRANDS, DEFAULT_KEYWORDS)


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
        for url in ("ftp://files.example.com/x", "ws://a.example/", "WSS://a.example/"):
            assert parse_url(url).scheme == "other"

    def test_host_lowercased(self):
        assert parse_url("http://EXAMPLE.com").host == "example.com"

    def test_one_trailing_dot_stripped(self):
        parts = parse_url("http://a.evil.example./x")
        assert parts.host == "a.evil.example"
        assert parts.registered_domain == "evil.example"
        assert parts.subdomain_depth == 1

    @pytest.mark.parametrize("url", [
        "http://./", "http://[::1/", "http://a b.com/", "http://[zz]/",
        "http://[::1]x/", "http://[fe80::1%25eth0]/",  # no IPv6 address in brackets
        "http://evil%ff.com/",            # a percent-decoded host that is not UTF-8
        "http://evil.com%40paypal.com/",  # a decoded "@" is no host character
        "http://evil.123/",               # a numeric last label, not an address
        "http://08.0.0.1/",               # 8 is no octal digit
        "http://256.0.0.1/", "http://1.2.3.4.5/", "http://4294967296/", "http://1.2.65536/",
        "http://" + "a" * 64 + ".\u00e9.com/",  # IDNA takes no label over 63
    ])
    def test_hostless_or_unparseable(self, url):
        with pytest.raises(InvalidUrlError):
            parse_url(url)

    # (url, host, path) by the WHATWG URL Standard, sections 3.5 and 4.4.
    BROWSER_HOSTS = [
        ("http://evil.com\\@paypal.com/login", "evil.com", "/@paypal.com/login"),
        ("http:\\\\evil.com\\a\\b", "evil.com", "/a/b"),
        ("http://evil%2ecom/login", "evil.com", "/login"),
        ("http://%65vil.com/", "evil.com", "/"),
        ("http://p\u0430ypal.com/login", "xn--pypal-4ve.com", "/login"),  # a Cyrillic a
        ("http://B\u00fccher.DE./", "xn--bcher-kva.de", "/"),
        ("http://evil\u3002com/", "evil.com", "/"),  # an ideographic full stop
        ("http://0x7f.1/", "127.0.0.1", "/"),
        ("http://2130706433/", "127.0.0.1", "/"),
        ("http://010.0.0.1/", "8.0.0.1", "/"),
        ("http://0X7F.0.0.01/", "127.0.0.1", "/"),
        ("http://127.1/", "127.0.0.1", "/"),
        ("http://4294967295/", "255.255.255.255", "/"),
        ("http://0x/", "0.0.0.0", "/"),
        ("http://1.2.3.4./", "1.2.3.4", "/"),
        ("http://ev\til.com/", "evil.com", "/"),
        ("http://evil.com/lo\ngin\r", "evil.com", "/login"),
        ("http://user:p@ss@evil.com/", "evil.com", "/"),
        ("http:evil.com", "evil.com", ""),
        ("http:///evil.com/x", "evil.com", "/x"),
        ("HTTPS://Evil.COM/x", "evil.com", "/x"),
        ("http://evil.com:8080/x", "evil.com", "/x"),
        ("http://evil.com:abc/x", "evil.com", "/x"),
        ("http://a.com#@evil.com", "a.com", ""),
        ("http://a.com?@evil.com", "a.com", ""),
        (" \x00\x1f http://evil.com/ \x07", "evil.com", "/"),
        ("\u00a0http://evil.com\\@paypal.com/", "evil.com", "/@paypal.com/"),
    ]

    @pytest.mark.parametrize("url, host, path", BROWSER_HOSTS)
    def test_host_as_a_browser_reads_it(self, url, host, path):
        parts = parse_url(url)
        assert (parts.host, parts.path) == (host, path)

    def test_scheme_and_query(self):
        parts = parse_url("HTTPS:\\\\a.b.example.com\\x\\?q=a\\b%20%21#frag")
        assert (parts.scheme, parts.registered_domain, parts.subdomain_depth) == \
            ("https", "example.com", 2)
        assert (parts.path, parts.query, parts.percent_encoded_count) == ("/x/", "q=a\\b%20%21", 2)

    def test_ipv4_host_has_no_parent_domains(self):
        for url in ("http://1.2.3.4/login", "http://0x01020304/login", "http://1.2.772/x"):
            parts = parse_url(url)
            assert (parts.host, parts.registered_domain, parts.subdomain_depth) == \
                ("1.2.3.4", "1.2.3.4", 0)

    def test_ipv6_host_is_its_own_domain(self):
        for url in ("http://[2001:db8::1]/login", "https://[2001:DB8:0:0::1]:8443/x",
                    "wss://u@[2001:db8:0:0:0:0:0:1]"):
            parts = parse_url(url)
            assert (parts.host, parts.registered_domain, parts.subdomain_depth) == \
                ("[2001:db8::1]", "[2001:db8::1]", 0)

    labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ0123456789-_",
                     min_size=1, max_size=8)
    last_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
    tail = st.text(alphabet="abcxyz09/?#.:;=&+-_~!$'()*, ", max_size=20)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["http", "https", "HTTP", "hTTps", "ftp", "ws", "mailto"]),
           st.lists(labels, max_size=4), last_label,
           st.sampled_from(["", ".", ":", ":8080", ":x"]),
           st.sampled_from(["", "/", "?", "#"]), tail, st.sampled_from(["", " ", "  "]))
    def test_urlsplit_oracle_where_the_readings_agree(self, scheme, head, last, port, sep, rest,
                                                      pad):
        """Without "\\", "%", "@", control characters, non-ASCII, a numeric
        last label or an IPv6 bracket, a browser and RFC 3986 read the same
        host."""
        rest = sep + rest if sep else ""  # the host ends at the port
        url = f"{pad}{scheme}://{'.'.join(head + [last])}{port}{rest}{pad}"
        try:
            expected = urlsplit_url_parts(url)
        except ValueError:
            with pytest.raises(InvalidUrlError):
                parse_url(url)
            return
        parts = parse_url(url)
        assert (parts.scheme, parts.host, parts.registered_domain, parts.subdomain_depth,
                parts.path, parts.query, parts.percent_encoded_count) == expected


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
        verdict, event = UrlEvaluator(blacklist=bl).evaluate("http://evil.example./a")
        assert verdict.score == 100 and event is not None

    def test_fully_qualified_entry_listed(self):
        bl = Blacklist(["evil.example.", "Bad.Example. "])
        for url in ("http://evil.example/a", "http://evil.example./a", "http://x.bad.example/"):
            verdict, event = UrlEvaluator(blacklist=bl).evaluate(url)
            assert verdict.score == 100 and event is not None
        assert len(bl) == 2 and "evil.example" in bl

    def test_load_file_with_comments(self, tmp_path):
        path = tmp_path / "bl.txt"
        path.write_text("# header\nbad.com\n\nworse.com  # inline\n")
        bl = Blacklist.load(str(path))
        assert len(bl) == 2 and "bad.com" in bl and "worse.com" in bl

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet="aBz.#  \t\r", max_size=8), max_size=8),
           st.sampled_from(["\n", "\r\n", "\r"]))
    def test_load_reads_the_entries_line_by_line_would(self, tmp_path_factory, lines, newline):
        path = tmp_path_factory.mktemp("bl") / "bl.txt"
        path.write_bytes(newline.join(lines).encode())
        bl = Blacklist.load(str(path))
        entries = blacklist_entries(path)
        assert len(bl) == len(entries) and all(entry in bl for entry in entries)

    def test_load_file_with_crlf_case_and_dots(self, tmp_path):
        path = tmp_path / "bl.txt"
        path.write_bytes(b"# list\r\nBad.COM.\r\n\r\n  worse.com # x\r\nbad.com\r\n")
        bl = Blacklist.load(str(path))
        assert len(bl) == 2 and "bad.com" in bl and "worse.com" in bl
        assert {"bad.com", "worse.com"} == blacklist_entries(path)

    def test_idn_entry_matches_its_url(self, tmp_path):
        path = tmp_path / "bl.txt"
        path.write_text("B\u00fccher.de.\n", encoding="utf-8")
        for bl in (Blacklist(["b\u00fccher.de"]), Blacklist.load(str(path))):
            assert len(bl) == 1 and "xn--bcher-kva.de" in bl
            for url in ("http://b\u00fccher.de/login", "https://www.B\u00dcCHER.de./",
                        "http://xn--bcher-kva.de/"):
                verdict, event = UrlEvaluator(blacklist=bl).evaluate(url)
                assert verdict.method is DetectionMethod.BLACKLIST and event is not None

    def test_entry_idna_cannot_encode_is_dropped(self):
        bl = Blacklist(["\u00e9" * 70 + ".com", "evil.com"])
        assert len(bl) == 1 and "evil.com" in bl

    def test_ipv4_entry_matches_only_its_address(self):
        bl = Blacklist(["3.4", "10.0.0.1"])
        verdict, event = UrlEvaluator(blacklist=bl).evaluate("http://1.2.3.4/x")
        assert verdict.method is DetectionMethod.HEURISTIC and event is None
        for url in ("http://10.0.0.1/x", "http://167772161/x", "http://0xa.1/x"):
            verdict, event = UrlEvaluator(blacklist=bl).evaluate(url)
            assert verdict.score == 100 and verdict.method is DetectionMethod.BLACKLIST

    def test_ipv6_entry_matches_its_address_in_any_spelling(self):
        bl = Blacklist(["[2001:DB8:0::1]", "[zz]"])
        assert len(bl) == 1
        for url in ("http://[2001:db8::1]/login", "https://[2001:db8:0:0:0:0:0:1]:8443/x"):
            verdict, event = UrlEvaluator(blacklist=bl).evaluate(url)
            assert verdict.method is DetectionMethod.BLACKLIST and event is not None
        verdict, _ = UrlEvaluator(blacklist=bl).evaluate("http://[2001:db8::2]/")
        assert verdict.method is DetectionMethod.HEURISTIC

    def test_backslash_does_not_hide_a_listed_host(self):
        bl = Blacklist(["evil.com"])
        # ws, wss and ftp share the http(s) host rules (WHATWG URL Standard).
        for url in ("http://evil.com\\@paypal.com/login", "https://evil%2ecom/login",
                    "http:evil.com/x", "wss://evil.com\\@paypal.com/",
                    "ftp://evil.com\\@paypal.com/", "ws://evil%2ecom/", "WS:\\\\evil.com/x"):
            verdict, event = UrlEvaluator(blacklist=bl).evaluate(url)
            assert verdict.method is DetectionMethod.BLACKLIST and event is not None


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
        score, triggered = default_score(parse_url("http://secure-updates-login.com"))
        assert score == 85
        assert set(triggered) == {"host_keyword", "plain_http", "multi_hyphen_domain"}

    def test_clean_https_scores_zero(self):
        score, triggered = default_score(parse_url("https://example.com"))
        assert score == 0 and triggered == []

    def test_brand_plus_http_plus_path_keyword(self):
        score, triggered = default_score(parse_url("http://g00gle.com/login"))
        assert score == 40 + 15 + 10
        assert set(triggered) == {"brand_similarity", "plain_http", "path_keyword"}

    def test_host_keyword_cap(self):
        # login + verify + update all in host: 30 + 15 + 15 capped at 45
        parts = parse_url("https://login-verify-update.net")
        score, _ = default_score(parts)
        assert score == HOST_KEYWORD_CAP + MULTI_HYPHEN_DOMAIN

    def test_score_bounded_and_cap_at_100(self):
        parts = parse_url("http://a.b.c.login-verify-g00gle.com/login?x=%20%3F")
        score, _ = heuristic_score(parts, ["login-verify-g0gle.com"], DEFAULT_KEYWORDS)
        assert 0 <= score <= 100

    def test_trailing_dot_lookalike(self):
        _, triggered = default_score(parse_url("https://paypa1.com."))
        assert triggered == ["brand_similarity"]

    def test_http_never_decreases_score(self):
        for suffix in ["example.com", "a.b.c.d.login-site.com/verify?%20%21"]:
            https, _ = default_score(parse_url("https://" + suffix))
            http, _ = default_score(parse_url("http://" + suffix))
            assert http >= https

    @settings(max_examples=500, deadline=None)
    @given(brand_and_lookalike())
    def test_brand_verdict_matches_the_oracle(self, pair):
        brand, reg = pair
        parts = UrlParts("https", reg, reg, 0, "", "", 0)
        _, triggered = heuristic_score(parts, [brand], [])
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
            default_score(parse_url(url))
        assert len(benign) == 1624
        assert len(calls) <= 100  # 0 measured


class TestEvaluateUrl:
    def test_blacklisted_is_100(self):
        bl = Blacklist(["fake-bank-login.com"])
        verdict, event = UrlEvaluator(blacklist=bl).evaluate("http://fake-bank-login.com")
        assert verdict.score == 100
        assert verdict.method is DetectionMethod.BLACKLIST
        assert verdict.triggered == ("blacklist",)
        assert event is not None and event.detection_method is DetectionMethod.BLACKLIST

    def test_heuristic_event_above_threshold(self):
        verdict, event = UrlEvaluator().evaluate("http://secure-updates-login.com")
        assert verdict.score == 85
        assert event is not None and event.score == 85
        assert event.detection_method is DetectionMethod.HEURISTIC

    def test_benign_no_event(self):
        verdict, event = UrlEvaluator().evaluate("https://example.com")
        assert verdict.score == 0 and event is None

    def test_stateless(self):
        now = Timestamp.parse("2025-02-13T09:11:45Z")
        first = UrlEvaluator().evaluate("http://secure-updates-login.com", clock=lambda: now)
        second = UrlEvaluator().evaluate("http://secure-updates-login.com", clock=lambda: now)
        assert first == second

    def test_invalid_url_raises_without_event(self):
        with pytest.raises(InvalidUrlError):
            UrlEvaluator().evaluate("not a url")


class TestUrlEvaluator:
    def test_each_alert_carries_its_own_now(self):
        ev = UrlEvaluator()
        first, second = (Timestamp.parse("2025-01-01T00:00:00Z"),
                         Timestamp.parse("2025-06-01T00:00:00Z"))
        _, a = ev.evaluate("http://secure-updates-login.com", clock=lambda: first)
        _, b = ev.evaluate("http://secure-updates-login.com", clock=lambda: second)
        assert a.timestamp == first and b.timestamp == second

    def test_alert_at_the_threshold_and_above(self):
        for threshold, alerted in ((85, True), (86, False)):
            _, event = UrlEvaluator(threshold=threshold).evaluate("http://secure-updates-login.com")
            assert (event is not None) is alerted

    def test_brands_and_keywords_any_case(self):
        ev = UrlEvaluator(brands=["PayPal.com"], keywords=["LOGIN"])
        verdict, _ = ev.evaluate("https://paypa1.com/Login")
        assert set(verdict.triggered) == {"brand_similarity", "path_keyword"}
