"""The traced benchmark daemon wraps program entry points by name.  A name
it cannot resolve is reported as absent, with a null metric, instead of
failing, so a rename would only show in a traced benchmark run; these
tests make it fail here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_DAEMON = Path(__file__).resolve().parents[1] / "bench" / "traced_daemon.py"

_spec = importlib.util.spec_from_file_location("traced_daemon_under_test", TRACED_DAEMON)
_traced_daemon = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_traced_daemon)
TARGETS = _traced_daemon.TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_entry_point_resolves(name):
    # The lookup `install` in bench/traced_daemon.py makes: a class
    # attribute must be defined on the class itself.
    module_name, attr_path = TARGETS[name]
    assert module_name.startswith("sentinel.")
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    assert found, f"{name}: {module_name}.{attr_path} is gone"


def test_phishing_spans_see_the_module_globals(monkeypatch):
    # The tracer times parse_url and levenshtein by rebinding them on the
    # module; a scorer that held its own reference would leave both spans
    # empty without any error.
    import sentinel.phishing as phishing

    calls = []
    for name in ("parse_url", "levenshtein"):
        fn = getattr(phishing, name)
        monkeypatch.setattr(phishing, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    phishing.UrlEvaluator().evaluate("http://paypa1.com/login")
    assert calls.count("parse_url") == 1 and "levenshtein" in calls
