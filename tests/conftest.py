import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# (criterion number, label, passed) tuples filled in by test_acceptance.py.
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{label}]: {status}")


@pytest.fixture
def url_risk_model_dir(tmp_path):
    """A model dir whose current artifact, hash intact, names url_risk in
    place of geo_distance: a column no feature row holds."""
    from sentinel.etd.detector import content_hash, train_model
    from sentinel.events import Timestamp
    from sentinel.harness import gen_normal_rows

    artifact = train_model(gen_normal_rows(300, seed=5), tree_count=10,
                           trained_at=Timestamp.parse("2025-02-01T00:00:00Z"))
    body = artifact.body.replace('"geo_distance"', '"url_risk"')
    version = f"{content_hash(body)}-1738368000"
    models = tmp_path / "models"
    models.mkdir()
    (models / f"etd_model_{version}.json").write_text(f'{{"version":"{version}",{body[1:]}')
    (models / "current").write_text(version)
    return models
