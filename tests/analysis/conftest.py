import pytest

from repro.analysis.flow import analyze


@pytest.fixture(scope="session")
def repo_report():
    """One analysis of the whole tree, shared by the repo self-checks."""
    return analyze()
