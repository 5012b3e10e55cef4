"""Registry drift guard: every method tag computes the interval kind the
paper gives it, and the coverage harness scores it against the matching
target (the new-study effect for prediction, the true mean otherwise)."""

import pytest

from metapred import (
    MetaDataset,
    Scenario,
    replication_stream,
    run_analysis,
    run_replication,
    simulate_dataset,
)
from metapred.methods import METHODS
from metapred.priors import NAMED_PRIORS

EXPECTED_KIND = {
    **{name: "prediction" for name in NAMED_PRIORS},
    "hts": "prediction",
    "hts-hk": "prediction",
    "hts-sj": "prediction",
    "dl": "confidence",
    **{f"cred:{name}": "credible" for name in NAMED_PRIORS},
}
ALL_TAGS = sorted(set(METHODS) | set(EXPECTED_KIND))

DATASET = MetaDataset.from_arrays(
    [0.42, -0.08, 0.55, 0.26, 0.78, 0.11], [0.21, 0.28, 0.19, 0.24, 0.30, 0.26]
)
# wide heterogeneity and a 50% level, so theta_new and mu often fall on
# different sides of an interval's endpoints
SCENARIO = Scenario(n=5, tau2=1.0, level=0.5)
SEED = 3


@pytest.fixture(scope="module")
def analysis():
    report = run_analysis(DATASET, methods=ALL_TAGS)
    return {r.method: r for r in report.results}


@pytest.fixture(scope="module")
def separating_replications():
    """Per tag, the first replication whose interval holds exactly one of
    theta_new and mu, with that interval, theta_new and the scored row."""
    found = {}
    for rep in range(30):
        stream = replication_stream(SEED, SCENARIO, rep)
        dataset, theta_new = simulate_dataset(stream, SCENARIO)
        report = run_analysis(dataset, methods=ALL_TAGS, level=SCENARIO.level)
        rows = run_replication(SCENARIO, ALL_TAGS, (SEED, rep))
        for r in report.results:
            iv = r.interval
            if r.method in found or iv is None:
                continue
            if iv.contains(theta_new) != iv.contains(SCENARIO.mu):
                found[r.method] = (iv, theta_new, rows[r.method])
        if len(found) == len(ALL_TAGS):
            break
    return found


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_tag_kind_and_coverage_target(tag, analysis, separating_replications):
    result = analysis[tag]
    assert result.interval is not None, result.error
    assert result.interval.kind == EXPECTED_KIND[tag]
    assert METHODS[tag].kind == EXPECTED_KIND[tag]

    assert tag in separating_replications, "no replication separates theta_new and mu"
    iv, theta_new, (covered, width, failed) = separating_replications[tag]
    target = theta_new if EXPECTED_KIND[tag] == "prediction" else SCENARIO.mu
    assert not failed
    assert width == iv.width
    assert covered == iv.contains(target)
