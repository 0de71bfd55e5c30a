"""The percentile rule and the parent-versus-change verdict."""

import pytest

from perfbench.stats import beyond, percentile, tail_percentile, verdict


@pytest.mark.parametrize("n, q, expected", [
    (100, 90, 10), (101, 90, 10), (99, 90, 10), (90, 90, 9), (10, 50, 5), (21, 50, 10),
])
def test_samples_beyond_a_percentile(n, q, expected):
    assert beyond(n, q) == expected
    values = sorted(range(n))
    cut = percentile(values, q)
    assert sum(1 for v in values if v > cut) == expected


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(120) == 90
    assert tail_percentile(100) == 90
    assert tail_percentile(90) == 89
    assert tail_percentile(40) == 76
    assert tail_percentile(21) == 54
    assert tail_percentile(20) == 52
    assert tail_percentile(19) is None
    for n in range(20, 300):
        q = tail_percentile(n)
        assert beyond(n, q) >= 10
        assert q == 90 or beyond(n, q + 1) < 10


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    assert verdict(parent, list(parent), "lower", 0.1)["verdict"] == "unchanged"
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "better"
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    assert verdict(noisy, list(noisy), "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)["verdict"] == "better"
