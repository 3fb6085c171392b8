"""sitelasso.rng against numpy's own ``default_rng(seed)``: the same bits for every draw.

The package draws its split plan and the collinearity filter's tie-breaks
from its own PCG64 copy so that a run never imports ``numpy.random``; these
tests import it as the oracle.
"""

import numpy as np
import pytest
from _toys import quickstart_config

from sitelasso.cli import main
from sitelasso.errors import ConfigError
from sitelasso.features import expand_terms, filter_collinear
from sitelasso.pointdata import PointDataset, read_points_csv
from sitelasso.rng import DefaultRng
from sitelasso.splits import make_splits

# 2**200 + 17 is seven 32-bit words: more than SeedSequence's pool of four
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 1, 2**200 + 17]

# (n, k) of choice(n, k, replace=False). numpy runs Floyd's algorithm unless
# n > 10,000 and k > n // 50, where it shuffles the tail of range(n) instead:
# 10,001 // 50 is 200, so (10,001, 200) and (10,001, 201) straddle the switch
CHOICES = [(80, 53), (70, 46), (2, 1), (10_000, 9_999), (10_001, 200), (10_001, 201),
           (20_001, 20_000)]


@pytest.mark.parametrize("seed", SEEDS)
def test_the_raw_stream_matches_pcg64(seed):
    ours = DefaultRng(seed)
    assert [ours._next64() for _ in range(8)] == np.random.PCG64(seed).random_raw(8).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_and_integers_match_numpy_interleaved(seed):
    ours, oracle = DefaultRng(seed), np.random.default_rng(seed)
    for n, k in CHOICES:
        assert ours.choice(n, k) == oracle.choice(n, k, replace=False).tolist(), (n, k)
        # one 32-bit half of a 64-bit draw: the next choice starts mid-word
        assert ours.integers(2) == oracle.integers(2), (n, k)
    # beyond the package's draws: the bound 2**32 - 1 takes a whole 32-bit
    # word, and a bound past it takes Lemire's 64-bit branch
    for high in (3, 2**32, 2**32 + 1, 2**40, 2**63):
        assert ours.integers(high) == oracle.integers(high), high


@pytest.fixture(scope="module")
def quickstart_points(tmp_path_factory):
    base = tmp_path_factory.mktemp("quickstart")
    data = base / "quickstart_data"
    assert main(["synth", quickstart_config(base, "synth_quickstart.cfg", output_dir=data)]) == 0
    return read_points_csv(str(data / "points.csv"))


def numpy_training_sets(data, quotas, n_splits, seed):
    """Each site's training sets as ``make_splits`` drew them with numpy's Generator."""
    rng = np.random.default_rng(seed)
    out = {}
    for site in data.sites():
        rows = data.site_rows(site)
        seen, train = set(), []
        while len(train) < n_splits:
            pick = np.sort(rng.choice(rows, size=quotas[site], replace=False))
            if pick.tobytes() not in seen:
                seen.add(pick.tobytes())
                train.append(pick.tolist())
        out[site] = train
    return out


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_make_splits_draws_numpys_plan_on_the_quickstart_points(quickstart_points, seed):
    data = quickstart_points
    # the quickstart config's two-thirds quotas and its 200 splits
    quotas = {s: round(2 * data.site_rows(s).size / 3) for s in data.sites()}
    plan = make_splits(data, quotas, n_splits=200, seed=seed)
    expected = numpy_training_sets(data, quotas, 200, seed)
    assert {s: [a.tolist() for a in p.train] for s, p in plan.site_plans.items()} == expected


class NumpyStream:
    """``DefaultRng``'s interface over numpy's own Generator."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)

    def integers(self, high):
        return int(self._gen.integers(high))


def test_filter_random_tie_breaks_match_numpy(monkeypatch):
    # three pairs of near-clones and their interactions: each of the twelve
    # removals ties two terms of one order and rank, so the random rule decides
    rng = np.random.default_rng(4)
    base = rng.normal(size=(30, 3))
    values = np.column_stack([base, base + 0.01 * rng.normal(size=(30, 3))])
    data = PointDataset(
        np.array(["S1"] * 30, dtype=object), np.arange(30.0), np.zeros(30),
        np.linspace(0.0, 1.0, 30), ["a", "b", "c", "a2", "b2", "c2"], values,
    )
    design = expand_terms(data, max_order=1)
    for seed in (0, 1, 7, 11):
        _, ours = filter_collinear(design, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr("sitelasso.rng.DefaultRng", NumpyStream)
            _, expected = filter_collinear(design, seed=seed)
        assert [r.rule_step for r in ours] == ["random"] * 12
        assert ours == expected, seed


def test_a_negative_seed_is_a_config_error_naming_the_seed(quickstart_points):
    data = quickstart_points
    quotas = {s: 10 for s in data.sites()}
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        make_splits(data, quotas, n_splits=5, seed=-1)
    design = expand_terms(data, max_order=1)
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -2$"):
        filter_collinear(design, seed=-2)
