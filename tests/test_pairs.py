"""scripts/pairs.py's summary of alternating parent/change samples, on fixed
samples: no benchmark runs."""

import importlib.util
import os

import pytest

_PAIRS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "pairs.py")


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs_script", _PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
              {"name": "img_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _samples(parent_rss, change_rss, parent_ips, change_ips):
    return [{"parent": {"peak_rss_mb": pr, "img_per_s": pi},
             "change": {"peak_rss_mb": cr, "img_per_s": ci}}
            for pr, cr, pi, ci in zip(parent_rss, change_rss, parent_ips, change_ips)]


def test_medians_quartiles_wins_and_gain(pairs):
    samples = _samples(parent_rss=[100, 102, 101, 103, 104],
                       change_rss=[90, 91, 102, 89, 92],  # loses pair 2 only
                       parent_ips=[1.0, 2.0, 3.0, 4.0, 5.0],
                       change_ips=[1.0, 2.5, 2.0, 4.5, 5.5])  # one tie, one loss
    s = pairs.summarize(samples, END_TO_END)
    rss, ips = s["peak_rss_mb"], s["img_per_s"]
    assert rss["parent"] == {"median": 102, "q1": 101, "q3": 103}
    assert rss["change"] == {"median": 91, "q1": 90, "q3": 92}
    assert rss["parent_iqr"] == 2 and rss["change_wins"] == 4 and rss["pairs"] == 5
    assert rss["relative"] == pytest.approx(-11 / 102)
    assert not rss["gain"]  # 4 of 5 is under nine tenths
    assert ips["change_wins"] == 3 and ips["parent_iqr"] == 2.0
    assert ips["relative"] == pytest.approx(-0.5 / 3.0)  # medians 3.0 and 2.5
    assert not ips["gain"]
    line = pairs.line("paper-train", "peak_rss_mb", rss)
    assert line == ("paper-train `peak_rss_mb`: 102 → 91 MB (-10.8%, change better 4/5, "
                    "parent q1–q3 101–103)")


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parent_iqr(pairs):
    parent = [100.0 + i for i in range(10)]  # q1 102.25, q3 106.75: IQR 4.5
    wide = pairs.summarize(_samples(parent, [p - 4 for p in parent], parent, parent),
                           END_TO_END)["peak_rss_mb"]
    assert wide["change_wins"] == 10 and not wide["gain"]  # 4 below, inside the IQR
    clear = pairs.summarize(_samples(parent, [p - 5 for p in parent], parent, parent),
                            END_TO_END)["peak_rss_mb"]
    assert clear["change_wins"] == 10 and clear["gain"]
    assert pairs.line("w", "peak_rss_mb", clear).endswith(" gain")
    higher = pairs.summarize(_samples(parent, parent, parent, [p + 5 for p in parent]),
                             END_TO_END)["img_per_s"]
    assert higher["change_wins"] == 10 and higher["gain"]


def test_one_pair_has_zero_spread(pairs):
    s = pairs.summarize(_samples([5.0], [4.0], [1.0], [1.0]), END_TO_END)
    assert s["peak_rss_mb"]["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    assert s["peak_rss_mb"]["change_wins"] == 1 and s["img_per_s"]["change_wins"] == 0


def test_failed_shares_sum_each_trees_runs(pairs):
    samples = [{"parent": {"attempted": a, "failed": f}, "change": {"attempted": 10, "failed": c}}
               for a, f, c in [(10, 0, 1), (12, 1, 0), (8, 0, 2)]]
    shares = pairs.failed_shares(samples)
    assert shares == {"parent": {"failed": 1, "attempted": 30, "share": 1 / 30},
                      "change": {"failed": 3, "attempted": 30, "share": 0.1}}
    assert pairs.shares_line("toy-train", shares) == \
        "toy-train failed share: 3.33% (1/30) → 10.00% (3/30)"
