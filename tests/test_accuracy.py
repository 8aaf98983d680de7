"""The accuracy table of `tools/accuracy.py`, pinned to 0.01 m.

Each row is one workload, computed in memory (simulate -> Estimator): the
median and max error of the logs' best estimates, the number of logs with no
estimate, the median and max error of each log's ok iteration nearest the
truth (the best possible pick), and the first iteration index with an ok
result. The table is a check beside the acceptance gate, not part of it. A
change that moves an estimate moves a row; an opt-in mode adds rows of its
own.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("accuracy",
                                              os.path.join(ROOT, "tools", "accuracy.py"))
accuracy = importlib.util.module_from_spec(spec)
spec.loader.exec_module(accuracy)

# workload -> (median, max, logs with no estimate, best-pick median, best-pick max,
#              first ok iteration)
ROWS = {
    "gtu-accept": (16.13, 36.51, 0, 4.90, 15.57, 19),
    "loiter": (40.27, 49.32, 0, 29.43, 42.05, 1),
    "gtu-default": (312.40, 1053.06, 0, 159.74, 188.02, 4),
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_accuracy_row(name):
    r = accuracy.workload(name)
    got = (round(r["median"], 2), round(r["max"], 2), r["no_estimate"],
           round(r["best_median"], 2), round(r["best_max"], 2), min(r["curve"]))
    assert got == ROWS[name]
