"""scripts/graph_bytes.py at the toy profile: what one recorded forward's
graph holds, by allocation site."""

import os
import re
import subprocess
import sys

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "graph_bytes.py")


def test_toy_run_prints_each_head_and_sites_that_sum_to_the_graph():
    out = subprocess.run([sys.executable, _SCRIPT, "--toy"], check=True,
                         capture_output=True, text=True, timeout=120).stdout.splitlines()
    heads = [i for i, line in enumerate(out) if not line.startswith(" ")]
    assert [out[i].split("\t")[:2] for i in heads] == [["toy-gap", "init seed 71000"],
                                                      ["toy-token", "init seed 71000"]]
    for start, end in zip(heads, heads[1:] + [len(out)]):
        total = float(re.fullmatch(r"graph ([0-9.]+) MiB", out[start].split("\t")[2])[1])
        sizes = [float(line.split()[0]) for line in out[start + 1:end]]
        assert out[end - 1].endswith("(the rest)")
        # the toy graph keeps every one-block array: x-hat, each layer
        # norm's output, the MLP's h and GELU(h), the probabilities
        assert any("xhat = np.empty" in line for line in out[start + 1:end])
        assert 0.1 < total and abs(sum(sizes) - total) <= 0.005 * len(sizes)
