"""Self-test of the benchmark at its smallest sizes.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

import workloads  # noqa: E402

LIB = run.import_library(run.LIVE)
BASE = run.import_library(run.BASELINE)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--small"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert f"error_rate 0 (0/{result['attempted']})" in lines[0]
    meta = json.loads(lines[-2])["meta"]
    assert {"seed", "git_sha", "python", "platform", "nproc"} <= set(meta)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_reference_and_exception_count_as_errors(workload, tmp_path):
    calls, _ = workloads.build(workload, 3, str(tmp_path), LIB, small=True)
    runs = [c.bind(LIB) for c in calls]
    expects = [c.expect for c in calls]
    expects[0] = object()               # equal to no answer

    def broken():
        raise ZeroDivisionError("injected")

    runs[-1] = broken
    result = run.measure(runs, [c.bind(BASE) for c in calls], expects, 0)
    assert result["attempted"] == result["rounds"] * len(calls)
    assert result["failed"] == 2 * result["rounds"]


def test_a_smaller_job_fails_the_pin(tmp_path):
    calls, _ = workloads.build("certify_fp", 3, str(tmp_path), LIB, small=True)
    with pytest.raises(workloads.PinError):
        workloads.pin("certify_fp", calls[:-1], small=True)
