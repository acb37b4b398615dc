"""The CSV artifacts' bytes, pinned against frozen text.

The reports are built by hand, so the pinned text does not depend on
BLAS or on any training path.
"""

import math
from datetime import datetime, timezone

from fedmesh.config import load_config
from fedmesh.evaluation import ClientRoundRecord, MetricsReport, RoundReport
from fedmesh.outputs import write_baseline_metrics, write_run_artifacts
from fedmesh.privacy import NoiseReceipt

NAN, INF = float("nan"), float("inf")
GAUSSIAN = NoiseReceipt(
    sigma=0.06056006578256737, clip_applied=True, pre_clip_norm=0.5153571848880174, mechanism="gaussian"
)
UNCLIPPED = NoiseReceipt(sigma=2.5, clip_applied=False, pre_clip_norm=0.03125, mechanism="gaussian")
NO_NOISE = NoiseReceipt(sigma=0.0, clip_applied=False, pre_clip_norm=1e-20, mechanism="none")
FLAGGED = NoiseReceipt(sigma=0.0, clip_applied=False, pre_clip_norm=0.0, mechanism="none")


def _reports():
    round_0 = RoundReport(
        round_index=0,
        domain_losses={"user": 0.5821652617770131, "medical": 1.0986122886681096},
        global_loss=0.75,
        global_metrics=MetricsReport(0.75, 2 / 3, 0.5, 0.5714285714285714),
        tracked={"user": (1e-05, -3.0), "global": (0.1, -0.25), "medical": (123456.789, 0.0)},
        clients=(
            ClientRoundRecord(
                0, "medical", True, False, 240, 1.0986122886681096, 0.5813565932898074, GAUSSIAN, 8.0, 1e-05
            ),
            # Idle: NaN losses and no receipt.
            ClientRoundRecord(1, "user", False, False, 120, NAN, NAN, None, 8.0, 1e-05),
            # Privacy disabled: blank epsilon and delta.
            ClientRoundRecord(2, "user", True, False, 7, 0.3, 0.1, NO_NOISE),
        ),
    )
    round_1 = RoundReport(
        round_index=1,
        domain_losses={"medical": 0.25, "user": 1 / 3},
        global_loss=0.3,
        global_metrics=MetricsReport(1.0, 1.0, 1.0, 1.0),
        tracked={"global": (0.2, -0.5), "medical": (0.2, -0.5), "user": (math.pi, 1e300)},
        clients=(
            # Flagged: diverged, with the receipt a flagged update carries.
            ClientRoundRecord(0, "medical", True, True, 240, 0.9, INF, FLAGGED, 0.5, 1e-07),
            ClientRoundRecord(1, "user", True, False, 120, 2.0, 1.5, UNCLIPPED, 8.0, 1e-05),
            ClientRoundRecord(2, "user", False, False, 7, NAN, NAN, None),
        ),
    )
    return [round_0, round_1]


# Frozen writer output; the csv module ends each row with CRLF.
EXPECTED = {
    "loss_curves.csv": """\
round,domain,loss
0,medical,1.0986122886681096
0,user,0.5821652617770131
1,medical,0.25
1,user,0.3333333333333333
""",
    "param_trace.csv": """\
round,domain_eval_tag,index,value
0,global,0,0.1
0,global,1,-0.25
0,medical,0,123456.789
0,medical,1,0.0
0,user,0,1e-05
0,user,1,-3.0
1,global,0,0.2
1,global,1,-0.5
1,medical,0,0.2
1,medical,1,-0.5
1,user,0,3.141592653589793
1,user,1,1e+300
""",
    "metrics.csv": """\
round,accuracy,precision,recall,f1
0,0.75,0.6666666666666666,0.5,0.5714285714285714
1,1.0,1.0,1.0,1.0
""",
    "clients.csv": """\
round,client_id,domain,participated,diverged,sample_count,loss_before,loss_after,epsilon,delta,mechanism,sigma,clip_applied,pre_clip_norm
0,0,medical,1,0,240,1.0986122886681096,0.5813565932898074,8.0,1e-05,gaussian,0.06056006578256737,1,0.5153571848880174
0,1,user,0,0,120,nan,nan,8.0,1e-05,,,,
0,2,user,1,0,7,0.3,0.1,,,none,0.0,0,1e-20
1,0,medical,1,1,240,0.9,inf,0.5,1e-07,none,0.0,0,0.0
1,1,user,1,0,120,2.0,1.5,8.0,1e-05,gaussian,2.5,0,0.03125
1,2,user,0,0,7,nan,nan,,,,,,
""",
    "baseline_metrics.csv": """\
round,accuracy,precision,recall,f1
0,0.75,0.6666666666666666,0.5,0.5714285714285714
1,1.0,1.0,1.0,1.0
""",
}


def test_artifact_bytes_are_pinned(tmp_path):
    reports = _reports()
    started = datetime(2024, 1, 1, tzinfo=timezone.utc)
    names = write_run_artifacts(tmp_path, load_config("configs/iid_baseline.cfg"), reports, started)
    assert names == ["loss_curves.csv", "param_trace.csv", "metrics.csv", "clients.csv", "manifest.json"]
    write_baseline_metrics(
        tmp_path / "baseline_metrics.csv", [(r.round_index, r.global_metrics) for r in reports]
    )
    for name, text in EXPECTED.items():
        assert (tmp_path / name).read_bytes() == text.replace("\n", "\r\n").encode("utf-8"), name
