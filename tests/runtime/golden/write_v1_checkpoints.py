"""Write the v1 checkpoint fixtures of ``tests/runtime/test_checkpoint_compat.py``.

Serves the compat workload once through the single service and once
through a 2-shard cluster, saving one in-progress checkpoint at chunk
``CHECKPOINT_AT`` of each, and copies the two documents here.  Run from
the repository root::

    PYTHONPATH=src python tests/runtime/golden/write_v1_checkpoints.py

The checked-in documents come from the code that predates the unified
serve report; running this on newer code writes the new shapes and the
compat test would then no longer cover the old ones.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[3]))

from repro.cluster import ClusterCheckpointManager  # noqa: E402
from repro.runtime.checkpoint import CheckpointManager  # noqa: E402
from repro.telemetry import MetricRegistry, use_registry  # noqa: E402
from tests.runtime.test_checkpoint_compat import (  # noqa: E402
    CLUSTER_DOC,
    SINGLE_DOC,
    SaveAt,
    make_cluster,
    make_single,
    workload,
)


def main() -> None:
    split, artifacts = workload()
    with tempfile.TemporaryDirectory() as tmp, use_registry(MetricRegistry()):
        single_dir, cluster_dir = Path(tmp, "single"), Path(tmp, "cluster")
        make_single(split, artifacts).serve(
            split.stream_trace, checkpoint=SaveAt(CheckpointManager(single_dir))
        )
        with make_cluster(split, artifacts) as cluster:
            cluster.serve(
                split.stream_trace,
                checkpoint=SaveAt(ClusterCheckpointManager(cluster_dir)),
            )
        shutil.copyfile(single_dir / CheckpointManager.FILENAME, SINGLE_DOC)
        shutil.copyfile(cluster_dir / CheckpointManager.FILENAME, CLUSTER_DOC)
    print(f"wrote {SINGLE_DOC} and {CLUSTER_DOC}")


if __name__ == "__main__":
    main()
