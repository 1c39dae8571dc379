"""Run one ``python -m repro`` command under the layer tracer.

Usage: ``python shard_trace.py STATS_JSON <repro CLI args...>``

The traced dispatch run launches its shard subprocesses through this
script instead of ``-m repro``, so the shards' layers (campaign,
checkpoint writes, analysis) are traced too; the tracer's totals are
written to ``STATS_JSON`` when the command returns.
"""

import json
import sys
from pathlib import Path

import layertrace


def main() -> int:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from repro.cli import main as cli_main
    from repro.util.fixedpoint import fixed_point_stats

    before = fixed_point_stats()
    with layertrace.Tracer() as tracer:
        status = cli_main(argv)
    layertrace.record_fixed_point(tracer, before)
    stats_path.write_text(json.dumps(tracer.to_dict()))
    return status


if __name__ == "__main__":
    sys.exit(main())
