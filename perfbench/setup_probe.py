"""Set up one workload in a fresh interpreter, say so, then tear it down.

``run.py`` spawns this script and times the span from the spawn to the
``ready`` line: ``import repro.cli`` plus starting the service (serve
workloads) or building the explored config (explorer workload).
"""

import argparse
import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.cli  # noqa: E402,F401  -- part of what set-up measures

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    shape = workloads.WORKLOADS[args.workload]
    if isinstance(shape, workloads.ExploreShape):
        workloads.explore_config(args.seed)
        print("ready", flush=True)
        return

    async def serve() -> None:
        service = workloads.make_service(shape)
        await service.start()
        print("ready", flush=True)
        await service.close()

    asyncio.run(serve())


if __name__ == "__main__":
    main()
