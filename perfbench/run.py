#!/usr/bin/env python3
"""Build and run the metadis benchmark.

    python3 perfbench/run.py --workload <synth-pool|gcc-real> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs it.
Everything the run writes, including the traced pass's span file, lands
under `<target dir>/perfbench-work`. The last line of stdout is the
result JSON; the exit status is non-zero if the build or any check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The workload pins Config::threads itself; keep the host's default out.
    env.pop("METADIS_THREADS", None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
         "--fixtures", os.path.join(HERE, "gcc-real", "bin"), "--work", work],
        cwd=root, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
