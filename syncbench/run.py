#!/usr/bin/env python3
"""Build and run the syncbench benchmark from the root of a source checkout.

    python3 syncbench/run.py --workload commit-storm --seed 1 --seconds 20 --trace 0

Builds stacksync-server and the load program from source into .bench_build
(Go caches included, so nothing is written outside the checkout), runs one
workload and passes the load program's output through; its last line is the
JSON result. Exits non-zero, printing no result, if the checkout cannot be
built or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

TIMEOUT_S = 170  # the whole run, build included once the caches are warm
FIRST_BUILD_TIMEOUT_S = 700


def fail(msg):
    print(f"syncbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tree_hash(root, skip):
    """SHA-256 over the path and content of every Go source and module file."""
    h = hashlib.sha256()
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in skip and not d.startswith("."))
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                files.append(os.path.join(dirpath, name))
    for path in sorted(files):
        h.update(os.path.relpath(path, root).encode())
        h.update(b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def go_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    return env


def build(root, here, build_dir, stamp, env, deadline):
    bin_dir = os.path.join(build_dir, "bin")
    server = os.path.join(bin_dir, "stacksync-server")
    load = os.path.join(bin_dir, "syncbench")
    stamp_path = os.path.join(bin_dir, "stamp")
    try:
        with open(stamp_path) as f:
            if f.read() == stamp and os.path.exists(server) and os.path.exists(load):
                return server, load
    except OSError:
        pass
    os.makedirs(bin_dir, exist_ok=True)
    for cwd, args in (
        (root, ["go", "build", "-o", server, "./cmd/stacksync-server"]),
        (here, ["go", "build", "-o", load, "."]),
    ):
        try:
            p = subprocess.run(args, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if p.returncode != 0:
            fail(f"build failed: {' '.join(args)}")
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return server, load


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.exists(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "cmd", "stacksync-server")):
        fail(f"{root} is not a stacksync source checkout")
    if shutil.which("go") is None:
        fail("no go toolchain on PATH")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.abspath(build_dir)
    env = go_env(build_dir)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    stamp = tree_hash(root, {os.path.basename(build_dir)})
    cold = not os.path.exists(os.path.join(build_dir, "bin", "stamp"))
    deadline = started + (FIRST_BUILD_TIMEOUT_S if cold else TIMEOUT_S)
    server, load = build(root, here, build_dir, stamp, env, deadline)
    # A cold build has its own allowance; otherwise the build counts too.
    run_deadline = (time.monotonic() if cold else started) + TIMEOUT_S

    work = os.path.join(build_dir, "runs", str(os.getpid()))
    spans = os.path.join(build_dir, "spans")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [load, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-server", server, "-work", work, "-spans", spans, "-tree", stamp]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, run_deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("run timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"load program exited with {proc.returncode}")
    sys.stdout.write(out.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
