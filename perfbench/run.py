#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root.  Builds the measurement engine
(perfbench/mvlbench.exe) and the mvl CLI with dune, runs the workload,
and prints two JSON lines on stdout:

  1. the full record: provenance (cpu count, OCaml version, commit,
     seed, workload names), every metric, every failed output check;
  2. the summary, {"correct", "attempted", "failed", "metrics"}, whose
     metrics are every BENCHMARK.json end-to-end metric (--trace 0) or
     every per-layer metric (--trace 1); a per-layer metric of a layer
     the workload does not run is 0.

--out FILE also appends the full record to FILE, the input of
perfbench/compare.py.  Exits non-zero, printing no summary, when the
repository sources are missing, the build fails or the engine crashes.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

ENGINE = os.path.join("_build", "default", "perfbench", "mvlbench.exe")
MVL = os.path.join("_build", "default", "bin", "mvl_cli.exe")
ENGINE_TIMEOUT_S = 170

WORKLOADS = ["validate-large", "construct-catalog", "simulate", "serve-zipf"]


def layers(*names):
    """The share of the traced wall and the Mwords per round of each layer."""
    return [n + suffix for n in names for suffix in (".share", ".alloc_mwords")]


# The per-layer metrics each workload's traced run must measure; every
# traced run also measures TRACED.  A declared per-layer metric that a
# workload does not measure (its layer does no work there) is reported
# as 0 and listed under "not_measured" in the full record.
LAYERS = {
    "validate-large": layers(
        "registry.parse", "registry.build", "families.layout", "check.run",
        "layout.metrics",
    ) + [
        "families.mseg_per_s", "check.mseg_per_s.small",
        "check.mseg_per_s.large", "check.scaling", "check.violations",
        "check.planted_found",
    ],
    "construct-catalog": layers(
        "registry.parse", "registry.build", "families.layout",
        "layout.metrics", "telemetry.encode",
    ) + [
        "families.mseg_per_s", "families.area_ratio",
        "families.max_wire_ratio", "telemetry.bytes",
    ],
    "simulate": layers("network_sim.run", "wormhole.run") + [
        "network_sim.packets_per_s", "wormhole.router_cycles_per_s",
        "network_sim.accepted_ratio", "network_sim.p99_cycles",
        "routing_table.tables_per_s", "routing_table.load_imbalance",
        "network_sim.delivered", "network_sim.undrained", "wormhole.cycles",
        "sim_shard.speedup_j2",
    ],
    "serve-zipf": layers("protocol.encode", "client.send", "client.recv") + [
        "protocol.eval_per_s.layout", "protocol.eval_per_s.metrics",
        "protocol.eval_per_s.validate", "protocol.codec_per_s",
        "serve.cold_per_s", "serve.warm_per_s", "server.hit_ratio",
        "reply_cache.evictions",
    ],
}
TRACED = ["perfbench.share", "unattributed_frac", "trace.overhead_frac"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The git commit of a git checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run_engine(args):
    cmd = [
        ENGINE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mvl", MVL,
    ]
    # own process group, so a timeout also stops the serve daemon
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=ENGINE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("engine timed out after %d s" % ENGINE_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        die("engine exited with code %d" % proc.returncode)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die("engine printed no record")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", "BENCHMARK.json"):
        if not os.path.exists(need):
            die("run from the repository root (%s not found)" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    # the shared dune cache would write outside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/mvlbench.exe",
         "./bin/mvl_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        die("build failed")

    record = run_engine(args)
    measured = record["metrics"]
    # every workload measures every end-to-end metric
    wanted = LAYERS[args.workload] + TRACED if args.trace else [
        m["name"] for m in spec["end_to_end"]]
    missing = [n for n in wanted if n not in measured]
    if missing:
        die("metrics not measured: " + ", ".join(missing))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wrong = [n for n in wanted
             if n not in units or units[n] != measured[n]["unit"]]
    if wrong:
        die("metrics not declared in BENCHMARK.json with the unit measured: "
            + ", ".join(wrong))
    not_measured = [n for n in units if n not in wanted]
    record["not_measured"] = not_measured
    values = {n: measured[n]["value"] for n in wanted}
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        die("metrics not finite: " + ", ".join(bad))
    values.update((n, 0.0) for n in not_measured)

    record["provenance"] = {
        "cpu_count": os.cpu_count(),
        "ocaml_version": record.pop("ocaml_version", None),
        "commit": commit_id(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "workloads": [w["name"] for w in spec["workloads"]],
    }
    summary = {
        "correct": record["failed"] == 0 and record["attempted"] >= 1,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a") as f:
            f.write(line + "\n")
    print(line)
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
