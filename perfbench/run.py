"""Repo benchmark: ``nestreg train`` and ``nestreg register`` end to end, and
a traced per-layer breakdown of the same calls.

    python3 perfbench/run.py --workload train-32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere; the engine is imported from ``src/`` next to this
directory. One run makes the workload's inputs from ``--seed``, sets up
several times (``setup_s`` is the median), makes one untimed warm-up call,
then calls the CLI in-process until ``--seconds`` have passed. Every call is
checked; a failed check counts the call as failed and makes the exit code 1.
Untraced calls are timed against a fixed numpy kernel run between them
(``HostReference``), so that the shared host's drift cancels out.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from traced calls
alternating with untraced ones (their ratio is the tracing overhead). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs each
workload in its own process and prefixes metric names with the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
MIN_COVERAGE_PCT = 90.0  # share of a traced call the named layer spans must cover

# Environment of the measuring process, set before the interpreter starts
# (the script re-executes itself with it when run as a program): one BLAS
# thread. On the 2-CPU reference machine a second OpenBLAS thread doubled
# CPU time without shortening a call, and made timings noisier. The
# allocator is left at its defaults, so the figures include what the
# engine's large temporaries cost in page faults.
PROCESS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class HostReference:
    """A fixed piece of numpy work, timed next to every untraced call.

    The host is shared: its speed drifts by up to 40 % within an hour, and a
    call's wall time drifts with it. ``call_ref``, a call's wall time over
    this kernel's time measured just before and after the call, cancels most
    of the drift, while a change to the program moves it in full. The kernel
    is the engine's kind of work (running sums, elementwise math, a matmul,
    a scatter-add) on float32 volumes of the engine's size. No code of the
    repo runs in it, and it writes into buffers made once, so the
    allocator's state, which the program's calls shape, does not reach it.
    """

    REPEATS = 3  # timings before and after each call; a call's reference is their median
    ROUNDS = 30  # about 60 ms per timing on the 2-vCPU reference VM

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x0 = rng.standard_normal((2, 40, 40, 40)).astype(np.float32)
        self.w = (rng.standard_normal((64, 64)) / 8).astype(np.float32)
        self.idx = np.arange(0, self.x0.size, 7)
        self.bins = self.idx % 5000
        self.x, self.y = np.empty_like(self.x0), np.empty_like(self.x0)
        self.z = np.empty((self.x0.size // 64, 64), np.float32)
        self.picked = np.empty(self.idx.size, np.float32)
        self.hist = np.empty(5000, np.float32)
        self.times()  # warm-up: first touches of the buffers

    def _once(self) -> None:
        import numpy as np

        x, y, z = self.x, self.y, self.z
        np.copyto(x, self.x0)
        for _ in range(self.ROUNDS):
            np.multiply(x, x, out=y)
            np.cumsum(y, axis=1, out=y)
            np.cumsum(y, axis=2, out=y)
            np.matmul(y.reshape(z.shape), self.w, out=z)
            np.tanh(z, out=z)
            z *= 0.5
            x += z.reshape(x.shape)
            x /= 1.5
            np.take(x, self.idx, out=self.picked)
            self.hist.fill(0)
            np.add.at(self.hist, self.bins, self.picked)

    def times(self) -> list[float]:
        out = []
        for _ in range(self.REPEATS):
            t0 = perf_counter()
            self._once()
            out.append(perf_counter() - t0)
        return out


def parse_args(argv):
    names = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time after set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes for the benchmark's own tests; figures are not comparable")
    return p.parse_args(argv)


def import_engine():
    """Import nestreg from this checkout's src/ (never from anywhere else)."""
    sys.path.insert(0, str(ROOT / "src"))
    import nestreg

    if Path(nestreg.__file__).resolve().parent != (ROOT / "src" / "nestreg").resolve():
        raise ImportError(f"nestreg was imported from {nestreg.__file__}, not from {ROOT / 'src'}")


def blas_threads():
    """Thread count OpenBLAS reports, read through its own API (None if not found)."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "process_env": {k: os.environ.get(k) for k in PROCESS_ENV},
    }


class Runner:
    """Runs one workload: set-up, warm-up, the measured loop, and the result."""

    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.wl = WORKLOADS[args.workload](args.seed, args.smoke)
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed gates of the run as a whole

    def call(self, i: int, argv=None, tracer=None, check=True):
        """One checked CLI call; returns (wall seconds, ok, trace snapshot)."""
        from workloads import run_cli

        argv = argv or self.wl.argv(i)
        snap = None
        if tracer is not None:
            tracer.install()
            tracer.start()
        try:
            wall, rc, out, err = run_cli(argv)
        finally:
            if tracer is not None:
                snap = tracer.finish(wall)
                tracer.remove()
        problems = []
        if err is not None:
            problems.append(f"raised:\n{err}")
        elif rc != 0:
            problems.append(f"exit code {rc}")
        elif check:
            try:
                problems = self.wl.check(i, json.loads(out))
            except Exception as e:  # a check that cannot even run is a failed check
                problems = [f"check raised {e!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {self.wl.name} call {i} ({argv[0]}): {p}", file=sys.stderr)
        return wall, not problems, snap

    def run(self) -> tuple[dict, list[str]]:
        import shutil

        try:
            return self._run()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self):
        args, wl = self.args, self.wl
        repeats = 1 if (args.smoke or args.trace) else wl.setup_repeats
        setups = []
        for k in range(repeats):
            t0 = perf_counter()
            wl.setup(self.work / f"setup{k}")
            setups.append(perf_counter() - t0)

        self.call(0)  # warm-up: checked, not timed
        walls, refs, snaps, untraced = [], [], [], []
        tracer = host = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        else:
            host = HostReference()
            before = host.times()
        deadline = perf_counter() + args.seconds
        i = 1
        while True:
            wall, ok, _ = self.call(i)
            if host is not None:
                after = host.times()
                if ok:
                    walls.append(wall)
                    refs.append(statistics.median(before + after))
                before = after
            elif ok:
                untraced.append(wall)
            i += 1
            if tracer is not None:
                wall, ok, snap = self.call(i, tracer=tracer)
                if ok:
                    walls.append(wall)
                    snaps.append(snap)
                i += 1
            if perf_counter() >= deadline:
                break
        if not walls or (tracer is not None and not untraced):
            return None, [f"{wl.name}: no call succeeded"]

        lines = [f"{wl.name}: {self.attempted} calls ({self.failed} failed), "
                 f"{len(walls)} {'traced ' if tracer else ''}timed; setup x{len(setups)}"]
        if tracer is None:
            return self._end_to_end(setups, walls, refs, lines)
        return self._per_layer(tracer, walls, snaps, untraced, lines)

    def _end_to_end(self, setups, walls, refs, lines):
        import resource

        wl = self.wl
        call_s = statistics.median(walls)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "call_ref": (statistics.median(w / r for w, r in zip(walls, refs)), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ssim_ratio": (wl.quality()["ssim_ratio"], "ratio"),
        }
        # The wall time itself, the same figures under the workload's own
        # names, and the failed fraction, for the reader; the result line
        # carries the shared names.
        extra = {"call_s": call_s, "host_ref_ms": statistics.median(refs) * 1e3, **wl.throughput(call_s),
                 **wl.quality(), "failed_frac": self.failed / self.attempted}
        extra.pop("ssim_ratio")
        spread = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
        lines.append(f"  {len(walls)} timed calls: min {min(walls):.3f} s, quartiles "
                     f"{spread[0]:.3f} / {spread[1]:.3f} / {spread[2]:.3f} s, max {max(walls):.3f} s; "
                     f"{len(setups)} set-ups")
        lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines += [f"  ({k} = {v:.6g})" for k, v in extra.items()]
        return metrics, lines

    def _per_layer(self, tracer, walls, snaps, untraced, lines):
        from spans import micro_benchmarks

        wl = self.wl
        # One traced call of the other command reaches the layers this
        # workload's calls never enter; it is not part of coverage.
        _, ok, complement = self.call(-1, argv=wl.complement_argv(), tracer=tracer, check=False)
        if not ok:
            return None, lines + [f"{wl.name}: complement call failed"]
        tracer.install()
        try:
            micro = micro_benchmarks(tracer, wl.extent, wl.ncc_window,
                                     repeats=1 if self.args.smoke else 3, seed=self.args.seed)
        finally:
            tracer.remove()

        names = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
        units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}
        records = [n for s in snaps for n in s["_tape_records"]]
        records_from = "calls" if records else "complement"
        records = records or complement["_tape_records"]
        coverage = [s["_named_ms"] / s["_wall_ms"] * 100 for s in snaps]
        own = {
            "tensor.tape_records": statistics.median(records),
            "volio.bytes_read": wl.bytes_read(),
            "volio.bytes_written": wl.bytes_written(),
            "synth.pair_ms": statistics.median(wl.synth_ms),
            "trace.coverage_pct": statistics.median(coverage),
            "trace.unattributed_ms": statistics.median(s["_wall_ms"] - s["_named_ms"] for s in snaps),
            "trace.overhead_pct": (statistics.median(walls) / statistics.median(untraced) - 1) * 100,
            **micro,
        }
        metrics, sources = {}, {}
        for name in names:
            key = name.removesuffix("_ms")
            if name in own:
                value, src = own[name], records_from if name == "tensor.tape_records" else "own"
            elif any(key in s for s in snaps):
                value, src = statistics.median(s.get(key, 0.0) for s in snaps), "calls"
            elif key in complement:
                value, src = complement[key], "complement"
            else:
                raise KeyError(f"per-layer metric {name} was not measured")
            metrics[name] = (value, units[name])
            sources[name] = src

        # Gates of the traced run: the named layers must account for the
        # call, and the tape must hold the same records at every step.
        if own["trace.coverage_pct"] < MIN_COVERAGE_PCT:
            self.problems.append(f"trace coverage {own['trace.coverage_pct']:.1f}% < {MIN_COVERAGE_PCT}%")
        if len(set(records)) != 1:
            self.problems.append(f"tape records per step vary: {sorted(set(records))}")

        lines.append(f"  traced calls: {len(snaps)}, untraced calls: {len(untraced)}; "
                     f"tape records per step: {sorted(set(records))}")
        lines.append(f"  coverage: {own['trace.coverage_pct']:.1f}% of a traced call is inside named "
                     f"layer spans; unattributed self time {own['trace.unattributed_ms']:.1f} ms")
        lines.append(f"  overhead: traced call {statistics.median(walls):.3f} s vs untraced "
                     f"{statistics.median(untraced):.3f} s ({own['trace.overhead_pct']:+.1f}%)")
        for name, (value, unit) in metrics.items():
            tag = "" if sources[name] != "complement" else "   [off this workload's calls: complement call]"
            lines.append(f"  {name} = {value:.6g} {unit}{tag}")
        return metrics, lines


def run_one(args) -> int:
    import_engine()
    sys.path.insert(0, str(HERE))
    env = environment(args)
    runner = Runner(args)
    metrics, lines = runner.run()
    for line in lines:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    spec = json.loads(SPEC.read_text())
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if metrics is not None and list(metrics) != want:
        raise RuntimeError(f"emitted metrics {list(metrics)} != BENCHMARK.json {want}")
    for problem in runner.problems:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    correct = metrics is not None and runner.failed == 0 and not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for w in json.loads(SPEC.read_text())["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        rc = rc or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{k}"] = v
    print(json.dumps(combined), flush=True)
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


def exec_with_process_env() -> None:
    """Re-execute this script with PROCESS_ENV unless it is already in place."""
    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        argv = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
        os.execve(sys.executable, argv, {**os.environ, **PROCESS_ENV})


if __name__ == "__main__":
    exec_with_process_env()
    sys.exit(main())
