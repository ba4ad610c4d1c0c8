"""Benchmark of the multiseg pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the checkout's own src/ (never an installed copy).  Workloads are in
corpus.py and README.md; every item is one CLI call, checked by gate.py.

--trace 0 (timed): measures set-up in fresh interpreters, then repeats
    whole passes over the workload's items, one at a time, while another
    pass fits in --seconds (at least one pass).  No wrappers are installed.
    Prints setup_s, items_per_s, latency_p50_s, latency_p90_s, peak_rss_mb.
--trace 1 (traced): one pass (plus, in-process, corpus.coverage_tail) in
    which every item runs once untraced and once with tracer.py's wrappers
    installed (cli_session: through shim.py); prints per-module calls,
    times, counts, self time and the tracing overhead.  The item set does
    not depend on time, so two traced runs give the same counts.

The last stdout line is the result object; the line before it carries the
run's metadata, which is also written with the spans under perfbench/out/.
Exit code 2 without a result means the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import corpus
import gate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11     # set-ups per run; setup_s is their median
PROBE_REPEATS = 7      # bare interpreter starts and imports per traced run
CALL_TIMEOUT_S = 120   # a subprocess item running longer fails

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_s": "s",
              "latency_p90_s": "s", "peak_rss_mb": "MB"}


class Outcome(NamedTuple):
    seconds: float
    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None
    rss_mb: float = 0.0


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


class Spawner:
    """Starts one child interpreter at a time on the checkout's src/, with
    stdout and stderr captured in memory files, and waits for it."""

    def __init__(self):
        self.out = os.memfd_create("perfbench-stdout", os.MFD_CLOEXEC)
        self.err = os.memfd_create("perfbench-stderr", os.MFD_CLOEXEC)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
        signal.signal(signal.SIGALRM, _alarm)

    def close(self) -> None:
        os.close(self.out)
        os.close(self.err)

    def _read(self, fd: int) -> str:
        return os.pread(fd, os.fstat(fd).st_size, 0).decode("utf-8", "replace")

    def run(self, args, extra_env=None) -> Outcome:
        for fd in (self.out, self.err):
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
        env = dict(self.env, **extra_env) if extra_env else self.env
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, self.out, 1),
                   (os.POSIX_SPAWN_DUP2, self.err, 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except _Timeout:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        return Outcome(seconds, os.waitstatus_to_exitcode(status), self._read(self.out),
                       self._read(self.err), None, usage.ru_maxrss / 1024)

    def seconds(self, args) -> float:
        """Wall time of one run, which must exit 0."""
        out = self.run(args)
        if out.rc != 0:
            raise RuntimeError(f"{args} exited {out.rc}: {out.stderr.strip()[-300:]}")
        return out.seconds

    def median_seconds(self, args, repeats: int) -> float:
        """Median of `repeats` runs after one untimed warm-up run (which
        fills the bytecode caches)."""
        self.seconds(args)
        return statistics.median(self.seconds(args) for _ in range(repeats))


def call_inproc(cli, argv) -> Outcome:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the item failed; the run goes on and reports it
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    return Outcome(seconds, rc, out.getvalue(), err.getvalue(), error)


def reference_s() -> float:
    """Time of a fixed pure-Python loop that does not touch multiseg.  Its
    median, recorded in the metadata, shows how fast the machine ran
    during a run, which tells a slow spell from a slow program."""
    t0 = time.perf_counter()
    sum(i * i % 7 for i in range(100_000))
    return time.perf_counter() - t0


def materialize(items, workdir: Path) -> list:
    """Concrete argv per item, with parameter files written to workdir."""
    argvs = []
    for i, item in enumerate(items):
        path = workdir / f"item{i:04d}.txt"
        if item.text is not None:
            path.write_text(item.text, encoding="utf-8")
        subst = {corpus.FILE: str(path), corpus.MISSING: str(workdir / "missing.txt")}
        argvs.append([subst.get(a, a) for a in item.argv])
    return argvs


def src_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "multiseg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


class Bench:
    def __init__(self, args, cli):
        self.args = args
        self.cli = cli
        self.spawner = Spawner()
        self.items = corpus.generate(args.workload, args.seed)
        self.in_process = args.workload != "cli_session"
        if args.trace and self.in_process:
            self.items = self.items + corpus.coverage_tail()
        OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.argvs = materialize(self.items, self.workdir)
        self.gate = gate.Gate(args.workload)
        self.attempted = 0
        self.failed = 0
        self.meta = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "commit": git_commit(), "src_sha": src_sha(),
            "corpus_hash": corpus.corpus_hash(self.items), "items_per_pass": len(self.items),
        }

    def close(self) -> None:
        self.spawner.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def call(self, i: int) -> Outcome:
        argv = self.argvs[i]
        if self.in_process:
            return call_inproc(self.cli, argv)
        return self.spawner.run(["-m", "multiseg.cli", *argv])

    def record(self, i: int, out: Outcome) -> None:
        self.attempted += 1
        if not self.gate.check(self.items[i], out.rc, out.stdout, out.stderr, out.error):
            self.failed += 1

    # ------------------------------------------------------------ timed
    def timed(self) -> dict:
        """Whole passes while another fits in --seconds.  The set-up probes
        are spread over the first pass, so that a slow spell of a shared
        machine does not meet all of them."""
        probe = [str(HERE / "setup_probe.py"), self.args.workload, str(self.args.seed)]
        self.spawner.seconds(probe)  # warm-up: fills the bytecode caches
        setups, references = [], []
        due = [(j + 1) * len(self.items) // (SETUP_REPEATS + 1) for j in range(SETUP_REPEATS)]
        if tracer.traced_names():
            raise RuntimeError("a timed run found traced wrappers installed")
        latencies, rss, passes = [], 0.0, 0
        start = time.perf_counter()
        while True:
            for i in range(len(self.items)):
                out = self.call(i)
                latencies.append(out.seconds)
                rss = max(rss, out.rss_mb)
                self.record(i, out)
                while passes == 0 and due and due[0] <= i:
                    setups.append(self.spawner.seconds(probe))
                    references.append(reference_s())
                    due.pop(0)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > self.args.seconds:
                break
        if tracer.traced_names():
            raise RuntimeError("a timed run found traced wrappers installed")
        if self.in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.meta.update(passes=passes, latency_samples=len(latencies),
                         setup_samples=len(setups), busy_s=sum(latencies),
                         wall_s=time.perf_counter() - start,
                         reference_s=statistics.median(references))
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": rss,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    # ------------------------------------------------------------ traced
    def traced(self) -> dict:
        """Each item runs untraced, then traced; the difference of the two
        sums is the tracing overhead."""
        interp = self.spawner.median_seconds(["-c", "pass"], PROBE_REPEATS)
        imported = self.spawner.median_seconds(["-c", "import multiseg.cli"], PROBE_REPEATS)

        tr = tracer.Tracer()
        untraced, traced, stdout_bytes = 0.0, 0.0, 0
        trace_file = self.workdir / "child-trace.json"
        main_stat = tr.stats["cli.main"]
        for i in range(len(self.items)):
            out = self.call(i)
            untraced += out.seconds
            self.record(i, out)
            tr.item = i
            if self.in_process:
                before = main_stat[1]
                tr.install()
                try:
                    out = self.call(i)
                finally:
                    tr.uninstall()
                tr.outside_s += out.seconds - (main_stat[1] - before)
            else:
                out = self.spawner.run([str(HERE / "shim.py"), *self.argvs[i]],
                                       {"PERFBENCH_TRACE_OUT": str(trace_file)})
                if trace_file.exists():  # absent if the child died early; the gate flags it
                    tr.merge(json.loads(trace_file.read_text()), i, out.seconds)
                    trace_file.unlink()
            traced += out.seconds
            stdout_bytes += len(out.stdout.encode())
            self.record(i, out)

        dump = tr.dump()
        module_self = tr.module_self()
        top = max(module_self, key=module_self.get)
        what, seconds = INTENDED[self.args.workload]
        self.meta.update(
            spans_kept=len(tr.spans), spans_dropped=dump["spans_dropped"],
            dominant_module={"module": top, "share": module_self[top] / traced},
            intended_split={"what": what, "share": seconds(tr, module_self) / traced})
        with open(OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json", "w") as fh:
            json.dump({"meta": self.meta, **dump}, fh)

        values = {"cli.interpreter_s": interp, "cli.import_s": imported - interp,
                  "cli.render_s": sum(tr.stats[n][1] for n in tracer.SPAN_NAMES
                                      if n.startswith("cli.render.")),
                  "cli.stdout_bytes": stdout_bytes}
        for name in tracer.SPAN_NAMES:
            if not name.startswith("cli.render."):
                values[f"{name}.calls"] = tr.stats[name][0]
                values[f"{name}.s"] = tr.stats[name][1]
        values.update(tr.counts)
        values["groth.peak_terms"] = tr.peak_terms
        for mod, self_s in module_self.items():
            values[f"self_s.{mod}"] = self_s
        for mod, self_s in module_self.items():
            values[f"share.{mod}"] = self_s / traced
        values.update({"trace.items": len(self.items), "trace.untraced_s": untraced,
                       "trace.traced_s": traced, "trace.overhead_s": traced - untraced,
                       "trace.spans_kept": len(tr.spans)})
        return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}


def outermost_s(tr, prefix: str) -> float:
    """Time under spans whose name starts with prefix, not counting a span
    nested inside another such span (those names are never capped)."""
    names = {sid: (name, parent) for sid, name, _, _, parent, _ in tr.spans}
    total = 0.0
    for sid, name, t0, t1, parent, _ in tr.spans:
        if not name.startswith(prefix):
            continue
        while parent in names and not names[parent][0].startswith(prefix):
            parent = names[parent][1]
        if parent not in names:
            total += t1 - t0
    return total


# The split each workload was built for: what should dominate item time.
INTENDED = {
    "peel_chain": ("groth self time", lambda tr, mod: mod["groth"]),
    "deep_block": ("time under resolve_param and verify_cancellation",
                   lambda tr, mod: outermost_s(tr, "resolve.")),
    "dual_sweep": ("time under core.mw_dual", lambda tr, mod: tr.stats["core.mw_dual"][1]),
    "cli_session": ("interpreter start, import and exit", lambda tr, mod: mod["outside"]),
}


def layer_unit(name: str) -> str:
    if name.startswith("share."):
        return "ratio"
    if name.startswith("self_s.") or name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("peel_chain", "deep_block", "dual_sweep", "cli_session"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_cli():
    """multiseg.cli from the checkout's src/, or None if there is none."""
    if not (SRC / "multiseg" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import multiseg.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "multiseg":
        return None
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    if cli is None:
        print(f"error: no multiseg sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args, cli)
    try:
        metrics = bench.traced() if args.trace else bench.timed()
    finally:
        bench.close()
    bench.meta.update(loadavg_end=os.getloadavg(), attempted=bench.attempted,
                      failed=bench.failed, digests_checked=bench.gate.checked_recorded,
                      failures=bench.gate.failures[:10])
    for line in bench.gate.failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"meta": bench.meta, "result": result}, fh, indent=1)
    print("meta " + json.dumps(bench.meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
