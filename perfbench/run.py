#!/usr/bin/env python3
"""The spam-mass benchmark: host graph to flagged host, end to end.

Run from the root of a spammass checkout, one workload at a time:

    for w in estimate_120k update_120k stream_1m serve_120k; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

The script builds the `spammass` binary and the `perfbench` helper from
source (into $CARGO_TARGET_DIR, default `.bench_build`), sets up three
scenarios from sub-seeds of `--seed` (each timed; `setup_s` is the
median), computes their reference outputs, then measures for `--seconds`
seconds and checks every output. Self-tests: `python3
perfbench/test_run.py`.

`--trace 0` prints the end-to-end metrics, measured on the real
`spammass` processes with tracing off. `--trace 1` prints the per-layer
metrics of a separate traced run (`perfbench trace`): every per-layer
metric appears on every workload, and a layer the workload does not
exercise reports 0.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The line before it is the full record: provenance
(nproc, LLC bytes, commit or source digest, seed), every metric under its
workload-specific name with median, tail percentile and sample count, and
`failed_frac`.

Workloads (why each one is here):

* estimate_120k: text ingest, reordering, both in-memory solves, mass
  derivation; no state, no v4 decode.
* update_120k: the freshness path; state load, journal read, delta apply,
  warm solve, detection, save. The tiny journal is where a localized
  update must gain; the 1% step is where it must not regress.
* stream_1m: v4 block decode under a 64 MiB budget dominates; ordering,
  text ingest and state are unused.
* serve_120k: the only workload that exercises the query daemon; it runs
  no solve. A closed loop of 2 keep-alive connections (the daemon's
  callers each wait for their reply), with one generation published and
  reloaded halfway.
"""

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("estimate_120k", "update_120k", "stream_1m", "serve_120k")

# name -> (unit, better). The bounded end-to-end metrics every workload
# reports. op_p50_ms is the median wall time of the workload's operation:
# one `spammass estimate` process (estimate_120k), one update cycle of the
# 1% step then the tiny journal (update_120k), one streamed estimate
# (stream_1m), one request (serve_120k).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "precision": ("fraction", "higher"),
}

# name -> (unit, better). Every workload reports every name; a layer the
# workload does not exercise reports 0 (the record lists those names).
#
# Which end-to-end figure each layer should move, and where:
#   op_p50_ms on estimate_120k: graph.text_ingest_*, graph.order_s,
#     pagerank.solve_s/sweep_ms/gather_ns/..., core.estimate_*, core.detect_s,
#     cli.output_s
#   op_p50_ms on update_120k: graph.image_load_s, delta.*, core.update_*,
#     pagerank.solve_s and warm_sweeps (update_tiny_s in the record for the
#     *_tiny metrics)
#   op_p50_ms on stream_1m: graph.v4_*, pagerank.stream_*, blocks_decoded,
#     decoded_mb; peak_rss_mb there: graph.v4_bits_per_edge
#   op_p50_ms on serve_120k: serve.parse_us, serve.handler_us.score,
#     serve.write_us; serve_p99_us (record): serve.handler_us.topk,
#     serve.reload_ms, delta.state_save_s; setup_s: serve.snapshot_load_s
#   pagerank.bw_fraction reads pagerank.solve_s against host.mem_bw_gbs.
PER_LAYER = {
    "graph.text_ingest_s": ("s", "lower"),
    "graph.text_ingest_mb_s": ("MB/s", "higher"),
    "graph.image_load_s": ("s", "lower"),
    "graph.zero_copy": ("flag", "higher"),
    "graph.order_s": ("s", "lower"),
    "graph.v4_decode_pass_s": ("s", "lower"),
    "graph.v4_bits_per_edge": ("bits", "lower"),
    "pagerank.solve_s": ("s", "lower"),
    "pagerank.sweeps_p": ("count", "lower"),
    "pagerank.sweeps_p_core": ("count", "lower"),
    "pagerank.sweep_ms": ("ms", "lower"),
    "pagerank.edge_updates_per_s": ("1/s", "higher"),
    "pagerank.bytes_per_sweep": ("B", "lower"),
    "pagerank.bw_fraction": ("fraction", "higher"),
    "pagerank.workers": ("count", "higher"),
    "pagerank.gather_ns": ("ns", "lower"),
    "pagerank.barrier_wait_ns": ("ns", "lower"),
    "pagerank.merge_ns": ("ns", "lower"),
    "pagerank.stream_solve_s": ("s", "lower"),
    "pagerank.blocks_decoded": ("count", "lower"),
    "pagerank.decoded_mb": ("MiB", "lower"),
    "pagerank.stream_decode_share": ("fraction", "lower"),
    "pagerank.warm_sweeps": ("count", "lower"),
    "pagerank.warm_sweeps_tiny": ("count", "lower"),
    "core.estimate_s": ("s", "lower"),
    "core.estimate_self_s": ("s", "lower"),
    "core.solver_fallbacks": ("count", "lower"),
    "core.detect_s": ("s", "lower"),
    "core.update_s": ("s", "lower"),
    "core.update_tiny_s": ("s", "lower"),
    "core.warm_fallbacks": ("count", "lower"),
    "delta.state_load_s": ("s", "lower"),
    "delta.journal_read_s": ("s", "lower"),
    "delta.journal_read_tiny_s": ("s", "lower"),
    "delta.apply_s": ("s", "lower"),
    "delta.apply_tiny_s": ("s", "lower"),
    "delta.apply_rebuild": ("flag", "lower"),
    "delta.state_save_s": ("s", "lower"),
    "delta.state_bytes": ("B", "lower"),
    "serve.snapshot_load_s": ("s", "lower"),
    "serve.parse_us": ("us", "lower"),
    "serve.handler_us.score": ("us", "lower"),
    "serve.handler_us.batch": ("us", "lower"),
    "serve.handler_us.explain": ("us", "lower"),
    "serve.handler_us.topk": ("us", "lower"),
    "serve.write_us": ("us", "lower"),
    "serve.reload_ms": ("ms", "lower"),
    "serve.non200": ("count", "lower"),
    "cli.output_s": ("s", "lower"),
    "obs.tracing_overhead_pct": ("%", "lower"),
    "unattributed_pct": ("%", "lower"),
    "host.mem_bw_gbs": ("GB/s", "higher"),
}

HOSTS = 120_000
STREAM_HOSTS = 1_000_000
STREAM_BUDGET_MB = 64
# Scenarios set up per measured run, each from its own sub-seed of
# --seed; setup_s is the median of their set-up times, and the measured
# operations cycle over them so no single graph sets a run's figures.
SCENARIOS = 3
# How long the traced serve run drives the live daemon.
TRACE_SERVE_SECONDS = 3.0
# Detection thresholds (Algorithm 2, the CLI defaults): rho on scaled p, tau on m~.
RHO, TAU = 10.0, 0.98
# Tail percentiles tried, highest first, by the percentile rule.
TAIL_QUANTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(Exception):
    """A failure that ends the run without a result."""


def nearest_rank(q, n):
    """1-based nearest rank of percentile `q` (in tenths of a percent at
    most) among `n` samples, in exact integer arithmetic."""
    return -(-round(q * 10) * n // 1000)


def summarize(values, unit=None):
    """The percentile rule: the median, plus the highest tail percentile
    that has at least ten samples beyond it (nearest rank), with the
    sample count. No tail is reported when too few samples back one."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("no samples")
    out = {"median": statistics.median(v), "samples": n}
    if unit is not None:
        out["unit"] = unit
    for q in TAIL_QUANTILES:
        rank = nearest_rank(q, n)
        if n - rank >= 10:
            out.update(tail_pct=q, tail=v[rank - 1], beyond=n - rank)
            break
    return out


def p99_if_backed(values):
    """p99 (nearest rank), only when at least 1000 samples back it."""
    v = sorted(values)
    if len(v) < 1000:
        return None
    return v[nearest_rank(99.0, len(v)) - 1]


class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    def add(self, attempted, failed, reason=""):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# ------------------------------------------------------------------ outputs


def read_tsv(path):
    """Rows of an estimate TSV as tuples of floats (node id first)."""
    rows = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            cols = line.rstrip("\n").split("\t")
            rows.append((int(cols[0]), float(cols[2]), float(cols[3]), float(cols[4]), float(cols[5])))
    return rows


def flagged_from_rows(rows):
    return {r[0] for r in rows if r[1] >= RHO and r[4] >= TAU}


def tsv_mismatch(path, ref_path):
    """Why an estimate TSV disagrees with the reference, or None.

    The flagged sets must be equal and every score within the TSV's
    six-decimal rounding (1e-6 scaled, about 1e-12 on raw scores at
    120k hosts, well inside 1e-9)."""
    if filecmp.cmp(path, ref_path, shallow=False):
        return None
    rows, ref = read_tsv(path), read_tsv(ref_path)
    if len(rows) != len(ref):
        return f"{len(rows)} rows, reference has {len(ref)}"
    if flagged_from_rows(rows) != flagged_from_rows(ref):
        return "flagged set differs from the reference"
    for a, b in zip(rows, ref):
        if a[0] != b[0]:
            return f"row for node {a[0]} where the reference has {b[0]}"
        for x, y in zip(a[1:], b[1:]):
            if abs(x - y) > 1.0000001e-6 + 1e-9 * abs(y):
                return f"node {a[0]}: score {x} vs reference {y}"
    return None


def read_truth(path):
    spam = set()
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                node, is_spam = line.split()
                if is_spam == "1":
                    spam.add(int(node))
    return spam


def precision(pairs):
    """Share of flagged hosts the ground truth marks as spam, pooled over
    `(flagged, spam)` pairs (one per scenario)."""
    flagged = sum(len(f) for f, _ in pairs)
    if not flagged:
        raise BenchError("nothing flagged, precision undefined")
    return sum(len(f & spam) for f, spam in pairs) / flagged


def read_ids(path):
    with open(path) as f:
        return {int(line) for line in f if line.strip()}


def count_load(tally, summary):
    """Folds a `perfbench serveload` summary into `tally`: every request,
    warm-up ones included, and the `/reload` are attempted; a non-200 answer, a failed response
    check or a failed reload is counted in the summary's `failed`."""
    attempted = summary["requests"] + summary["warmup_requests"] + summary["reloads"]
    tally.add(attempted, summary["failed"], summary["first_failure"])


# ---------------------------------------------------------------- processes


def json_output(log_dir, name):
    text = (log_dir / f"{name}.out").read_text().strip().splitlines()
    return json.loads(text[-1])


class Server:
    """A running `spammass serve` on an ephemeral port."""

    def __init__(self, spammass, state, log_dir):
        self.err_path = log_dir / "serve.err"
        self.err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            # --max-seconds: the daemon exits on its own should this
            # runner die without stopping it.
            [str(spammass), "serve", "--state", str(state), "--threads", "2", "--addr", "127.0.0.1:0",
             "--max-seconds", "600"],
            stdout=subprocess.DEVNULL,
            stderr=self.err,
        )
        self.max_rss_mib = None
        deadline = time.monotonic() + 60
        while True:
            text = self.err_path.read_text(errors="replace")
            marker = "serving spam-mass queries on http://"
            # The line may arrive in pieces; only a whole one is parsed.
            line = text.split(marker, 1)[1] if marker in text else ""
            if "\n" in line:
                self.addr = line.split("/", 1)[0]
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError(f"serve did not start: {text[-800:]}")
            time.sleep(0.005)

    def stop(self):
        """Stops the daemon and waits for it; returns its peak RSS in MiB
        (`VmHWM` of its own image, read just before the stop), or None
        when it had already exited."""
        if self.proc.returncode is None:
            try:
                status = Path(f"/proc/{self.proc.pid}/status").read_text()
                kib = next(int(l.split()[1]) for l in status.splitlines() if l.startswith("VmHWM:"))
                self.max_rss_mib = kib / 1024.0
            except (OSError, StopIteration, ValueError):
                self.max_rss_mib = None
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.wait()
            self.err.close()
        return self.max_rss_mib


# ------------------------------------------------------------------- set-up


class Scenario:
    """One set-up scenario: its directory and, for serve, its daemon."""

    def __init__(self, d, seed):
        self.d = d
        self.seed = seed
        self.server = None


class Bench:
    def __init__(self, spammass, perfbench, work):
        self.spammass = spammass
        self.perfbench = perfbench
        self.work = work
        self.scenarios = []

    def run_timed(self, cmd, log_dir, name):
        """Runs `cmd` to completion through `perfbench exec`; returns (wall
        seconds, peak RSS in MiB, exit code). Output goes to files, so stdout
        stays the result channel."""
        out, err = log_dir / f"{name}.out", log_dir / f"{name}.err"
        done = subprocess.run(
            [str(self.perfbench), "exec", "--out", str(out), "--err", str(err), "--", *map(str, cmd)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise BenchError(f"perfbench exec {name}: {done.stderr.strip()}")
        result = json.loads(done.stdout)
        return result["seconds"], result["max_rss_kib"] / 1024.0, result["code"]

    def run_checked(self, cmd, log_dir, name):
        """Runs a set-up or helper step; a failure ends the run."""
        _, _, code = self.run_timed(cmd, log_dir, name)
        if code != 0:
            tail = (log_dir / f"{name}.err").read_text(errors="replace")[-800:]
            raise BenchError(f"{name} exited {code}: {tail}")

    def setup(self, workload, d, seed):
        """One set-up of `workload` from `seed` into directory `d`: the
        inputs the measured operations read, built by the program."""
        d.mkdir(parents=True)
        sm, pb = self.spammass, self.perfbench
        sc = Scenario(d, seed)
        if workload == "stream_1m":
            self.run_checked(
                [sm, "generate", "--stream", d / "scenario", "--hosts", STREAM_HOSTS, "--seed", seed],
                d, "generate",
            )
            self.run_checked([sm, "convert", "--in", d / "scenario", "--format", "v4", "--out", d / "g.v4"], d, "v4")
            return sc
        self.run_checked([pb, "fixture", "--hosts", HOSTS, "--seed", seed, "--dir", d], d, "fixture")
        if workload == "update_120k":
            self.run_checked(
                [sm, "estimate", "--graph", d / "web.txt", "--core", d / "core.txt", "--threads", 1,
                 "--order", "degree", "--state", d / "state"],
                d, "state",
            )
        elif workload == "serve_120k":
            # The TSV from the same run is what /score answers are checked against.
            self.run_checked(
                [sm, "estimate", "--graph", d / "web.txt", "--core", d / "core.txt", "--threads", 1,
                 "--order", "degree", "--out", d / "mass.tsv", "--state", d / "state"],
                d, "state",
            )
            sc.server = Server(sm, d / "state", d)
        return sc

    def reference(self, workload, sc):
        """The outputs a scenario's operations are checked against. Not
        part of setup_s: only the benchmark needs them."""
        sm, pb, d = self.spammass, self.perfbench, sc.d
        if workload == "estimate_120k":
            # Chained Jacobi (--batch false) against the default batched solve.
            self.run_checked(
                [sm, "estimate", "--graph", d / "web.txt", "--core", d / "core.txt", "--threads", 1,
                 "--order", "degree", "--batch", "false", "--out", d / "ref.tsv"],
                d, "reference",
            )
        elif workload == "update_120k":
            self.run_checked(
                [pb, "refupdate", "--state", d / "state", "--step", d / "step.journal",
                 "--tiny", d / "tiny.journal", "--out-step", d / "ref_step.txt",
                 "--out-tiny", d / "ref_tiny.txt"],
                d, "reference",
            )
        elif workload == "stream_1m":
            # The resident estimate of the same graph, from a v3 image.
            self.run_checked([sm, "convert", "--in", d / "g.v4", "--format", "v3", "--out", d / "g.v3"], d, "v3")
            self.run_checked(
                [sm, "estimate", "--graph", d / "g.v3", "--core", d / "scenario" / "core.txt",
                 "--threads", 1, "--out", d / "ref.tsv"],
                d, "reference",
            )

    def setup_all(self, workload, seed, count):
        """Sets up `count` scenarios from sub-seeds of `seed` and builds
        their references; returns the set-up times. Only the last streamed
        scenario is measured (its inputs are large), so earlier ones are
        removed once timed."""
        times = []
        for i in range(count):
            if workload == "stream_1m" and self.scenarios:
                shutil.rmtree(self.scenarios.pop().d)
            start = time.perf_counter()
            sc = self.setup(workload, self.work / f"scenario-{i}", seed * SCENARIOS + i)
            times.append(time.perf_counter() - start)
            self.scenarios.append(sc)
            if workload != "stream_1m" or i == count - 1:
                self.reference(workload, sc)
        return times

    def close(self):
        for sc in self.scenarios:
            if sc.server is not None:
                sc.server.stop()


# ------------------------------------------------------------ measurements


def measure(bench, workload, seconds, tally):
    """The measured loop over the set-up scenarios; returns (metrics,
    record entries under the workload's own metric names)."""
    sm, pb = bench.spammass, bench.perfbench
    scenarios = bench.scenarios
    op_times, record = [], {}
    rss = {sc.d: [] for sc in scenarios}
    deadline = time.perf_counter() + seconds
    truth = [read_truth(sc.d / ("scenario/truth.tsv" if workload == "stream_1m" else "truth.tsv")) for sc in scenarios]

    def rounds():
        """Scenario directories round-robin, while another round still
        fits before the deadline (at least one round)."""
        i = 0
        while True:
            start = time.perf_counter()
            yield scenarios[i % len(scenarios)].d
            i += 1
            if time.perf_counter() + (time.perf_counter() - start) > deadline:
                return

    if workload == "estimate_120k":
        for d in rounds():
            out = d / "out.tsv"
            t, mib, code = bench.run_timed(
                [sm, "estimate", "--graph", d / "web.txt", "--core", d / "core.txt", "--threads", 1,
                 "--order", "degree", "--out", out],
                d, "op",
            )
            problem = f"estimate exited {code}" if code else tsv_mismatch(out, d / "ref.tsv")
            tally.record(problem is None, problem or "")
            op_times.append(t)
            rss[d].append(mib)
        flagged = [flagged_from_rows(read_tsv(sc.d / "ref.tsv")) for sc in scenarios]
        record["estimate_s"] = summarize(op_times, "s")

    elif workload == "update_120k":
        # One operation is an update cycle on a fresh copy of the gen-1
        # state: the 1% step, then the tiny journal.
        step_times, tiny_times = [], []
        for d in rounds():
            it = d / "it"
            if it.exists():
                shutil.rmtree(it)
            shutil.copytree(d / "state", it)
            # Flush the copy now, or the update's own fsyncs pay for it.
            os.sync()
            for journal, ref, times in (("step.journal", "ref_step.txt", step_times), ("tiny.journal", "ref_tiny.txt", tiny_times)):
                t, mib, code = bench.run_timed([sm, "update", "--journal", d / journal, "--state", it, "--threads", 1], d, "op")
                if code:
                    problem = f"update with {journal} exited {code}"
                else:
                    _, _, check = bench.run_timed([pb, "check-state", "--state", it, "--expect", d / ref], d, "check")
                    problem = None if check == 0 else (d / "check.err").read_text(errors="replace").strip()
                tally.record(problem is None, problem or "")
                times.append(t)
                rss[d].append(mib)
            op_times.append(step_times[-1] + tiny_times[-1])
        flagged = [read_ids(sc.d / "ref_step.txt") for sc in scenarios]
        record["update_s"] = summarize(step_times, "s")
        record["update_tiny_s"] = summarize(tiny_times, "s")
        record["update_cycle_s"] = summarize(op_times, "s")

    elif workload == "stream_1m":
        for d in rounds():
            out = d / "out.tsv"
            t, mib, code = bench.run_timed(
                [sm, "estimate", "--graph", d / "g.v4", "--core", d / "scenario" / "core.txt",
                 "--max-resident-mb", STREAM_BUDGET_MB, "--threads", 1, "--out", out],
                d, "op",
            )
            if code:
                problem = f"streamed estimate exited {code}"
            elif not filecmp.cmp(out, d / "ref.tsv", shallow=False):
                problem = "streamed TSV differs from the resident v3 estimate"
            else:
                problem = None
            tally.record(problem is None, problem or "")
            op_times.append(t)
            rss[d].append(mib)
        flagged = [flagged_from_rows(read_tsv(sc.d / "ref.tsv")) for sc in scenarios]
        record["stream_s"] = summarize(op_times, "s")

    elif workload == "serve_120k":
        # The measuring time is split evenly over the scenarios' daemons.
        per_kind, elapsed, requests, reload_ms = {}, 0.0, 0, []
        for i, sc in enumerate(scenarios):
            log = sc.d / "latency.txt"
            bench.run_checked(
                [pb, "serveload", "--addr", sc.server.addr, "--state", sc.d / "state", "--tsv", sc.d / "mass.tsv",
                 "--seconds", seconds / len(scenarios), "--seed", sc.seed, "--log", log],
                sc.d, "load",
            )
            summary = json_output(sc.d, "load")
            peak = sc.server.stop()
            if peak is None:
                raise BenchError("serve exited before it was stopped")
            rss[sc.d].append(peak)
            count_load(tally, summary)
            elapsed += summary["elapsed_s"]
            requests += summary["requests"]
            reload_ms.append(summary["reload_ms"])
            with open(log) as f:
                for line in f:
                    kind, ns = line.split()
                    us = int(ns) / 1e3
                    op_times.append(us / 1e6)
                    per_kind.setdefault(kind, []).append(us)
        all_us = [t * 1e6 for t in op_times]
        flagged = [flagged_from_rows(read_tsv(sc.d / "mass.tsv")) for sc in scenarios]
        record["serve_qps"] = {"value": requests / elapsed, "unit": "1/s", "samples": len(scenarios)}
        record["serve_p50_us"] = summarize(all_us, "us")
        p99 = p99_if_backed(all_us)
        if p99 is not None:
            beyond = sum(1 for v in all_us if v > p99)
            record["serve_p99_us"] = {"value": p99, "unit": "us", "samples": len(all_us), "beyond": beyond}
        for kind, us in sorted(per_kind.items()):
            record[f"serve_{kind}_us"] = summarize(us, "us")
        record["serve_reload_ms"] = summarize(reload_ms, "ms")

    prec = precision(list(zip(flagged, truth)))
    # Peak RSS follows the graph's size, which varies with the sub-seed:
    # the median over each scenario's processes, averaged over scenarios.
    per_scenario = [statistics.median(v) for v in rss.values() if v]
    peak_rss = statistics.fmean(per_scenario)
    record["peak_rss_mb"] = {
        "value": peak_rss, "unit": "MiB", "samples": sum(len(v) for v in rss.values()),
        "per_scenario_median": per_scenario,
    }
    record["precision"] = {"value": prec, "unit": "fraction", "samples": len(scenarios)}
    metrics = {
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "peak_rss_mb": peak_rss,
        "precision": prec,
    }
    return metrics, record


def layer_metrics(layers):
    """Every PER_LAYER metric, 0 for a layer the workload did not
    exercise; a name the trace reports but PER_LAYER lacks is an error."""
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"trace reported unlisted metrics {sorted(unknown)}")
    return {name: float(layers.get(name, 0.0)) for name in PER_LAYER}


def trace_run(bench, workload, tally):
    """The traced run's per-layer metrics (every PER_LAYER name) on the
    first set-up scenario."""
    pb = bench.perfbench
    sc = bench.scenarios[0]
    d = sc.d
    bench.run_checked([pb, "bwprobe", "--llc-bytes", llc_bytes()], d, "bwprobe")
    probe = json_output(d, "bwprobe")
    bench.run_checked(
        [pb, "trace", "--workload", workload, "--dir", d, "--seed", sc.seed, "--mem-bw", probe["mem_bw_gbs"]],
        d, "trace",
    )
    layers = json_output(d, "trace")

    # The traced pipeline's own output is checked like the measured one.
    if workload == "estimate_120k":
        problem = tsv_mismatch(d / "trace.tsv", d / "ref.tsv")
    elif workload == "stream_1m":
        problem = None if filecmp.cmp(d / "trace.tsv", d / "ref.tsv", shallow=False) else "traced TSV differs"
    elif workload == "update_120k":
        _, _, code = bench.run_timed([pb, "check-state", "--state", d / "trace-state-2", "--expect", d / "ref_tiny.txt"], d, "check")
        problem = None if code == 0 else (d / "check.err").read_text(errors="replace").strip()
    else:
        problem = None
    tally.record(problem is None, problem or "")

    if workload == "serve_120k":
        bench.run_checked(
            [pb, "serveload", "--addr", sc.server.addr, "--state", d / "state", "--tsv", d / "mass.tsv",
             "--seconds", TRACE_SERVE_SECONDS, "--seed", sc.seed],
            d, "load",
        )
        summary = json_output(d, "load")
        count_load(tally, summary)
        layers["serve.reload_ms"] = summary["reload_ms"]
        layers["serve.non200"] = summary["non200"]
        layers["delta.state_save_s"] = summary["state_save_s"]
        layers["delta.state_bytes"] = summary["state_bytes"]

    layers["host.mem_bw_gbs"] = probe["mem_bw_gbs"]
    metrics = layer_metrics(layers)
    provenance = {
        "bw_array_bytes": probe["array_bytes"],
        "bw_array_bytes_wanted": probe["array_bytes_wanted"],
        "bw_capped": probe["capped"],
        "not_exercised": sorted(n for n in PER_LAYER if n not in layers),
        # Derived from array sizes and sweep counts, not measured.
        "computed": ["pagerank.bytes_per_sweep", "pagerank.bw_fraction"],
    }
    return metrics, provenance


# -------------------------------------------------------------- provenance


def llc_bytes():
    best = 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for size in base.glob("index*/size"):
        text = size.read_text().strip()
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def source_identity(root):
    """The git commit when the checkout is a repository, and always a
    digest of the sources the binaries are built from."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(
            p for p in (root / top).rglob("*")
            if p.is_file() and "target" not in p.parts and "__pycache__" not in p.parts
        )
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


# ---------------------------------------------------------------------- main


def build(root):
    """Builds `spammass` and `perfbench`; returns their paths."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "spammass-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed")
    return target / "release" / "spammass", target / "release" / "perfbench"


def result_line(tally, metrics, units):
    """The benchmark's result: exactly one entry per metric in `units`."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def human(name, value, unit):
    return f"  {name:<28} {value:>14.6g} {unit}"


def detail(entry):
    """Sample count and tail of a record entry, for the human summary."""
    text = f"  ({'median of ' if 'median' in entry else ''}{entry['samples']} samples"
    if "tail" in entry:
        text += f"; p{entry['tail_pct']:g} {entry['tail']:.6g}, {entry['beyond']} beyond"
    elif "beyond" in entry:
        text += f"; {entry['beyond']} beyond"
    return text + ")"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "cli" / "Cargo.toml").is_file():
        print("perfbench: run from the root of a spammass checkout (crates/ not found)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = None
    try:
        spammass, perfbench = build(root)
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        bench = Bench(spammass, perfbench, work)
        tally = Tally()
        setup_times = bench.setup_all(args.workload, args.seed, 1 if args.trace else SCENARIOS)
        # Write back what set-up left dirty before anything is timed: a
        # measured fsync would otherwise flush it.
        os.sync()
        commit, digest = source_identity(root)
        record = {
            "record": "spammass.perfbench/v1",
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "llc_bytes": llc_bytes(),
            "commit": commit,
            "source_digest": digest,
        }
        if args.trace:
            metrics, provenance = trace_run(bench, args.workload, tally)
            record.update(provenance)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, per_workload = measure(bench, args.workload, args.seconds, tally)
            metrics["setup_s"] = statistics.median(setup_times)
            per_workload["setup_s"] = summarize(setup_times, "s")
            record["metrics"] = per_workload
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        record["attempted"] = tally.attempted
        record["failed"] = tally.failed
        record["failed_frac"] = tally.failed_frac
        record["failures"] = tally.reasons
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        if bench is not None:
            bench.close()
        if work.exists():
            shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'untraced'}):")
    for name in units:
        print(human(name, metrics[name], units[name]))
    if not args.trace:
        print("  by the workload's own names:")
        for name, entry in sorted(record["metrics"].items()):
            if name in units:
                continue
            print(human(name, entry.get("median", entry.get("value")), entry["unit"]) + detail(entry))
    print(f"  failed_frac {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted})")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(tally, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
