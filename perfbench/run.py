#!/usr/bin/env python3
"""The wlansim benchmark: campaign and query workloads against the shipped
binaries, with a traced mode that splits the time by module.

    python3 perfbench/run.py --workload campaign_city --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the library, the
shipped binaries and perfbench_probe into .bench_build/. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
everything else goes to stderr. See perfbench/README.md for the workloads
and every metric.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
RUN_BIN = BUILD / "wlansim" / "src" / "wlansim_run"
RESULTS_BIN = BUILD / "wlansim" / "tools" / "wlansim_results"
QUERYD_BIN = BUILD / "wlansim" / "tools" / "wlansim_queryd"
PROBE_BIN = BUILD / "perfbench_probe"
PROBE_MAP = BUILD / "perfbench_probe.map"
CALIB_BIN = BUILD / "perfbench_calib"

DEFAULT_SEED = 1
MIN_RUNS = 3
# setup_s: campaign CLI start-ups timed before the first campaign run and
# again before every later one, so that they sample the whole run; daemon
# start-ups on query_mix.
SETUP_SPAWNS_FIRST = 15
SETUP_SPAWNS_PER_RUN = 5
DAEMON_SETUPS = 7
# The host-speed reference: as many perfbench_calib runs as campaign CLI
# start-ups, and on query_mix this many before and after the clients.
QUERY_CALIB_SPAWNS = 40
# Wall seconds of one perfbench_calib run on the host the benchmark was
# tuned on (a 4-vCPU KVM guest of a 2.0 GHz Xeon). Every workload reports
# its times at that host speed: each time is scaled by this over the run's
# median perfbench_calib time (README, "Noise").
CALIB_REF_S = 0.015

# Campaign workloads: one unit of work is one wlansim_run invocation.
CAMPAIGNS = {
    "campaign_saturation": {
        "scenario": "saturation",
        "params": ["n_stas=20", "cipher=ccmp"],
        "reps": 1,
        "jobs": 1,
    },
    "campaign_city": {
        "scenario": "city_grid",
        "params": ["n_bss=64", "spatial=true", "sim_time_s=0.5"],
        "reps": 1,
        "jobs": 1,
    },
    "campaign_pipeline": {
        "scenario": "pipeline_probe",
        "params": ["n_metrics=32", "counters=8", "samples=4"],
        "reps": 25000,
        # Not 2: both workers then queue on ResultPipeline's delivery lock,
        # and the wall time follows the VM's thread wake-up latency (a
        # 34 % spread over ten runs on a shared 4-vCPU guest).
        "jobs": 1,
    },
}

# query_mix inputs: a pipeline_probe sweep in two shards plus a campaign.
QUERY_CACHE_MB = 3
QUERY_SWEEP = ["--scenario=pipeline_probe", "--sweep", "n_metrics=16,32", "--sweep",
               "samples=1:16:1", "--param", "hist=true", "--reps=1000", "--jobs=2"]
QUERY_SWEEP_SHARDS = 2
QUERY_CAMPAIGN = {
    "scenario": "pipeline_probe",
    "params": ["n_metrics=8", "counters=8", "hist=true"],
    "reps": 20000,
    "jobs": 2,
}
# Point queries per round of the mix; each of the 5 scans runs once. No
# record of real query traffic exists, so this count is an assumption: it
# makes point and scan queries each take about half of the clients' time
# against wlansim_queryd (query.point_time_frac and query.scan_time_frac
# report the measured split), so that both the server/protocol path and the
# decode/fold path move wall_s and work_per_s.
ROUND_POINTS = 1200

WORKLOADS = list(CAMPAIGNS) + ["query_mix"]
HOT_FILES = ["crypto.crc32", "crypto.aes", "crypto.ccm", "phy.channel", "phy.interference",
             "core.event_queue", "mac.frames", "results.binary_writer",
             "results.binary_reader", "stats.p2_quantile", "runner.result_consumer",
             "runner.result_sink", "other.libc", "other.libstdcxx"]
SIM_COUNTS = {"mac.tx_attempts": "tx_attempts", "mac.rx_ok": "rx_ok", "mac.retries": "retries",
              "phy.channel_sends": "channel_sends", "phy.channel_offers": "channel_offers"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ helpers

def build():
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4"], check=True, stdout=sys.stderr,
                   cwd=ROOT)


@dataclasses.dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


def spawn(argv, stdout_path=None):
    """Runs argv to completion; wall time, and CPU and peak RSS from wait4."""
    out = str(stdout_path) if stdout_path else os.devnull
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(str(argv[0]), [str(a) for a in argv], os.environ,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    text = Path(stdout_path).read_text() if stdout_path else ""
    return Proc(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, text)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def lower_quartile(values):
    """The timing statistic of the end-to-end metrics. Other tenants of a
    shared host only ever add time to a unit of work, so the lower quartile
    of many short units follows the program more closely than the median."""
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def column_sums(csv_path, columns):
    sums = dict.fromkeys(columns, 0.0)
    with open(csv_path, newline="") as f:
        for row in csv.DictReader(f):
            for c in columns:
                if c in row:
                    sums[c] += float(row[c])
    return sums


# ---------------------------------------------------------------- campaigns

def campaign_outputs(outdir, tag):
    return {kind: outdir / f"{tag}.{kind}" for kind in ("csv", "reps_csv", "wlsr")}


def run_campaign(spec, seed, files):
    argv = [RUN_BIN, f"--scenario={spec['scenario']}", f"--reps={spec['reps']}",
            f"--jobs={spec['jobs']}", f"--seed={seed}", "--quiet", "--verbose",
            f"--csv={files['csv']}", f"--reps-csv={files['reps_csv']}",
            f"--binary-out={files['wlsr']}"]
    for p in spec["params"]:
        argv += ["--param", p]
    return spawn(argv, files["csv"].with_suffix(".stdout"))


def run_probe_campaign(spec, seed, files, trace_path, sample):
    argv = [PROBE_BIN, "campaign", f"--scenario={spec['scenario']}", f"--reps={spec['reps']}",
            f"--jobs={spec['jobs']}", f"--seed={seed}", f"--csv={files['csv']}",
            f"--reps-csv={files['reps_csv']}", f"--binary-out={files['wlsr']}",
            f"--trace={trace_path}"]
    argv += [f"--param={p}" for p in spec["params"]]
    if sample:
        argv.append("--sample")
    return spawn(argv)


def digests(files):
    return {kind: sha256(path) for kind, path in files.items()}


def hot_path_counters(stdout):
    """The --verbose footer of wlansim_run."""
    for line in stdout.splitlines():
        if line.startswith("hot-path:"):
            fields = dict(f.split("=") for f in line.split()[1:])
            return {"phy.bytes_copied": float(fields["bytes_copied"]),
                    "core.event_heap_fallbacks": float(fields["event_heap_fallbacks"])}
    raise BenchError("wlansim_run --verbose printed no hot-path counters")


def exact_columns(csv_path):
    """metric -> (count, mean, stddev, ci95_half, min, max) of an aggregate CSV."""
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    return {r[0]: tuple(r[1:7]) for r in rows[1:]}


def check_pipeline_outputs(files, workdir):
    """WLSR export equals the streamed per-replication CSV; the exact
    aggregate columns of the streamed CSV equal wlansim_results aggregate."""
    problems = []
    exported = workdir / "export.csv"
    if spawn([RESULTS_BIN, "export", files["wlsr"], f"--out={exported}"]).rc != 0:
        problems.append("wlansim_results export failed")
    elif sha256(exported) != sha256(files["reps_csv"]):
        problems.append("WLSR export differs from --reps-csv")
    aggregated = workdir / "aggregate.csv"
    if spawn([RESULTS_BIN, "aggregate", files["wlsr"], f"--out={aggregated}"]).rc != 0:
        problems.append("wlansim_results aggregate failed")
    elif exact_columns(aggregated) != exact_columns(files["csv"]):
        problems.append("streamed --csv exact columns differ from wlansim_results aggregate")
    return problems


def check_digests(workload, seed, observed):
    if seed != DEFAULT_SEED:
        return []
    committed = json.loads((BENCH / "digests.json").read_text()).get(workload)
    if committed != observed:
        return [f"seed {seed} outputs differ from perfbench/digests.json: "
                f"{json.dumps(observed)}"]
    return []


def work_units(spec, reps_csv):
    if spec["scenario"] == "pipeline_probe":
        return float(spec["reps"])
    return column_sums(reps_csv, ["tx_attempts"])["tx_attempts"]


def host_reference(spawns):
    """Wall times of `spawns` perfbench_calib runs."""
    walls = []
    for _ in range(spawns):
        proc = spawn([CALIB_BIN])
        if proc.rc != 0:
            raise BenchError("perfbench_calib failed")
        walls.append(proc.wall)
    return walls


def host_speed(calib_walls):
    """The factor that scales this run's times to the reference host speed."""
    return CALIB_REF_S / median(calib_walls)


def setup_campaign(spec, spawns, setup_walls, calib_walls):
    """Start-up cost of the campaign CLI: process start, dynamic loading,
    scenario registry and argument parsing, timed as wlansim_run --describe;
    then as many runs of the host-speed reference."""
    for _ in range(spawns):
        proc = spawn([RUN_BIN, f"--describe={spec['scenario']}"])
        if proc.rc != 0:
            raise BenchError("wlansim_run --describe failed")
        setup_walls.append(proc.wall)
    calib_walls += host_reference(spawns)


def campaign_untraced(workload, seed, seconds, workdir):
    spec = CAMPAIGNS[workload]
    setup_walls, calib_walls = [], []
    setup_campaign(spec, SETUP_SPAWNS_FIRST, setup_walls, calib_walls)
    files = campaign_outputs(workdir, "run")
    runs, failed, problems = [], 0, []
    reference = None
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        if runs:
            setup_campaign(spec, SETUP_SPAWNS_PER_RUN, setup_walls, calib_walls)
        proc = run_campaign(spec, seed, files)
        runs.append(proc)
        if proc.rc != 0:
            failed += 1
            problems.append(f"wlansim_run exited {proc.rc}")
            continue
        observed = digests(files)
        if reference is None:
            reference = observed
            problems += check_digests(workload, seed, observed)
            if spec["scenario"] == "pipeline_probe":
                problems += check_pipeline_outputs(files, workdir)
            work = work_units(spec, files["reps_csv"])
        elif observed != reference:
            failed += 1
            problems.append("outputs differ between repeats of one campaign")
    if reference is None:
        raise BenchError("no campaign run succeeded")
    if problems and failed == 0:
        failed = len(runs)  # every repeat produced the same wrong bytes
    ok = [p for p in runs if p.rc == 0]
    host = host_speed(calib_walls)
    wall = lower_quartile([p.wall for p in ok])
    log(f"{len(ok)} campaign runs; unscaled wall_s {wall:.6f}; host speed {host:.6f}")
    metrics = {
        "wall_s": (wall * host, "s"),
        "work_per_s": (work / (wall * host), "1/s"),
        "cpu_s": (lower_quartile([p.cpu for p in ok]) * host, "s"),
        "peak_rss_mb": (median([p.rss_mb for p in ok]), "MB"),
        "setup_s": (median(setup_walls) * host, "s"),
    }
    return metrics, len(runs), failed, problems


def span_metrics(trace):
    """runner.* and results.* from one probe campaign trace."""
    spans = trace["spans"]
    campaign = [s for s in spans if s[0] == "runner.campaign"]
    if len(campaign) != 1:
        raise BenchError("trace holds no single runner.campaign span")
    root = campaign[0]
    children = [(s[1], s[2]) for s in spans if s[4] == root[3]]

    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name) * 1e-9

    return {
        "runner.scenario_s": total("runner.scenario"),
        "runner.self_s": analysis.self_time((root[1], root[2]), children) * 1e-9,
        "results.wlsr_write_s": total("results.wlsr_write"),
        "results.csv_write_s": total("results.csv_write"),
    }


def campaign_traced(workload, seed, seconds, workdir, values):
    """Alternates untraced wlansim_run and traced probe runs of the same
    campaign; the traced outputs must equal the untraced ones byte for byte."""
    spec = CAMPAIGNS[workload]
    plain_files = campaign_outputs(workdir, "plain")
    traced_files = campaign_outputs(workdir, "traced")
    plain_walls, traced_walls, traces, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (len(traces) < 2 and not problems):
        plain = run_campaign(spec, seed, plain_files)
        trace_path = workdir / f"trace{len(traces)}.json"
        traced = run_probe_campaign(spec, seed, traced_files, trace_path, sample=True)
        attempted += 2
        if plain.rc != 0 or traced.rc != 0:
            failed += 2
            problems.append("a campaign run failed")
            continue
        trace = json.loads(trace_path.read_text())
        if digests(plain_files) != digests(traced_files):
            failed += 1
            problems.append("traced campaign outputs differ from the untraced run's")
        plain_counts = hot_path_counters(plain.stdout)
        values.update(plain_counts)
        if any(trace["values"][k] != v for k, v in plain_counts.items()):
            failed += 1
            problems.append("traced hot-path counters differ from the untraced run's")
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        traces.append(trace)
    if not traces:
        raise BenchError("no traced campaign run succeeded")

    per_trace = [span_metrics(t) for t in traces]
    for key in per_trace[0]:
        values[key] = median([m[key] for m in per_trace])
    values["results.wlsr_bytes"] = traced_files["wlsr"].stat().st_size
    values["results.csv_bytes"] = traced_files["reps_csv"].stat().st_size
    sums = column_sums(traced_files["reps_csv"], list(SIM_COUNTS.values()))
    for name, column in SIM_COUNTS.items():
        values[name] = sums[column]
    values["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    add_self_fractions(values, traces)

    # The query layer over this campaign's own result file.
    mix = workdir / "result.mix"
    entries = result_query_mix(spec["scenario"], random.Random(seed))
    write_mix(mix, entries)
    q_attempted, q_failed, q_problems, _, _ = query_layers(
        [traced_files["wlsr"]], mix, entries, workdir, 2.0, values, sample=False)
    return attempted + q_attempted, failed + q_failed, problems + q_problems


def add_self_fractions(values, traces):
    pc_map = analysis.PcMap(PROBE_MAP, ROOT / "src")
    modules, files = analysis.self_fractions(
        [(t["samples"], t["texts"]["maps"]) for t in traces], pc_map)
    for module in analysis.MODULES + [analysis.OTHER]:
        values[f"{module}.self_frac"] = modules.get(module, 0.0)
    for file in HOT_FILES:
        values[f"{file}.self_frac"] = files.get(file, 0.0)
    values["trace.samples"] = sum(len(t["samples"]) for t in traces)


# -------------------------------------------------------------------- query

def result_query_mix(scenario, rng):
    """A short mix over one campaign's own WLSR file."""
    metrics = {"saturation": ["tx_attempts", "rx_ok", "retries", "goodput_mbps"],
               "city_grid": ["tx_attempts", "rx_ok", "channel_offers", "goodput_mbps"],
               "pipeline_probe": ["value_0", "value_1", "count_0", "seed_mod"]}[scenario]
    entries = []
    for _ in range(18):
        a, b = rng.sample(metrics, 2)
        entries.append(("P", f"SELECT {a},{b} FROM {scenario}:campaign"))
    entries += [("S", f"AGGREGATE {scenario}:campaign"),
                ("S", f"SELECT * FROM {scenario}:campaign")]
    rng.shuffle(entries)
    return entries


def query_mix_entries(rng):
    """One round: ROUND_POINTS point queries and each scan once, shuffled.
    80 % of the point queries go to 4 hot grid points, whose columns fit in
    the cache, so that hits occur next to the scans' misses and evictions."""
    points = [(n, s) for n in (16, 32) for s in range(1, 17)]
    hot = rng.sample(points, 4)
    entries = []
    for _ in range(ROUND_POINTS):
        n, s = rng.choice(hot) if rng.random() < 0.8 else rng.choice(points)
        where = f"WHERE n_metrics={n} AND samples={s}"
        if rng.random() < 0.75:
            a, b = sorted(rng.sample(range(8), 2))
            entries.append(("P", f"SELECT value_{a},value_{b} FROM pipeline_probe:sweep {where}"))
        else:
            entries.append(("P", f"HIST pipeline_probe:sweep latency_hist {where}"))
    scans = ["AGGREGATE pipeline_probe:campaign", "AGGREGATE pipeline_probe:sweep",
             "SELECT * FROM pipeline_probe:sweep GROUP BY n_metrics",
             "SELECT value_0,value_1,value_2,value_3 FROM pipeline_probe:sweep GROUP BY samples",
             "SELECT * FROM pipeline_probe:campaign"]
    entries += [("S", scan) for scan in scans]
    rng.shuffle(entries)
    return entries


def write_mix(path, entries):
    path.write_text("".join(f"{kind}\t{query}\n" for kind, query in entries))


def generate_query_inputs(seed, workdir, traced):
    """The sweep shards come from wlansim_run; the campaign collection from
    wlansim_run, or from the traced probe (checked byte-equal to wlansim_run)."""
    data = fresh_dir(workdir / "data")
    for shard in range(QUERY_SWEEP_SHARDS):
        proc = spawn([RUN_BIN, *QUERY_SWEEP, f"--seed={seed}", "--quiet",
                      f"--shard={shard}/{QUERY_SWEEP_SHARDS}",
                      f"--binary-out={data / f'sweep{shard}.wlsr'}"])
        if proc.rc != 0:
            raise BenchError("generating the sweep collection failed")
    files = campaign_outputs(data, "campaign")
    if run_campaign(QUERY_CAMPAIGN, seed, files).rc != 0:
        raise BenchError("generating the campaign collection failed")
    problems = []
    if traced:
        traced_files = campaign_outputs(workdir, "traced")
        trace_path = workdir / "campaign_trace.json"
        if run_probe_campaign(QUERY_CAMPAIGN, seed, traced_files, trace_path,
                              sample=False).rc != 0:
            raise BenchError("traced campaign collection failed")
        if digests(files) != digests(traced_files):
            problems.append("traced campaign collection differs from wlansim_run's")
        return sorted(data.glob("*.wlsr")), problems, json.loads(trace_path.read_text())
    return sorted(data.glob("*.wlsr")), problems, None


def ask(sock, query):
    payload = query.encode()
    sock.sendall(struct.pack("<I", len(payload)) + payload)
    header = recv_exact(sock, 4)
    body = recv_exact(sock, struct.unpack("<I", header)[0])
    return body[0], body[1:].decode()


def recv_exact(sock, n):
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("server closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def start_daemon(files, sock_path):
    """Spawns wlansim_queryd; returns (process, seconds until LIST answered)."""
    sock_path.unlink(missing_ok=True)
    argv = [QUERYD_BIN, f"--socket={os.path.relpath(sock_path, ROOT)}", "--threads=2",
            f"--cache-mb={QUERY_CACHE_MB}"] + [f"--register={f}" for f in files]
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        while True:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(os.path.relpath(sock_path, ROOT))
                    status, _ = ask(s, "LIST")
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if proc.poll() is not None or time.perf_counter() - start > 60:
                    raise BenchError("wlansim_queryd did not come up")
                time.sleep(0.001)
        setup_s = time.perf_counter() - start
        if status != 0:
            raise BenchError("LIST failed")
    except BaseException:
        stop_daemon(proc)
        raise
    return proc, setup_s


def stop_daemon(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def vm_hwm_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def parse_stats(text):
    """Exact fields of a STATS report: served count, extent-cache counters
    and per-verb count/mean. The quantile fields are histogram estimates
    capped at the 100 ms bin range, so they are not read."""
    served = None
    cache = {}
    verbs = {}
    for line in text.splitlines():
        if line.startswith("served="):
            served = int(line.split("=")[1])
        elif line.startswith("cache "):
            cache = {k: int(v) for k, v in (f.split("=") for f in line.split()[1:])}
        elif line.startswith("latency "):
            verb, fields = line[len("latency "):].split(": ", 1)
            kv = dict(f.split("=") for f in fields.split())
            verbs[verb] = (int(kv["count"]), float(kv["mean"]))
    return served, cache, verbs


def compare_bodies(served_dir, expected_dir, entries):
    """Occurrences in the mix whose served body differs from the in-process
    answer, keyed by distinct query index in first-appearance order."""
    distinct = list(dict.fromkeys(q for _, q in entries))
    wrong = set()
    for i in range(len(distinct)):
        served = served_dir / f"{i}.body"
        if not served.exists() or served.read_bytes() != (expected_dir / f"{i}.body").read_bytes():
            wrong.add(distinct[i])
    return sum(1 for _, q in entries if q in wrong)


def expected_answers(files, mix, workdir):
    out = fresh_dir(workdir / "expected")
    argv = [PROBE_BIN, "answers", f"--mix={mix}", f"--out={out}"]
    argv += [f"--register={f}" for f in files]
    if spawn(argv).rc != 0:
        raise BenchError("in-process answers failed")
    return out


def verb_counts(entries, rounds):
    counts = {}
    for _, q in entries:
        verb = q.split()[0]
        counts[verb] = counts.get(verb, 0) + rounds
    return counts


@dataclasses.dataclass
class DaemonRun:
    trace: dict          # the client's lists and values
    setup_times: list    # spawn -> first LIST answered, per daemon start
    rss_mb: float        # daemon VmHWM
    cache: dict          # extent-cache counters from STATS
    service_ms: float    # exact mean service time of the mix's queries, from STATS
    attempted: int
    failed: int
    problems: list


def query_untraced_phase(files, mix, entries, seconds, workdir, setups, expected):
    """Daemon set-up timed `setups` times, then two closed-loop clients for
    `seconds` against the last wlansim_queryd, then its STATS."""
    sock_path = workdir / "q.sock"
    setup_times = []
    for _ in range(setups - 1):
        proc, t = start_daemon(files, sock_path)
        stop_daemon(proc)
        setup_times.append(t)
    proc, t = start_daemon(files, sock_path)
    setup_times.append(t)
    problems = []
    try:
        served_dir = fresh_dir(workdir / "served")
        out = workdir / "client.json"
        client = spawn([PROBE_BIN, "client", f"--socket={os.path.relpath(sock_path, ROOT)}",
                        f"--mix={mix}", f"--seconds={seconds}", f"--pid={proc.pid}",
                        f"--bodies={served_dir}", f"--out={out}"])
        if client.rc != 0:
            raise BenchError("query client failed")
        trace = json.loads(out.read_text())
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(os.path.relpath(sock_path, ROOT))
            status, stats = ask(s, "STATS")
        rss = vm_hwm_mb(proc.pid)
    finally:
        stop_daemon(proc)
    rounds = len(trace["lists"]["round_wall_s"])
    attempted = len(trace["lists"]["latency_ms"])
    failed = int(trace["values"]["failures"] + trace["values"]["mismatches"])
    wrong = compare_bodies(served_dir, expected, entries) * rounds
    if wrong:
        problems.append(f"{wrong} served bodies differ from in-process QueryEngine::Execute")
    failed += wrong
    served, cache, verbs = parse_stats(stats) if status == 0 else (None, {}, {})
    want = verb_counts(entries, rounds)
    want["LIST"] = 1
    counted = {v: c for v, (c, _) in verbs.items()}
    if served != attempted + 1 or counted != want or not cache:
        problems.append("STATS counts disagree with the queries sent")
        failed += max(1, sum(abs(want.get(v, 0) - counted.get(v, 0)) for v in {*want, *counted}))
    mix_verbs = [(c, m) for v, (c, m) in verbs.items() if v != "LIST"]
    service_ms = sum(c * m for c, m in mix_verbs) / max(1, sum(c for c, _ in mix_verbs)) * 1e-3
    return DaemonRun(trace, setup_times, rss, cache, service_ms, attempted, failed, problems)


def client_metrics(run, values):
    """query.client_*, query.wait_ms and the cache counters, all measured
    against wlansim_queryd."""
    latency, is_scan = run.trace["lists"]["latency_ms"], run.trace["lists"]["is_scan"]
    point = [v for v, s in zip(latency, is_scan) if not s]
    scan = [v for v, s in zip(latency, is_scan) if s]
    values["query.client_point_p50_ms"] = median(point)
    values["query.client_scan_p50_ms"] = median(scan)
    values["query.client_p99_ms"] = percentile(latency, 0.99)
    values["query.client_samples"] = len(latency)
    values["query.point_time_frac"] = sum(point) / sum(latency)
    values["query.scan_time_frac"] = sum(scan) / sum(latency)
    values["query.wait_ms"] = statistics.fmean(latency) - run.service_ms
    cache = run.cache
    values["query.cache.hit_ratio"] = cache.get("hits", 0) / max(1, cache.get("lookups", 0))
    values["query.cache.misses"] = cache.get("misses", 0)
    values["query.cache.evictions"] = cache.get("evictions", 0)


def query_traced_phase(files, mix, entries, workdir, seconds, values, sample, expected):
    """perfbench_probe query: Catalog::RegisterFile spans, an in-process
    server under load (sampled when `sample`), and in-process Execute times.
    Needs query.client_point_p50_ms in `values` already."""
    out = workdir / "query_trace.json"
    served_dir = fresh_dir(workdir / "traced_served")
    argv = [PROBE_BIN, "query", f"--mix={mix}",
            f"--socket={os.path.relpath(workdir / 'probe.sock', ROOT)}",
            f"--cache-mb={QUERY_CACHE_MB}", f"--seconds={seconds}", f"--trace={out}",
            f"--bodies={served_dir}"] + [f"--register={f}" for f in files]
    if sample:
        argv.append("--sample")
    if spawn(argv).rc != 0:
        raise BenchError("traced query run failed")
    trace = json.loads(out.read_text())

    def span_ms(name):
        return [(s[2] - s[1]) * 1e-6 for s in trace["spans"] if s[0] == name]

    values["query.register_s"] = sum(span_ms("query.register")) * 1e-3
    values["query.execute_point_ms"] = median(span_ms("query.execute_point"))
    values["query.execute_scan_ms"] = median(span_ms("query.execute_scan"))
    values["query.server_overhead_ms"] = (values["query.client_point_p50_ms"] -
                                          values["query.execute_point_ms"])
    rounds = len(trace["lists"]["round_wall_s"])
    wrong = compare_bodies(served_dir, expected, entries) * rounds
    failed = int(trace["values"]["failures"] + trace["values"]["mismatches"]) + wrong
    problems = [f"{wrong} traced served bodies differ from QueryEngine::Execute"] if wrong else []
    return len(trace["lists"]["latency_ms"]), failed, problems, trace


def query_layers(files, mix, entries, workdir, seconds, values, sample):
    """The query.* per-layer values: half of `seconds` against wlansim_queryd,
    half against the probe's in-process server. Returns (attempted, failed,
    problems, daemon run, probe trace)."""
    expected = expected_answers(files, mix, workdir)
    plain = query_untraced_phase(files, mix, entries, seconds / 2, workdir, 1, expected)
    client_metrics(plain, values)
    attempted, failed, problems, trace = query_traced_phase(
        files, mix, entries, workdir, seconds / 2, values, sample, expected)
    return (plain.attempted + attempted, plain.failed + failed, plain.problems + problems,
            plain, trace)


def query_setup(seed, workdir, traced):
    files, problems, campaign_trace = generate_query_inputs(seed, workdir, traced)
    entries = query_mix_entries(random.Random(seed))
    mix = workdir / "query.mix"
    write_mix(mix, entries)
    return files, entries, mix, problems, campaign_trace


def query_untraced(seed, seconds, workdir):
    files, entries, mix, problems, _ = query_setup(seed, workdir, traced=False)
    expected = expected_answers(files, mix, workdir)
    calib_walls = host_reference(QUERY_CALIB_SPAWNS)
    run = query_untraced_phase(files, mix, entries, seconds, workdir, DAEMON_SETUPS, expected)
    calib_walls += host_reference(QUERY_CALIB_SPAWNS)
    host = host_speed(calib_walls)
    wall = lower_quartile(run.trace["lists"]["round_wall_s"])
    log(f"{len(run.trace['lists']['round_wall_s'])} rounds; unscaled wall_s {wall:.6f}; "
        f"host speed {host:.6f}")
    metrics = {
        "wall_s": (wall * host, "s"),
        "work_per_s": (len(entries) / (wall * host), "1/s"),
        # /proc CPU times tick in 10 ms, too coarse for a per-round median.
        "cpu_s": (statistics.fmean(run.trace["lists"]["round_cpu_s"]) * host, "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "setup_s": (median(run.setup_times) * host, "s"),
    }
    return metrics, run.attempted, run.failed, problems + run.problems


def query_traced(seed, seconds, workdir, values):
    files, entries, mix, problems, campaign_trace = query_setup(seed, workdir, traced=True)
    values.update(span_metrics(campaign_trace))
    traced_files = campaign_outputs(workdir, "traced")
    values["results.wlsr_bytes"] = traced_files["wlsr"].stat().st_size
    values["results.csv_bytes"] = traced_files["reps_csv"].stat().st_size
    values.update({k: campaign_trace["values"][k] for k in
                   ("core.event_heap_fallbacks", "phy.bytes_copied")})
    for name in SIM_COUNTS:
        values[name] = 0.0
    attempted, failed, more, plain, trace = query_layers(
        files, mix, entries, workdir, seconds, values, sample=True)
    values["trace.overhead_frac"] = (median(trace["lists"]["round_wall_s"]) /
                                     median(plain.trace["lists"]["round_wall_s"]) - 1.0)
    add_self_fractions(values, [trace])
    return attempted, failed + len(problems), problems + more


# --------------------------------------------------------------------- main

def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    os.chdir(ROOT)
    build()
    workdir = fresh_dir(BUILD / "run" / args.workload)
    if args.trace == 0:
        if args.workload in CAMPAIGNS:
            metrics, attempted, failed, problems = campaign_untraced(
                args.workload, args.seed, args.seconds, workdir)
        else:
            metrics, attempted, failed, problems = query_untraced(
                args.seed, args.seconds, workdir)
    else:
        values = {}
        if args.workload in CAMPAIGNS:
            attempted, failed, problems = campaign_traced(
                args.workload, args.seed, args.seconds, workdir, values)
        else:
            attempted, failed, problems = query_traced(args.seed, args.seconds, workdir, values)
        metrics = {}
        for name, unit in per_layer_names():
            if name not in values:
                raise BenchError(f"per-layer metric {name} was not measured")
            metrics[name] = (values[name], unit)
    for problem in problems:
        log("CHECK FAILED:", problem)
    failed = min(failed, attempted)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log("benchmark error:", error)
        sys.exit(1)
