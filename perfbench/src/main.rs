//! End-to-end and per-layer benchmark of the Trinity FHE reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ckks_boot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload with one driver thread. `--trace 0`
//! measures the end-to-end metrics on the `lanes` kernel backend, its
//! timings scaled by the host-speed probe's samples (see
//! `common::Interludes`).
//! `--trace 1` first runs the same workload untraced in a child
//! process, then runs it again with the kernel census installed and
//! spans recorded, and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object; a record with the
//! run stamp, every metric and the sample counts is written under
//! `--out-dir`. See `perfbench/README.md`.

mod census;
mod ckks_boot;
mod common;
mod he3db;
mod service;
mod stamp;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use census::{Kind, CENSUS};
use common::{iqm, median, quantile, Outcome, RunCfg};
use fhe_math::kernel::{self, LANES_BACKEND};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["ckks_boot", "he3db", "service_backlog"];
/// Requests `service_backlog` keeps in the service: three full
/// `max_batch` groups, so batching and coalescing always have mates.
const OUTSTANDING: usize = 24;
/// Rows of the `he3db` table (eight Set-III PBS per query).
const ROWS: usize = 4;
/// Warm set-ups timed inside an untraced run's window, after the cold
/// one the run uses; cheap set-ups repeat more. A traced run times
/// none: their kernels would land in the census.
fn warm_setups(workload: &str, trace: bool) -> usize {
    match (trace, workload) {
        (true, _) => 0,
        (false, "ckks_boot") => 12,
        (false, "he3db") => 4,
        (false, _) => 6,
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    trace: bool,
    out_dir: PathBuf,
    cfg: RunCfg,
    /// The raw arguments, replayed to the untraced child of a traced run.
    raw: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: trinity-perfbench --workload <{}> --seed <n> --seconds <s> \
         [--trace 0|1] [--out-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        kv.insert(name.to_string(), value.clone());
    }
    fn num<T: std::str::FromStr>(
        kv: &mut BTreeMap<String, String>,
        name: &str,
        default: Option<T>,
    ) -> Result<T, String> {
        match kv.remove(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
    let workload = kv
        .remove("workload")
        .ok_or_else(|| "--workload is required".to_string())?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = num(&mut kv, "seed", None)?;
    let seconds: f64 = num(&mut kv, "seconds", None)?;
    let trace: u8 = num(&mut kv, "trace", Some(0))?;
    let cfg = RunCfg {
        seed,
        seconds,
        outstanding: OUTSTANDING,
        warm_setups: warm_setups(&workload, trace == 1),
        rows: ROWS,
        corrupt: None,
    };
    let out_dir = PathBuf::from(kv.remove("out-dir").unwrap_or_else(|| ".bench_out".into()));
    if let Some(extra) = kv.keys().next() {
        return Err(format!("unknown option --{extra}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 || trace > 1 {
        return Err("--seconds must be > 0 and --trace 0 or 1".into());
    }
    Ok(Args {
        workload,
        trace: trace == 1,
        out_dir,
        cfg,
        raw,
    })
}

fn run_workload(name: &str, cfg: &RunCfg, tr: &Tracer) -> Outcome {
    match name {
        "ckks_boot" => ckks_boot::run(cfg, tr),
        "he3db" => he3db::run(cfg, tr),
        "service_backlog" => service::run(cfg, tr),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Metric name → (value, unit), in name order.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// The probe's time per transform, in microseconds, on the host the
/// end-to-end timings are scaled to.
const REF_PROBE_US: f64 = 50.0;

/// How much slower than the reference the host ran during the window:
/// the interquartile mean of the probe samples over `REF_PROBE_US`
/// (1 without samples).
fn host_slowdown(o: &Outcome) -> f64 {
    if o.probe_us.is_empty() {
        1.0
    } else {
        iqm(&o.probe_us) / REF_PROBE_US
    }
}

/// The end-to-end metrics, timings scaled to the reference host, and
/// the same figures as measured (`raw.*`) with the probe's
/// `host.probe_us`.
fn end_to_end(o: &Outcome, peak_rss: f64) -> (Metrics, Metrics) {
    let mut m = Metrics::new();
    let mut raw = Metrics::new();
    let slow = host_slowdown(o);
    // Each warm set-up is scaled by the probe samples around it; a run
    // without warm set-ups reports its cold one.
    let warm = o.setup_s.get(1..).unwrap_or_default();
    let (setup, setup_scaled) = if warm.is_empty() {
        (iqm(&o.setup_s), iqm(&o.setup_s) / slow)
    } else {
        let scaled: Vec<f64> = warm
            .iter()
            .zip(&o.setup_probe_us)
            .map(|(s, p)| s * REF_PROBE_US / p)
            .collect();
        (iqm(warm), iqm(&scaled))
    };
    let throughput = if o.span_s > 0.0 {
        o.done as f64 / o.span_s
    } else {
        0.0
    };
    let latency = central_latency_ms(o);
    put(&mut m, "setup_s", setup_scaled, "s");
    put(&mut m, "throughput_per_s", throughput * slow, "1/s");
    put(&mut m, "latency_ms", latency / slow, "ms");
    put(&mut raw, "raw.setup_s", setup, "s");
    put(&mut raw, "raw.throughput_per_s", throughput, "1/s");
    put(&mut raw, "raw.latency_ms", latency, "ms");
    put(&mut raw, "host.probe_us", slow * REF_PROBE_US, "us");
    let ok = o.attempted.saturating_sub(o.failed) as f64 / o.attempted.max(1) as f64;
    put(&mut m, "success_ratio", ok, "ratio");
    put(&mut m, "peak_rss_mb", peak_rss, "MiB");
    put(
        &mut m,
        "precision_bits",
        precision_bits(median(&o.ckks_err)),
        "bits",
    );
    (m, raw)
}

/// The interquartile mean of the unit latencies. On the service
/// workloads it is the mean of the three lanes' interquartile means
/// weighted by their request counts: gates are about half the stream
/// and take far longer than rotations, so the middle of all requests
/// sits on the boundary between the two.
fn central_latency_ms(o: &Outcome) -> f64 {
    let Some(l) = &o.lanes else {
        return iqm(&o.latencies_ms);
    };
    let lanes = [&l.interactive_ms, &l.timed_ms, &l.bulk_ms];
    let n: usize = lanes.iter().map(|v| v.len()).sum();
    if n == 0 {
        return 0.0;
    }
    lanes.iter().map(|v| v.len() as f64 * iqm(v)).sum::<f64>() / n as f64
}

/// `-log2` of a CKKS error, capped at 64 bits for an exact result.
fn precision_bits(err: f64) -> f64 {
    if err > 0.0 {
        (-err.log2()).min(64.0)
    } else {
        64.0
    }
}

/// Service lane figures and their sample counts (zero elsewhere).
fn lane_metrics(o: &Outcome, m: &mut Metrics) {
    let lanes = o.lanes.clone().unwrap_or_default();
    let all: &[f64] = if o.lanes.is_some() {
        &o.latencies_ms
    } else {
        &[]
    };
    put(m, "service.latency_p90_ms", quantile(all, 0.9), "ms");
    put(
        m,
        "service.interactive_p50_ms",
        median(&lanes.interactive_ms),
        "ms",
    );
    put(
        m,
        "service.interactive_p90_ms",
        quantile(&lanes.interactive_ms, 0.9),
        "ms",
    );
    put(m, "service.timed_p50_ms", median(&lanes.timed_ms), "ms");
    put(m, "service.bulk_p50_ms", median(&lanes.bulk_ms), "ms");
    for (name, samples) in [
        ("service.samples.all", all),
        ("service.samples.interactive", &lanes.interactive_ms),
        ("service.samples.timed", &lanes.timed_ms),
        ("service.samples.bulk", &lanes.bulk_ms),
    ] {
        put(m, name, samples.len() as f64, "count");
    }
}

/// Span names whose per-unit milliseconds are reported, by layer.
const SPAN_MS: [&str; 18] = [
    "ckks.mod_raise",
    "ckks.sub_sum",
    "ckks.coeff_to_slot",
    "ckks.eval_mod",
    "ckks.slot_to_coeff",
    "ckks.mul",
    "ckks.rescale",
    "ckks.rotate",
    "ckks.add",
    "ckks.encrypt",
    "ckks.decrypt",
    "tfhe.pbs",
    "tfhe.lwe_keyswitch",
    "tfhe.encrypt",
    "tfhe.decrypt",
    "convert.mod_switch",
    "convert.ring_embed",
    "service.take_result",
];

/// Layer figures workloads report only when they exercise the layer.
const WORKLOAD_LAYER: [&str; 16] = [
    "ckks.keyswitches",
    "ckks.galois_ops",
    "ckks.ct_mults",
    "ckks.rescales",
    "service.dispatch.kernel_share",
    "service.jobs_per_dispatch.interactive",
    "service.jobs_per_dispatch.timed",
    "service.jobs_per_dispatch.bulk",
    "service.coalesced_share",
    "service.starvation_events",
    "service.rejects",
    "service.deadline_miss_ratio",
    "service.queue_depth_mean",
    "service.in_flight_mean",
    "service.key_cache_mb",
    "service.evictions",
];

/// The untraced baseline a traced run compares against.
struct Baseline {
    wall_s_per_unit: f64,
    hashes: Vec<u64>,
}

fn per_layer(o: &Outcome, tr: &Tracer, base: &Baseline, canary_us: f64) -> Metrics {
    let mut m = Metrics::new();
    let per = o.units.max(1) as f64;
    let wall_s = o.wall_s.max(1e-9);
    let mut kernel_ns = 0u64;
    for (kind, t) in Kind::ALL.iter().zip(&o.kernels) {
        let k = kind.name();
        put(
            &mut m,
            &format!("fhe-math.{k}.calls"),
            t.calls as f64 / per,
            "count",
        );
        put(
            &mut m,
            &format!("fhe-math.{k}.rows"),
            t.rows as f64 / per,
            "count",
        );
        put(
            &mut m,
            &format!("fhe-math.{k}.ms"),
            t.ns as f64 / 1e6 / per,
            "ms",
        );
        kernel_ns += t.ns;
    }
    put(
        &mut m,
        "fhe-math.kernel_share",
        kernel_ns as f64 / 1e9 / wall_s,
        "ratio",
    );
    let totals = tr.totals();
    for name in SPAN_MS {
        let t = totals.get(name).copied().unwrap_or_default();
        put(&mut m, &format!("{name}.ms"), t.ns as f64 / 1e6 / per, "ms");
    }
    for name in ["tfhe.pbs", "service.submit", "service.dispatch"] {
        let t = totals.get(name).copied().unwrap_or_default();
        put(
            &mut m,
            &format!("{name}.calls"),
            t.calls as f64 / per,
            "count",
        );
    }
    for name in ["service.submit", "service.dispatch"] {
        let t = totals.get(name).copied().unwrap_or_default();
        put(&mut m, &format!("{name}.ms"), t.ns as f64 / 1e6 / per, "ms");
    }
    for name in WORKLOAD_LAYER {
        let unit = if name.ends_with("_mb") {
            "MiB"
        } else if name.ends_with("share") || name.ends_with("ratio") {
            "ratio"
        } else {
            "count"
        };
        put(
            &mut m,
            name,
            o.layer.get(name).copied().unwrap_or(0.0),
            unit,
        );
    }
    lane_metrics(o, &mut m);
    let overhead = if base.wall_s_per_unit > 0.0 {
        wall_s / per / base.wall_s_per_unit
    } else {
        0.0
    };
    put(&mut m, "trace.overhead_ratio", overhead, "ratio");
    let wall_ns = o.wall_s * 1e9;
    let unexplained = (wall_ns - tr.top_level_ns() as f64).max(0.0) / wall_ns.max(1.0);
    put(&mut m, "trace.unexplained_share", unexplained, "ratio");
    put(&mut m, "host.canary_us", canary_us, "us");
    put(
        &mut m,
        "host.probe_us",
        host_slowdown(o) * REF_PROBE_US,
        "us",
    );
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Numbers joined by `", "`, without the brackets.
fn json_list(xs: &[f64]) -> String {
    xs.iter()
        .map(|&v| json_num(v))
        .collect::<Vec<_>>()
        .join(", ")
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The service's per-lane latencies as a JSON object (`null` elsewhere).
fn lanes_json(o: &Outcome) -> String {
    let Some(l) = &o.lanes else {
        return "null".to_string();
    };
    format!(
        "{{\"interactive\": [{}], \"timed\": [{}], \"bulk\": [{}]}}",
        json_list(&l.interactive_ms),
        json_list(&l.timed_ms),
        json_list(&l.bulk_ms)
    )
}

fn record_path(a: &Args, suffix: &str) -> PathBuf {
    a.out_dir.join(format!(
        "{}-seed{}-trace{}{suffix}",
        a.workload,
        a.cfg.seed,
        u8::from(a.trace)
    ))
}

fn write_file(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Runs the untraced child of a traced run and reads its baseline.
fn untraced_baseline(a: &Args) -> Result<Baseline, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let child_dir = a.out_dir.join("untraced-baseline");
    let mut args: Vec<String> = Vec::new();
    let mut it = a.raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        if flag != "--trace" && flag != "--out-dir" {
            args.push(flag.clone());
            args.push(value);
        }
    }
    args.extend(["--trace".into(), "0".into(), "--out-dir".into()]);
    args.push(child_dir.to_string_lossy().into_owned());
    let out = Command::new(exe)
        .args(&args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the untraced baseline: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced baseline failed: {}", out.status));
    }
    let child = Args {
        trace: false,
        out_dir: child_dir,
        ..a.clone()
    };
    let text = std::fs::read_to_string(record_path(&child, ".hashes"))
        .map_err(|e| format!("cannot read the baseline hashes: {e}"))?;
    let mut lines = text.lines();
    let wall_s_per_unit = lines
        .next()
        .and_then(|l| l.strip_prefix("wall_s_per_unit "))
        .and_then(|v| v.parse().ok())
        .ok_or("malformed baseline hashes file")?;
    let hashes = lines
        .map(|l| u64::from_str_radix(l, 16).map_err(|_| "malformed baseline hash".to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Baseline {
        wall_s_per_unit,
        hashes,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let base = if a.trace {
        match untraced_baseline(&a) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let backend: &'static dyn kernel::KernelBackend =
        if a.trace { &CENSUS } else { &LANES_BACKEND };
    if let Err(current) = kernel::select(backend) {
        eprintln!("error: kernel backend already resolved to {current}");
        return ExitCode::FAILURE;
    }

    let canary_before = stamp::canary_us();
    let tr = Tracer::new(a.trace);
    let mut o = run_workload(&a.workload, &a.cfg, &tr);
    let canary_after = stamp::canary_us();
    let canary = (canary_before + canary_after) / 2.0;
    let peak_rss = stamp::peak_rss_mib();

    // A traced run must reproduce the untraced outputs bit for bit on
    // the units both completed.
    let mut identical = true;
    if let Some(b) = &base {
        let common = o.hashes.len().min(b.hashes.len());
        let differ = (0..common).filter(|&i| o.hashes[i] != b.hashes[i]).count();
        if differ > 0 {
            eprintln!("error: {differ} of {common} outputs differ from the untraced run");
            o.failed += differ as u64;
            identical = false;
        }
    }
    let (e2e, raw) = end_to_end(&o, peak_rss);
    let metrics = match &base {
        Some(b) => per_layer(&o, &tr, b, canary),
        None => e2e.clone(),
    };
    // The run record keeps the end-to-end, unscaled and lane figures of
    // every run.
    let mut all = e2e;
    all.extend(raw);
    lane_metrics(&o, &mut all);

    let (commit, dirty) = stamp::tree_commit();
    let stamp_json = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"backend\": {}, \
         \"commit\": {}, \"dirty\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {}, \
         \"canary_us_before\": {}, \"canary_us_after\": {}, \
         \"outstanding\": {}, \"rows\": {}, \"warm_setups\": {}}}",
        json_str(&a.workload),
        a.cfg.seed,
        json_num(a.cfg.seconds),
        u8::from(a.trace),
        json_str(kernel::active().name()),
        json_str(&commit),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        json_str(&stamp::rustc_version()),
        json_str(&stamp::cpu_model()),
        stamp::nproc(),
        json_num(canary_before),
        json_num(canary_after),
        a.cfg.outstanding,
        a.cfg.rows,
        a.cfg.warm_setups,
    );
    let correct = o.failed == 0 && identical;
    let record = format!(
        "{{\"stamp\": {stamp_json}, \"attempted\": {}, \"failed\": {}, \"completed_in_window\": {}, \
         \"latency_samples\": {}, \"failed_ratio\": {}, \"end_to_end\": {}, \"reported\": {}, \
         \"setup_s_each\": [{}], \"latencies_ms\": [{}], \"lanes_ms\": {}}}\n",
        o.attempted,
        o.failed,
        o.done,
        o.latencies_ms.len(),
        json_num(o.failed as f64 / o.attempted.max(1) as f64),
        metrics_json(&all),
        metrics_json(&metrics),
        json_list(&o.setup_s),
        json_list(&o.latencies_ms),
        lanes_json(&o),
    );
    write_file(&record_path(&a, ".json"), &record);
    let mut hashes = format!("wall_s_per_unit {}\n", o.wall_s / o.units.max(1) as f64);
    for h in &o.hashes {
        let _ = writeln!(hashes, "{h:016x}");
    }
    write_file(&record_path(&a, ".hashes"), &hashes);
    if a.trace {
        write_file(&record_path(&a, "-spans.jsonl"), &tr.to_jsonl());
    }
    if let Some(audit) = &o.audit_jsonl {
        write_file(&record_path(&a, "-audit.jsonl"), audit);
    }

    println!("# stamp {stamp_json}");
    println!(
        "# {}: attempted {}, failed {}, completed in window {}, latency samples {}",
        a.workload,
        o.attempted,
        o.failed,
        o.done,
        o.latencies_ms.len()
    );
    for (name, (v, unit)) in all.iter().filter(|(k, _)| !metrics.contains_key(*k)) {
        println!("# {name} = {v} {unit}");
    }
    for (name, (v, unit)) in &metrics {
        println!("# {name} = {v} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
