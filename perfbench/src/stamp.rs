//! What was measured and on what: the run stamp, the host-speed probe
//! and canary, and peak memory.

use std::process::Command;
use std::time::Instant;

use crate::common::median;

/// Runs a command in the working directory and returns its trimmed
/// standard output, or `None` if it could not run or failed.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `git` confined to the working directory: it does not look for a
/// repository above it, so a tree without history that sits inside
/// another checkout is not stamped with that checkout's commit.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new("git");
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_output(cmd.args(args))
}

/// The measured tree's commit and whether its tracked files differ
/// from it; `("unknown", None)` unless the working directory is a git
/// checkout.
pub fn tree_commit() -> (String, Option<bool>) {
    match git(&["rev-parse", "HEAD"]) {
        Some(commit) => {
            let dirty =
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (commit, dirty)
        }
        None => ("unknown".to_string(), None),
    }
}

pub fn rustc_version() -> String {
    command_output(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".to_string())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Modulus of the probe's arithmetic: odd and below 2^50, like the
/// program's RNS primes.
const PROBE_P: u64 = (1 << 50) - 27;
const PROBE_N: usize = 4096;

/// The host-speed probe: a fixed forward-NTT-shaped loop (radix-2
/// butterflies with Shoup multiplication over a 4096-word row and a
/// 50-bit modulus, fixed twiddles) written here rather than taken from
/// the measured crates, so a change to the program's kernels cannot
/// move it. Only its running time matters; the twiddles are not roots
/// of unity.
pub struct Probe {
    row: Vec<u64>,
    /// `(w, floor(w * 2^64 / p))` per butterfly group.
    twiddles: Vec<(u64, u64)>,
}

impl Probe {
    pub fn new() -> Self {
        let shoup = |w: u64| (w, ((u128::from(w) << 64) / u128::from(PROBE_P)) as u64);
        Probe {
            row: (0..PROBE_N as u64)
                .map(|i| i * 2_654_435_761 % PROBE_P)
                .collect(),
            twiddles: (0..PROBE_N as u64)
                .map(|i| shoup(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % PROBE_P))
                .collect(),
        }
    }

    fn transform(&mut self) {
        let p = PROBE_P;
        let (mut m, mut t) = (1, PROBE_N);
        while m < PROBE_N {
            t /= 2;
            for (i, block) in self.row.chunks_exact_mut(2 * t).enumerate() {
                let (w, ws) = self.twiddles[m + i];
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let q = ((u128::from(*y) * u128::from(ws)) >> 64) as u64;
                    let v = y.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p));
                    let v = if v >= p { v - p } else { v };
                    let u = *x;
                    *x = if u + v >= p { u + v - p } else { u + v };
                    *y = if u >= v { u - v } else { u + p - v };
                }
            }
            m *= 2;
        }
    }

    /// Runs `k` transforms; returns the time per transform in
    /// microseconds.
    pub fn time_us(&mut self, k: usize) -> f64 {
        let t = Instant::now();
        for _ in 0..k {
            self.transform();
        }
        std::hint::black_box(&self.row);
        t.elapsed().as_secs_f64() * 1e6 / k as f64
    }
}

/// The host-speed canary: the median over nine batches of 40 probe
/// transforms of the time per transform, in microseconds.
pub fn canary_us() -> f64 {
    let mut probe = Probe::new();
    let per: Vec<f64> = (0..9).map(|_| probe.time_us(40)).collect();
    median(&per)
}
