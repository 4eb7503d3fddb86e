//! Shared run configuration, results, statistics and output hashing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::census::Tally;
use crate::stamp::Probe;

/// What one benchmark process was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Outstanding requests of the `service_backlog` closed loop.
    pub outstanding: usize,
    /// Warm set-ups timed inside the measurement window, after the
    /// cold one the run uses; `setup_s` is their interquartile mean.
    /// Zero in a traced run, whose census must see the units only.
    pub warm_setups: usize,
    /// Rows of the `he3db` table.
    pub rows: usize,
    /// Self-test hook: corrupt the output of this unit before it is
    /// checked. Never set by the command line.
    pub corrupt: Option<usize>,
}

/// Per-request latency split by service lane.
#[derive(Debug, Clone, Default)]
pub struct Lanes {
    pub interactive_ms: Vec<f64>,
    pub timed_ms: Vec<f64>,
    pub bulk_ms: Vec<f64>,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted (submitted requests, started cycles or queries).
    pub attempted: u64,
    /// Units rejected, errored, or whose output failed its check.
    pub failed: u64,
    /// Units completed inside the measurement window (throughput).
    pub done: u64,
    /// Units whose work the per-layer totals cover: every completed
    /// unit, inside the window or after it.
    pub units: u64,
    /// Seconds from window start to the last counted completion.
    pub span_s: f64,
    /// Seconds the driver spent in the window.
    pub wall_s: f64,
    /// Latency of every counted unit, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Lane split of `latencies_ms` (service workloads only).
    pub lanes: Option<Lanes>,
    /// One hash per unit, in unit order, of the unit's outputs.
    pub hashes: Vec<u64>,
    /// Absolute errors of the checked CKKS outputs: a bootstrap cycle's
    /// or a rotation's largest slot error, each decoded `he3db` count's
    /// error.
    pub ckks_err: Vec<f64>,
    /// Wall seconds of each set-up: the cold one, then the warm ones.
    pub setup_s: Vec<f64>,
    /// Probe time around each warm set-up (`Interludes`).
    pub setup_probe_us: Vec<f64>,
    /// Host-speed probe samples over the window (`Interludes`).
    pub probe_us: Vec<f64>,
    /// Kernel census over the measured units, set-up excluded (all
    /// zero when the census is not installed).
    pub kernels: [Tally; 9],
    /// Workload-specific per-layer figures, already normalised.
    pub layer: BTreeMap<&'static str, f64>,
    /// Service audit log (service workloads only).
    pub audit_jsonl: Option<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs `setup` once and returns its result and wall time in seconds.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let s = setup();
    (s, secs(t))
}

/// Wall time of a measurement window that leaves out the warm set-ups
/// timed inside it.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    paused: Duration,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    /// Seconds since the start, set-ups left out.
    pub fn secs(&self) -> f64 {
        self.start
            .elapsed()
            .saturating_sub(self.paused)
            .as_secs_f64()
    }
}

/// Window seconds between two host-speed probes.
const PROBE_EVERY_S: f64 = 0.25;
/// Probe transforms per sample (about 1 ms).
const PROBE_BATCH: usize = 10;

/// Work done between two units of the measurement window and left out
/// of its `Clock`: warm set-ups and host-speed probes.
///
/// The host's speed drifts by half or more over seconds to minutes, so
/// both sample the whole window as the measured units do. The `i`-th
/// of `count` warm set-ups runs once `(i + 1/2) / count` of the window
/// has passed; each is built, timed and dropped, with a probe sample
/// just before and just after it. A probe also runs at most every
/// `PROBE_EVERY_S` of window time. The end-to-end timings are scaled by
/// these samples (see `main::end_to_end`).
pub struct Interludes<'a> {
    build: Box<dyn FnMut() -> f64 + 'a>,
    count: usize,
    seconds: f64,
    probe: Probe,
    next_probe_s: f64,
    /// Wall seconds of each warm set-up.
    pub setups: Vec<f64>,
    /// Mean of the probe samples around each warm set-up.
    pub setup_probe_us: Vec<f64>,
    /// Microseconds per probe transform, one per sample.
    pub probe_us: Vec<f64>,
}

impl<'a> Interludes<'a> {
    pub fn new<T>(count: usize, seconds: f64, mut setup: impl FnMut() -> T + 'a) -> Self {
        Interludes {
            build: Box::new(move || timed(&mut setup).1),
            count,
            seconds,
            probe: Probe::new(),
            next_probe_s: 0.0,
            setups: Vec::new(),
            setup_probe_us: Vec::new(),
            probe_us: Vec::new(),
        }
    }

    /// Runs the probe if it is due, and the set-ups that are due.
    pub fn poll(&mut self, clock: &mut Clock) {
        if clock.secs() >= self.next_probe_s {
            let t = Instant::now();
            self.probe_us.push(self.probe.time_us(PROBE_BATCH));
            clock.paused += t.elapsed();
            self.next_probe_s = clock.secs() + PROBE_EVERY_S;
        }
        while self.setups.len() < self.count
            && clock.secs() >= (self.setups.len() as f64 + 0.5) * self.seconds / self.count as f64
        {
            self.run_setup(clock);
        }
    }

    /// Runs the set-ups still due when the window has ended.
    pub fn finish(&mut self, clock: &mut Clock) {
        while self.setups.len() < self.count {
            self.run_setup(clock);
        }
    }

    fn run_setup(&mut self, clock: &mut Clock) {
        let t = Instant::now();
        let before = self.probe.time_us(PROBE_BATCH);
        self.setups.push((self.build)());
        let after = self.probe.time_us(PROBE_BATCH);
        self.setup_probe_us.push((before + after) / 2.0);
        clock.paused += t.elapsed();
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `xs`; 0 when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile mean: the mean of the middle half of `xs`, the two
/// samples at its edges weighted by how much of them lies inside; 0
/// when empty. The host alternates between a fast and a slow state, and
/// the median of a run's samples jumps between the two as their mix
/// crosses one half, where this mean moves with the mix and still
/// ignores a stray outlier.
pub fn iqm(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (lo, hi) = (n / 4.0, 3.0 * n / 4.0);
    let sum: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let w = ((i + 1) as f64).min(hi) - (i as f64).max(lo);
            w.max(0.0) * x
        })
        .sum();
    sum / (hi - lo)
}

/// FNV-1a over 64-bit words: a stable, dependency-free output hash.
#[derive(Debug, Clone, Copy)]
pub struct Hasher(u64);

impl Hasher {
    pub fn new() -> Self {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn words(&mut self, ws: &[u64]) -> &mut Self {
        for &w in ws {
            self.word(w);
        }
        self
    }

    pub fn ckks(&mut self, ct: &fhe_ckks::Ciphertext) -> &mut Self {
        self.words(ct.c0.flat())
            .words(ct.c1.flat())
            .word(ct.level as u64)
            .word(ct.scale.to_bits())
    }

    pub fn lwe(&mut self, ct: &fhe_tfhe::LweCiphertext) -> &mut Self {
        self.words(&ct.a).word(ct.b)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn iqm_averages_the_middle_half() {
        assert_eq!(iqm(&[7.0]), 7.0);
        assert_eq!(iqm(&[1.0, 3.0]), 2.0);
        assert_eq!(iqm(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(iqm(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        // n = 6: weights 1/2, 1, 1, 1/2 on the four middle samples.
        assert_eq!(iqm(&[0.0, 2.0, 4.0, 4.0, 6.0, 50.0]), 12.0 / 3.0);
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn interludes_are_left_out_of_the_clock() {
        let mut clock = Clock::start();
        let mut inter = Interludes::new(2, 0.0, || std::thread::sleep(Duration::from_millis(20)));
        inter.poll(&mut clock);
        assert_eq!(inter.setups.len(), 2);
        assert_eq!(inter.setup_probe_us.len(), 2);
        assert!(inter.setups.iter().all(|&t| t >= 0.02));
        assert_eq!(inter.probe_us.len(), 1);
        assert!(clock.secs() < 0.02);
        // The next probe waits for `PROBE_EVERY_S` of window time.
        inter.poll(&mut clock);
        assert_eq!(inter.probe_us.len(), 1);
    }

    #[test]
    fn hash_depends_on_every_word() {
        let a = Hasher::new().words(&[1, 2, 3]).finish();
        let b = Hasher::new().words(&[1, 2, 4]).finish();
        assert_ne!(a, b);
    }
}
