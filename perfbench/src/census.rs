//! The kernel census: a [`KernelBackend`] that forwards every call to
//! the `lanes` backend and counts it.
//!
//! Every trait method is overridden — the per-row passes, every
//! `*_batch` default, the base conversions and the gadget
//! decomposition — and each forwards to the same method on
//! [`LANES_BACKEND`]. A batched default therefore runs inside `lanes`
//! and calls `lanes`' own per-row methods, never back into the census,
//! so no kernel call is counted twice and the arithmetic is exactly the
//! `lanes` arithmetic: outputs stay bit-identical to an untraced run.
//!
//! Calls are classified by the trait method called into the kernel
//! kinds of the paper's §III taxonomy ([`Kind`]). The counters are
//! process-wide atomics because the service executes dispatch groups
//! on scoped threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fhe_math::kernel::{ExitFold, KernelBackend, LANES_BACKEND};
use fhe_math::{Modulus, NttTable};

/// A kernel kind of the census taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ntt,
    Intt,
    Bconv,
    Decomp,
    Ip,
    Modmul,
    Modadd,
    Auto,
    Fold,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 9] = [
        Kind::Ntt,
        Kind::Intt,
        Kind::Bconv,
        Kind::Decomp,
        Kind::Ip,
        Kind::Modmul,
        Kind::Modadd,
        Kind::Auto,
        Kind::Fold,
    ];

    /// The metric-name segment (`fhe-math.<name>.calls`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ntt => "ntt",
            Kind::Intt => "intt",
            Kind::Bconv => "bconv",
            Kind::Decomp => "decomp",
            Kind::Ip => "ip",
            Kind::Modmul => "modmul",
            Kind::Modadd => "modadd",
            Kind::Auto => "auto",
            Kind::Fold => "fold",
        }
    }
}

/// Calls, limb rows and nanoseconds of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub rows: u64,
    pub ns: u64,
}

#[derive(Debug)]
struct Slot {
    calls: AtomicU64,
    rows: AtomicU64,
    ns: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }
}

/// The counting backend. Install the [`CENSUS`] instance with
/// `fhe_math::kernel::select` before any kernel runs.
#[derive(Debug)]
pub struct Census {
    slots: [Slot; 9],
}

/// The process-wide census instance.
pub static CENSUS: Census = Census {
    slots: [
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
    ],
};

impl Census {
    /// The running totals of every kind, in [`Kind::ALL`] order.
    pub fn snapshot(&self) -> [Tally; 9] {
        // Relaxed: the counters are statistics and publish no data.
        let mut out = [Tally::default(); 9];
        for (t, s) in out.iter_mut().zip(&self.slots) {
            t.calls = s.calls.load(Ordering::Relaxed);
            t.rows = s.rows.load(Ordering::Relaxed);
            t.ns = s.ns.load(Ordering::Relaxed);
        }
        out
    }

    /// What every kind has added since `before` was taken.
    pub fn since(&self, before: &[Tally; 9]) -> [Tally; 9] {
        let now = self.snapshot();
        std::array::from_fn(|i| Tally {
            calls: now[i].calls - before[i].calls,
            rows: now[i].rows - before[i].rows,
            ns: now[i].ns - before[i].ns,
        })
    }

    /// Total kernel nanoseconds so far, over every kind and thread.
    pub fn total_ns(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.ns.load(Ordering::Relaxed))
            .sum()
    }

    fn count<T>(&self, kind: Kind, rows: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let slot = &self.slots[kind as usize];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.rows.fetch_add(rows as u64, Ordering::Relaxed);
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

/// Rows of a flat buffer of `len` words cut into `n`-word rows.
fn rows_of(len: usize, n: usize) -> usize {
    len.checked_div(n).unwrap_or(0)
}

impl KernelBackend for Census {
    fn name(&self) -> &'static str {
        "census(lanes)"
    }

    fn forward_stages(&self, t: &NttTable, a: &mut [u64]) {
        self.count(Kind::Ntt, 1, || LANES_BACKEND.forward_stages(t, a));
    }

    fn inverse_stages(&self, t: &NttTable, a: &mut [u64]) {
        self.count(Kind::Intt, 1, || LANES_BACKEND.inverse_stages(t, a));
    }

    fn fold_4p_to_2p(&self, m: &Modulus, a: &mut [u64]) {
        self.count(Kind::Fold, 1, || LANES_BACKEND.fold_4p_to_2p(m, a));
    }

    fn fold_4p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        self.count(Kind::Fold, 1, || LANES_BACKEND.fold_4p_to_canonical(m, a));
    }

    fn fold_2p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        self.count(Kind::Fold, 1, || LANES_BACKEND.fold_2p_to_canonical(m, a));
    }

    fn scale_shoup(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        self.count(Kind::Modmul, 1, || {
            LANES_BACKEND.scale_shoup(m, w, w_shoup, a)
        });
    }

    fn scale_shoup_lazy(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        self.count(Kind::Modmul, 1, || {
            LANES_BACKEND.scale_shoup_lazy(m, w, w_shoup, a)
        });
    }

    fn mul_acc_lazy(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        self.count(Kind::Ip, 1, || LANES_BACKEND.mul_acc_lazy(m, acc, a, b));
    }

    fn mul_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        self.count(Kind::Modmul, 1, || LANES_BACKEND.mul_lazy(m, a, b));
    }

    fn add_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        self.count(Kind::Modadd, 1, || LANES_BACKEND.add_lazy(m, a, b));
    }

    fn sub_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        self.count(Kind::Modadd, 1, || LANES_BACKEND.sub_lazy(m, a, b));
    }

    fn permute(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        self.count(Kind::Auto, 1, || LANES_BACKEND.permute(perm, src, dst));
    }

    fn forward_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        self.count(Kind::Ntt, tables.len(), || {
            LANES_BACKEND.forward_batch(tables, flat, exit)
        });
    }

    fn inverse_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        self.count(Kind::Intt, tables.len(), || {
            LANES_BACKEND.inverse_batch(tables, flat, exit)
        });
    }

    fn fold_2p_to_canonical_batch(&self, moduli: &[Modulus], flat: &mut [u64]) {
        self.count(Kind::Fold, moduli.len(), || {
            LANES_BACKEND.fold_2p_to_canonical_batch(moduli, flat)
        });
    }

    fn add_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        self.count(Kind::Modadd, moduli.len(), || {
            LANES_BACKEND.add_lazy_batch(moduli, a, b)
        });
    }

    fn sub_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        self.count(Kind::Modadd, moduli.len(), || {
            LANES_BACKEND.sub_lazy_batch(moduli, a, b)
        });
    }

    fn mul_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        self.count(Kind::Modmul, moduli.len(), || {
            LANES_BACKEND.mul_lazy_batch(moduli, a, b)
        });
    }

    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        self.count(Kind::Ip, moduli.len(), || {
            LANES_BACKEND.mul_acc_lazy_batch(moduli, acc, a, b)
        });
    }

    fn permute_batch(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        self.count(Kind::Auto, rows_of(src.len(), perm.len()), || {
            LANES_BACKEND.permute_batch(perm, src, dst)
        });
    }

    fn convert_approx_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        self.count(Kind::Bconv, to_moduli.len(), || {
            LANES_BACKEND.convert_approx_batch(to_moduli, weights, y, out)
        });
    }

    fn convert_exact_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        a_mod_b: &[u64],
        v: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        self.count(Kind::Bconv, to_moduli.len(), || {
            LANES_BACKEND.convert_exact_batch(to_moduli, weights, a_mod_b, v, y, out)
        });
    }

    fn decompose_batch(
        &self,
        q: u64,
        base_log: u32,
        levels: usize,
        n: usize,
        src: &[u64],
        out: &mut [i64],
    ) {
        self.count(Kind::Decomp, rows_of(src.len(), n), || {
            LANES_BACKEND.decompose_batch(q, base_log, levels, n, src, out)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_math::prime;

    #[test]
    fn census_is_bit_identical_to_lanes_and_counts_once() {
        let n = 64;
        let p = prime::ntt_primes(40, n, 2);
        let tables: Vec<NttTable> = p
            .iter()
            .map(|&q| NttTable::new(Modulus::new(q).expect("prime"), n))
            .collect();
        let refs: Vec<&NttTable> = tables.iter().collect();
        let input: Vec<u64> = (0..2 * n as u64).map(|i| i * 7 % 1000).collect();
        let census = Census {
            slots: std::array::from_fn(|_| Slot::new()),
        };
        let mut a = input.clone();
        let mut b = input.clone();
        census.forward_batch(&refs, &mut a, ExitFold::Lazy2p);
        LANES_BACKEND.forward_batch(&refs, &mut b, ExitFold::Lazy2p);
        assert_eq!(a, b);
        let snap = census.snapshot();
        // One batched call over two rows: one call, two rows, and no
        // per-row fold counted on top of it.
        assert_eq!(snap[Kind::Ntt as usize].calls, 1);
        assert_eq!(snap[Kind::Ntt as usize].rows, 2);
        assert_eq!(snap[Kind::Fold as usize].calls, 0);
    }
}
