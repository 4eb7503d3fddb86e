//! Hybrid keyswitching — the paper's Algorithm 1.
//!
//! This is the dominant cost in CKKS (§III-C: NTT is 59.2% and MAC 40.8%
//! of KeySwitch compute at L=23, dnum=3) and the operation Trinity's
//! CU-based mapping accelerates. The pipeline:
//!
//! 1. **Decompose** the input polynomial's limbs into `beta` digits.
//! 2. **ModUp (BConv)** each digit into the extended basis `C_l ∪ P` —
//!    systolic-array matrix multiplications in hardware.
//! 3. **NTT** the raised digits (the paper's phase-1/phase-2 NTTU + CU
//!    collaboration for long polynomials).
//! 4. **Inner product** with the switching key digits (`IP` kernel),
//!    after the Galois slot permutation (`Auto`) for a rotation.
//! 5. **iNTT**, then **ModDown**: subtract the `P`-part's base conversion
//!    and multiply by `P^{-1}`.
//!
//! # One engine, three call shapes
//!
//! Every production keyswitch runs through one batched engine. A batch
//! is `k` jobs that share ring degree and level; each job brings its
//! own switching key (keys may differ per tenant) and, optionally, its
//! own Galois element. Per digit, the engine takes the raised rows from
//! one of two sources — the batch's inputs, raised in place one digit at
//! a time, or a shared [`HoistedRotations`] state — and gives every job
//! its tail: the optional slot permutation, then a lazy multiply-
//! accumulate against the key's stored rows, borrowed in place. It
//! finishes with one iNTT, one fold, ModDown and one output NTT over all
//! `2k` accumulators. The public entry points are its three shapes:
//!
//! * **single** — [`key_switch`] and [`key_switch_galois`], `k = 1`;
//! * **coalesced** — [`key_switch_coalesced`]: `k` raises, `k` tails,
//!   for `k` inputs sharing one Galois element (or none) under per-job
//!   keys — how a service layer batches requests across tenants;
//! * **hoisted** — [`hoist_rotations`] then [`key_switch_galois_hoisted`]:
//!   one raise, `k` tails with per-job `(g, key)` — how a linear layer
//!   pays Decompose + ModUp + the digit NTTs once for many rotations
//!   (FAB reuses the keyswitch front half across rotations the same way
//!   in hardware).
//!
//! Batching only concatenates rows; it never changes a per-row kernel,
//! so every output is bit-identical to its own `k = 1` call (asserted
//! by the suite below and `tests/backend_identity.rs`), and a wider
//! batch widens every [`fhe_math::KernelBackend`] dispatch it goes
//! through — what [`fhe_math::ThreadedBackend`] scales with.
//!
//! # Lazy residue chain
//!
//! The engine keeps steps 3–5 in the redundant `[0, 2p)` window: digit
//! NTTs exit lazily, the `IP` accumulators stay lazy across all `beta`
//! digits, the iNTT exits lazily, and a *single* canonicalisation per
//! accumulator limb happens at the ModDown boundary (BConv needs true
//! `[0, p)` representatives — base conversion depends on the
//! representative, not just the residue class). That mirrors how
//! Trinity/FAB pipelines keep operands in redundant form between
//! butterfly and MAC stages and only fully reduce at memory writeback.
//!
//! A rotation applies its automorphism to the raised digits in
//! evaluation form, where it is a pure, reduction-agnostic slot
//! permutation, so the chain stays `[0, 2p)` through `Auto` too. The
//! ordering is sound because `sigma_g` commutes exactly with the
//! limb-group digit decompose (it acts per limb) and commutes with
//! ModUp up to the usual approximate-BConv overshoot — a small
//! polynomial times the digit modulus `Q_j`, which the gadget residues
//! (`P` on digit-`j` limbs, `0` elsewhere, so `Q_j ≡ 0` wherever the
//! gadget is nonzero) annihilate except for a `Q_j e_j / P` noise term
//! attenuated at ModDown. The same commutation makes the hoisted shape
//! sound: one raise serves every rotation.
//!
//! # Strict oracle
//!
//! [`key_switch_strict`] and [`key_switch_galois_strict`] are one
//! fully-canonical pipeline, one job at a time: fully-reduced
//! transforms (`*_strict`, which never dispatch through the active
//! backend), the canonical automorphism and inner product, and the same
//! ModDown combine as the engine. `tests/lazy_chains.rs` asserts the
//! engine is bit-identical to it across every workspace modulus shape.

use fhe_math::kernel::{self, ExitFold};
use fhe_math::{Modulus, NttTable, Representation, RnsBasis, RnsPoly};

use crate::context::CkksContext;
use crate::keys::SwitchingKey;

/// Applies hybrid keyswitching to a polynomial `d` (evaluation form, at
/// `level`), producing the pair `(ks0, ks1)` such that
/// `ks0 + ks1 * s_to ≈ d * s_from` — both in evaluation form at `level`.
///
/// The `k = 1` shape of the lazy engine (see the module docs).
/// Bit-identical to [`key_switch_strict`] (asserted by
/// `tests/lazy_chains.rs`).
///
/// # Panics
///
/// Panics if `d` is not in evaluation form or its limb count does not
/// match `level + 1`.
pub fn key_switch(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    single(key_switch_engine(
        ctx,
        level,
        Digits::Raise(&[d]),
        &[(key, None)],
    ))
}

/// Galois keyswitch: applies the automorphism `sigma_g` *inside* the
/// keyswitch pipeline, to the raised digits in evaluation form, where it
/// is a pure slot permutation riding the `[0, 2p)` chain (see the module
/// docs for why the orderings are interchangeable).
///
/// Returns `(ks0, ks1)` with `ks0 + ks1 * s ≈ sigma_g(d) * s_from`
/// (for a Galois key, `s_from = sigma_g(s)`). Bit-identical to
/// [`key_switch_galois_strict`] (asserted by `tests/lazy_chains.rs`).
///
/// # Panics
///
/// As [`key_switch`]; additionally panics if `g` is even.
pub fn key_switch_galois(
    ctx: &CkksContext,
    d: &RnsPoly,
    g: u64,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    single(key_switch_engine(
        ctx,
        level,
        Digits::Raise(&[d]),
        &[(key, Some(g))],
    ))
}

/// One request of a coalesced keyswitch batch: the evaluation-form
/// polynomial to switch and the switching key to apply. Keys may
/// differ per job (different tenants); the geometry — ring degree,
/// level, and the Galois element if any — is shared across the batch.
#[derive(Debug, Clone, Copy)]
pub struct KsJob<'a> {
    /// The polynomial to keyswitch (evaluation form, `level + 1` limbs).
    pub d: &'a RnsPoly,
    /// The switching key (relinearisation or Galois) for this job.
    pub key: &'a SwitchingKey,
}

/// Runs `k` independent keyswitch jobs through one pipeline: every
/// kernel dispatch of the raise and the final iNTT, fold and output NTT
/// carries all `k` jobs' limb rows at once. With `galois: Some(g)`
/// every job is rotated by `g`. Output `i` is bit-identical to
/// `key_switch(ctx, jobs[i].d, jobs[i].key, level)`, or to
/// `key_switch_galois(ctx, jobs[i].d, g, jobs[i].key, level)`.
///
/// # Panics
///
/// As [`key_switch_galois`], per job.
pub fn key_switch_coalesced(
    ctx: &CkksContext,
    jobs: &[KsJob<'_>],
    galois: Option<u64>,
    level: usize,
) -> Vec<(RnsPoly, RnsPoly)> {
    let inputs: Vec<&RnsPoly> = jobs.iter().map(|job| job.d).collect();
    let tails: Vec<Tail<'_>> = jobs.iter().map(|job| (job.key, galois)).collect();
    key_switch_engine(ctx, level, Digits::Raise(&inputs), &tails)
}

/// The shared ModUp state of a rotation batch: the input's `beta`
/// digits raised to the extended basis and NTT'd once, held in the lazy
/// `[0, 2p)` evaluation window — the state the engine reaches after the
/// digit NTT, *before* the per-rotation automorphism.
///
/// Built by [`hoist_rotations`]; consumed by any number of
/// [`key_switch_galois_hoisted`] calls.
#[derive(Debug, Clone)]
pub struct HoistedRotations {
    level: usize,
    beta: usize,
    /// `beta` raised digits of `ext_limbs` rows each, flat limb-major.
    digits: Vec<u64>,
}

impl HoistedRotations {
    /// The ciphertext level the digits were raised at.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of raised digits (`beta`).
    pub fn digit_count(&self) -> usize {
        self.beta
    }
}

/// Computes the hoisted ModUp state of `d` (evaluation form, at
/// `level`): decompose into digits, raise each to the extended basis,
/// and NTT all of them with one lazy-exit dispatch.
///
/// # Panics
///
/// As [`key_switch`].
pub fn hoist_rotations(ctx: &CkksContext, d: &RnsPoly, level: usize) -> HoistedRotations {
    let d_coeff = inputs_to_coeff(ctx, level, &[d]);
    let beta = ctx.keyswitch_precomp(level).digits.len();
    let ext_basis = ctx.extended_basis(level);
    let mut digits = Vec::with_capacity(beta * ext_basis.len() * ctx.n());
    for j in 0..beta {
        raise_digit_into(ctx, &d_coeff, level, j, &mut digits);
    }
    kernel::active().forward_batch(
        &repeat_rows(&tables(ext_basis), beta),
        &mut digits,
        ExitFold::Lazy2p,
    );
    HoistedRotations {
        level,
        beta,
        digits,
    }
}

/// The hoisted shape of the engine: one shared raise, one tail per
/// `(g, key)` in `rotations`. Output `i` is bit-identical to
/// `key_switch_galois(ctx, d, rotations[i].0, rotations[i].1, level)`
/// for the `d` and `level` that `hoisted` was built from — the per-digit
/// kernel sequence is unchanged; the digits are merely not recomputed
/// per rotation.
///
/// # Panics
///
/// Panics if a `g` is even or a key does not cover `hoisted.level()`.
pub fn key_switch_galois_hoisted(
    ctx: &CkksContext,
    hoisted: &HoistedRotations,
    rotations: &[(u64, &SwitchingKey)],
) -> Vec<(RnsPoly, RnsPoly)> {
    let tails: Vec<Tail<'_>> = rotations.iter().map(|&(g, key)| (key, Some(g))).collect();
    key_switch_engine(ctx, hoisted.level, Digits::Hoisted(hoisted), &tails)
}

/// The fully-canonical strict oracle of [`key_switch`] (see the module
/// docs); the `canonical` row of the `keyswitch_lazy_vs_canonical`
/// micro.
///
/// # Panics
///
/// As [`key_switch`]; debug-panics on a lazy input.
pub fn key_switch_strict(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    key_switch_oracle(ctx, d, key, level, None)
}

/// The fully-canonical strict oracle of [`key_switch_galois`]: the
/// same oracle pipeline as [`key_switch_strict`] with the canonical
/// automorphism on each raised digit; the `canonical` row of the
/// `rotate_lazy_vs_canonical` micro.
///
/// # Panics
///
/// As [`key_switch_galois`]; debug-panics on a lazy input.
pub fn key_switch_galois_strict(
    ctx: &CkksContext,
    d: &RnsPoly,
    g: u64,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    key_switch_oracle(ctx, d, key, level, Some(g))
}

/// The strict oracle behind [`key_switch_strict`] and
/// [`key_switch_galois_strict`]: `[0, p)` between all steps, its
/// transforms run by the strict `*_strict` row loops instead of the
/// active backend. BConv (`convert_approx`/`convert_exact`) and the
/// eval-form permutation of `automorphism` have no strict form and
/// still go through the backend.
fn key_switch_oracle(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchingKey,
    level: usize,
    galois: Option<u64>,
) -> (RnsPoly, RnsPoly) {
    assert_eq!(d.representation(), Representation::Eval);
    assert_eq!(d.limbs(), level + 1, "polynomial level mismatch");
    let ext_basis = ctx.extended_basis(level);
    let mut d_coeff = d.clone();
    d_coeff.to_coeff_strict();
    let mut acc0 = RnsPoly::zero(ext_basis.clone(), Representation::Eval);
    let mut acc1 = RnsPoly::zero(ext_basis.clone(), Representation::Eval);
    for j in 0..ctx.keyswitch_precomp(level).digits.len() {
        let mut raised = Vec::new();
        raise_digit_into(ctx, d_coeff.flat(), level, j, &mut raised);
        let mut d_tilde = RnsPoly::from_flat(ext_basis.clone(), raised, Representation::Coeff);
        d_tilde.to_eval_strict();
        if let Some(g) = galois {
            d_tilde.automorphism(g, ctx.galois());
        }
        let (b_j, a_j) = key.row_at_level(ctx, j, level);
        acc0.mul_acc_pointwise(&d_tilde, &b_j);
        acc1.mul_acc_pointwise(&d_tilde, &a_j);
    }
    let [ks0, ks1] = [acc0, acc1].map(|mut acc| {
        acc.to_coeff_strict();
        let mut out = Vec::with_capacity((level + 1) * ctx.n());
        mod_down_into(ctx, level, acc.flat(), &mut out);
        let mut out =
            RnsPoly::from_flat(ctx.level_basis(level).clone(), out, Representation::Coeff);
        out.to_eval_strict();
        out
    });
    (ks0, ks1)
}

/// Where a batch's raised digits come from.
#[derive(Clone, Copy)]
enum Digits<'a> {
    /// Job `i` raises input `i`, one digit at a time.
    Raise(&'a [&'a RnsPoly]),
    /// Every job reads the same pre-raised digits.
    Hoisted(&'a HoistedRotations),
}

/// One job's tail: its switching key and optional Galois element.
type Tail<'a> = (&'a SwitchingKey, Option<u64>);

/// The lazy keyswitch engine (see the module docs): runs one job per
/// entry of `tails`, all at `level`, with digits from `digits`.
///
/// Per row this is exactly the `k = 1` lazy chain: input iNTT with a
/// canonical exit, per digit a lazy-exit NTT, the optional slot
/// permutation and a lazy multiply-accumulate against the key rows,
/// one lazy-exit iNTT over both accumulators, a single
/// `[0, 2p) → [0, p)` fold per limb, ModDown, and a canonical output
/// NTT. The raise and the tail dispatch over the whole batch; the
/// permutation and the MAC dispatch per job, because every job has its
/// own key and Galois element.
fn key_switch_engine(
    ctx: &CkksContext,
    level: usize,
    digits: Digits<'_>,
    tails: &[Tail<'_>],
) -> Vec<(RnsPoly, RnsPoly)> {
    let k = tails.len();
    if k == 0 {
        return Vec::new();
    }
    let n = ctx.n();
    let n_q = level + 1;
    let level_basis = ctx.level_basis(level);
    let ext_basis = ctx.extended_basis(level);
    let ext_tables = tables(ext_basis);
    let (q_moduli, p_moduli) = ext_basis.moduli().split_at(n_q);
    let moduli = [q_moduli, p_moduli];
    // Words per raised digit and per accumulator.
    let row = ext_basis.len() * n;
    let perms: Vec<_> = tails
        .iter()
        .map(|&(_, g)| g.map(|g| ctx.galois().eval_permutation(g)))
        .collect();

    // A raised batch holds job i's digit at offset i * row; a hoisted
    // digit is shared, so every job reads offset 0.
    let (d_coeff, stride) = match digits {
        Digits::Raise(inputs) => {
            assert_eq!(inputs.len(), k, "one input per job");
            (inputs_to_coeff(ctx, level, inputs), row)
        }
        Digits::Hoisted(h) => {
            assert_eq!(h.level, level, "hoisted state level mismatch");
            (Vec::new(), 0)
        }
    };
    let ext_tables_k = repeat_rows(&ext_tables, k);

    // Both accumulators of every job live in one buffer (acc0 rows for
    // all jobs, then acc1 rows for all jobs) so the tail iNTT + fold are
    // single dispatches over 2k * ext_limbs rows.
    let mut acc_all = vec![0u64; 2 * k * row];
    let mut raised: Vec<u64> = Vec::with_capacity(k * stride);
    let mut permuted: Vec<u64> = Vec::new();
    for j in 0..ctx.keyswitch_precomp(level).digits.len() {
        let src: &[u64] = match digits {
            Digits::Raise(_) => {
                // Raise digit j of every job, then NTT all k * ext_limbs
                // rows with one lazy-exit dispatch.
                raised.clear();
                for d in d_coeff.chunks_exact(n_q * n) {
                    raise_digit_into(ctx, d, level, j, &mut raised);
                }
                kernel::active().forward_batch(&ext_tables_k, &mut raised, ExitFold::Lazy2p);
                &raised
            }
            Digits::Hoisted(h) => &h.digits[j * row..(j + 1) * row],
        };
        let (acc0, acc1) = acc_all.split_at_mut(k * row);
        for (i, (&(key, _), perm)) in tails.iter().zip(&perms).enumerate() {
            let mut x = &src[i * stride..i * stride + row];
            // The automorphism is a pure slot permutation that preserves
            // the [0, 2p) window.
            if let Some(perm) = perm {
                permuted.resize(row, 0);
                kernel::active().permute_batch(perm, x, &mut permuted);
                x = &permuted;
            }
            let [b, a] = key.row_runs(ctx, j, level);
            mul_acc_key_row(moduli, &mut acc0[i * row..(i + 1) * row], x, b);
            mul_acc_key_row(moduli, &mut acc1[i * row..(i + 1) * row], x, a);
        }
    }

    // Tail: lazy-exit iNTT over both accumulators of every job, then
    // the chain's single deferred fold per limb — each one dispatch.
    kernel::active().inverse_batch(
        &repeat_rows(&ext_tables, 2 * k),
        &mut acc_all,
        ExitFold::Lazy2p,
    );
    kernel::active()
        .fold_2p_to_canonical_batch(&repeat_rows(ext_basis.moduli(), 2 * k), &mut acc_all);

    // ModDown every accumulator, then one canonical output NTT over all
    // 2k * (l+1) rows.
    let mut out_all = Vec::with_capacity(2 * k * n_q * n);
    for acc in acc_all.chunks_exact(row) {
        mod_down_into(ctx, level, acc, &mut out_all);
    }
    kernel::active().forward_batch(
        &repeat_rows(&tables(level_basis), 2 * k),
        &mut out_all,
        ExitFold::Canonical,
    );

    // Job i's ks0 rows sit at chunk i, its ks1 rows at chunk k + i.
    let mut polys = out_all
        .chunks_exact(n_q * n)
        .map(|c| RnsPoly::from_flat(level_basis.clone(), c.to_vec(), Representation::Eval));
    let ks0: Vec<RnsPoly> = polys.by_ref().take(k).collect();
    ks0.into_iter().zip(polys).collect()
}

/// The lazy `IP` step of one job against one key row borrowed in place:
/// the row's q-limbs and `P`-limbs are separate runs of the full-basis
/// key ([`SwitchingKey::row_runs`]), so the MAC dispatches once per run
/// (under `moduli[0]` and `moduli[1]`) instead of on a copied row.
fn mul_acc_key_row(moduli: [&[Modulus]; 2], acc: &mut [u64], x: &[u64], key: [&[u64]; 2]) {
    let (acc_q, acc_p) = acc.split_at_mut(key[0].len());
    let (x_q, x_p) = x.split_at(key[0].len());
    kernel::active().mul_acc_lazy_batch(moduli[0], acc_q, x_q, key[0]);
    kernel::active().mul_acc_lazy_batch(moduli[1], acc_p, x_p, key[1]);
}

/// Stacks `inputs` (evaluation form, `level + 1` limbs each) into one
/// flat buffer and brings it to coefficient form with one batched iNTT.
/// Decompose needs true `[0, p)` representatives, which the canonical
/// exit gives for free.
fn inputs_to_coeff(ctx: &CkksContext, level: usize, inputs: &[&RnsPoly]) -> Vec<u64> {
    let mut flat = Vec::with_capacity(inputs.len() * (level + 1) * ctx.n());
    for d in inputs {
        assert_eq!(d.representation(), Representation::Eval);
        assert_eq!(d.limbs(), level + 1, "polynomial level mismatch");
        flat.extend_from_slice(d.flat());
    }
    kernel::active().inverse_batch(
        &repeat_rows(&tables(ctx.level_basis(level)), inputs.len()),
        &mut flat,
        ExitFold::Canonical,
    );
    flat
}

/// The digit-raising front half: gathers digit `j`'s limbs from one
/// input's canonical coefficient-form rows (`(level + 1) * n` words),
/// ModUps them (approximate BConv) into the complement limbs and `P`,
/// and appends the raised digit's `ext_limbs * n` words to `out` in the
/// extended-basis limb order `[q_0..q_l, p_0..]`.
fn raise_digit_into(ctx: &CkksContext, d_flat: &[u64], level: usize, j: usize, out: &mut Vec<u64>) {
    let precomp = ctx.keyswitch_precomp(level);
    let digit = &precomp.digits[j];
    let n = ctx.n();
    debug_assert_eq!(d_flat.len(), (level + 1) * n);
    // Decompose: gather this digit's limbs into one flat buffer.
    let mut digit_flat = Vec::with_capacity(digit.digit_limbs.len() * n);
    for &i in &digit.digit_limbs {
        digit_flat.extend_from_slice(&d_flat[i * n..(i + 1) * n]);
    }
    // ModUp: BConv digit -> (others ∪ P), flat limb-major in and out.
    let converted = digit.mod_up.convert_approx(&digit_flat);
    // Reassemble limbs in extended order [q_0..q_l, p_0..].
    let n_q = level + 1;
    let n_p = ctx.params().p_special.len();
    let mut other_pos = 0usize;
    for i in 0..n_q {
        if let Some(idx) = digit.digit_limbs.iter().position(|&x| x == i) {
            out.extend_from_slice(&digit_flat[idx * n..(idx + 1) * n]);
        } else {
            out.extend_from_slice(&converted[other_pos * n..(other_pos + 1) * n]);
            other_pos += 1;
        }
    }
    let p_start = digit.other_limbs.len();
    out.extend_from_slice(&converted[p_start * n..(p_start + n_p) * n]);
}

/// ModDown (Algorithm 1, line 12) of one canonical coefficient-form
/// accumulator over `C_l ∪ P`: subtracts the exact base conversion of
/// its `P`-part from its q-part and multiplies by `P^{-1}`, appending
/// the `(level + 1) * n` coefficient-form words to `out`. Serves both
/// the engine and the strict oracle.
fn mod_down_into(ctx: &CkksContext, level: usize, acc: &[u64], out: &mut Vec<u64>) {
    let precomp = ctx.keyswitch_precomp(level);
    let n = ctx.n();
    // Limb-major layout: the q-limbs and P-limbs are contiguous halves,
    // so the P-part feeds BConv without any gather.
    let (q_flat, p_flat) = acc.split_at((level + 1) * n);
    let p_in_q = precomp.mod_down.convert_exact(p_flat);
    let moduli = ctx.level_basis(level).moduli();
    for (((c_row, p_row), qi), &inv) in q_flat
        .chunks_exact(n)
        .zip(p_in_q.chunks_exact(n))
        .zip(moduli)
        .zip(&precomp.p_inv_mod_q)
    {
        out.extend(
            c_row
                .iter()
                .zip(p_row)
                .map(|(&c, &p)| qi.mul(qi.sub(c, p), inv)),
        );
    }
}

/// The NTT tables of `basis`, one per limb row.
fn tables(basis: &RnsBasis) -> Vec<&NttTable> {
    basis.tables().iter().map(|t| t.as_ref()).collect()
}

/// Repeats the per-limb slice `once` back to back `k` times — the
/// row-metadata side of widening a kernel dispatch from one job's limb
/// rows to a whole batch's.
fn repeat_rows<T: Copy>(once: &[T], k: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(once.len() * k);
    for _ in 0..k {
        out.extend_from_slice(once);
    }
    out
}

/// Unwraps the single result of a `k = 1` engine run.
fn single(mut out: Vec<(RnsPoly, RnsPoly)>) -> (RnsPoly, RnsPoly) {
    out.pop().expect("one job in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use fhe_math::{sampler, ReductionState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Keyswitching d with the relin key must produce (ks0, ks1) with
    /// ks0 + ks1*s ≈ d*s^2 — the defining property.
    #[test]
    fn keyswitch_defining_property() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(51);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&sk, &mut rng);

        for level in [ctx.params().max_level(), 1, 0] {
            let basis = ctx.level_basis(level).clone();
            // Random "ciphertext part" d, uniform over the basis.
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis.clone(), flat, Representation::Eval);

            let (ks0, ks1) = key_switch(&ctx, &d, &rlk, level);

            let s = sk.poly_at_level(&ctx, level);
            let mut s2 = s.clone();
            s2.mul_assign_pointwise(&s);

            // lhs = ks0 + ks1*s, rhs = d*s^2; difference must be small.
            let mut lhs = ks1.clone();
            lhs.mul_assign_pointwise(&s);
            lhs.add_assign(&ks0);
            let mut rhs = d.clone();
            rhs.mul_assign_pointwise(&s2);
            lhs.sub_assign(&rhs);
            lhs.to_coeff();
            let err = lhs.to_centered_f64();
            let max_err = err.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            // Noise bound: beta * N * sigma * D/P plus ModDown rounding.
            // Empirically tiny; assert a comfortable margin well below the
            // scale (2^30).
            assert!(
                max_err < 2f64.powi(20),
                "keyswitch noise too large at level {level}: {max_err}"
            );
            assert!(
                max_err > 0.0,
                "suspiciously exact keyswitch at level {level}"
            );
        }
    }

    /// Galois keyswitching: rotating c1 and switching must track the
    /// rotated secret.
    #[test]
    fn galois_keyswitch_property() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(52);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let gk = kg.galois_key(&sk, g, &mut rng);

        let level = 1;
        let basis = ctx.level_basis(level).clone();
        let mut flat = Vec::with_capacity(basis.len() * ctx.n());
        for m in basis.moduli() {
            flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
        }
        let d = RnsPoly::from_flat(basis, flat, Representation::Eval);
        let (ks0, ks1) = key_switch(&ctx, &d, &gk, level);

        let s = sk.poly_at_level(&ctx, level);
        let mut s_g = s.clone();
        s_g.automorphism(g, ctx.galois());

        let mut lhs = ks1.clone();
        lhs.mul_assign_pointwise(&s);
        lhs.add_assign(&ks0);
        let mut rhs = d.clone();
        rhs.mul_assign_pointwise(&s_g);
        lhs.sub_assign(&rhs);
        lhs.to_coeff();
        let max_err = lhs
            .to_centered_f64()
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_err < 2f64.powi(20), "galois keyswitch noise: {max_err}");
    }

    /// The hoisted Galois keyswitch must satisfy the same defining
    /// property as rotating first: `ks0 + ks1*s ≈ sigma_g(d) * sigma_g(s)`
    /// — the automorphism hoisted past decompose/ModUp changes only the
    /// BConv-overshoot noise realisation, not the phase.
    #[test]
    fn hoisted_galois_keyswitch_property() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(54);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        for r in [1i64, -1, 3] {
            let g = fhe_math::galois::rotation_galois_element(r, ctx.n());
            let gk = kg.galois_key(&sk, g, &mut rng);

            let level = ctx.params().max_level();
            let basis = ctx.level_basis(level).clone();
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis, flat, Representation::Eval);
            let (ks0, ks1) = key_switch_galois(&ctx, &d, g, &gk, level);

            let s = sk.poly_at_level(&ctx, level);
            let mut s_g = s.clone();
            s_g.automorphism(g, ctx.galois());
            let mut d_g = d.clone();
            d_g.automorphism(g, ctx.galois());

            let mut lhs = ks1.clone();
            lhs.mul_assign_pointwise(&s);
            lhs.add_assign(&ks0);
            let mut rhs = d_g;
            rhs.mul_assign_pointwise(&s_g);
            lhs.sub_assign(&rhs);
            lhs.to_coeff();
            let max_err = lhs
                .to_centered_f64()
                .iter()
                .fold(0.0f64, |a, &b| a.max(b.abs()));
            assert!(
                max_err < 2f64.powi(20),
                "hoisted galois keyswitch noise for r={r}: {max_err}"
            );
        }
    }

    /// The lazy Galois keyswitch is bit-identical to its strict oracle —
    /// the rotation-chain counterpart of the plain keyswitch assertions
    /// in `tests/lazy_chains.rs`.
    #[test]
    fn galois_keyswitch_tiers_bit_identical() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(55);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let gk = kg.galois_key(&sk, g, &mut rng);
        for level in [ctx.params().max_level(), 0] {
            let basis = ctx.level_basis(level).clone();
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis, flat, Representation::Eval);
            let (l0, l1) = key_switch_galois(&ctx, &d, g, &gk, level);
            let (s0, s1) = key_switch_galois_strict(&ctx, &d, g, &gk, level);
            assert_eq!(l0.flat(), s0.flat(), "lazy vs strict ks0, level {level}");
            assert_eq!(l1.flat(), s1.flat(), "lazy vs strict ks1, level {level}");
            assert_eq!(l0.reduction_state(), ReductionState::Canonical);
            assert_eq!(l1.reduction_state(), ReductionState::Canonical);
        }
    }

    /// One [`hoist_rotations`] call must serve every rotation in a
    /// batch, each output bitwise identical to the corresponding
    /// sequential [`key_switch_galois`] — the digits are shared, not
    /// recomputed, and sharing must not change a single bit, whether
    /// the rotations run as one hoisted batch (per-job `g` and key) or
    /// one at a time.
    #[test]
    fn hoisted_rotations_bit_identical_to_sequential() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(56);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        for level in [ctx.params().max_level(), 0] {
            let basis = ctx.level_basis(level).clone();
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis, flat, Representation::Eval);

            let hoisted = hoist_rotations(&ctx, &d, level);
            assert_eq!(hoisted.level(), level);
            assert!(hoisted.digit_count() >= 1);

            let steps = [1i64, -1, 2, 3];
            let gs: Vec<u64> = steps
                .iter()
                .map(|&r| fhe_math::galois::rotation_galois_element(r, ctx.n()))
                .collect();
            let gks: Vec<SwitchingKey> = gs
                .iter()
                .map(|&g| kg.galois_key(&sk, g, &mut rng))
                .collect();
            let rotations: Vec<(u64, &SwitchingKey)> = gs.iter().copied().zip(&gks).collect();
            let batch = key_switch_galois_hoisted(&ctx, &hoisted, &rotations);
            assert_eq!(batch.len(), rotations.len());
            for ((r, &(g, gk)), (b0, b1)) in steps.iter().zip(&rotations).zip(&batch) {
                let (h0, h1) = single(key_switch_galois_hoisted(&ctx, &hoisted, &[(g, gk)]));
                let (s0, s1) = key_switch_galois(&ctx, &d, g, gk, level);
                assert_eq!(h0.flat(), s0.flat(), "ks0 r={r} level={level}");
                assert_eq!(h1.flat(), s1.flat(), "ks1 r={r} level={level}");
                assert_eq!(b0.flat(), s0.flat(), "batched ks0 r={r} level={level}");
                assert_eq!(b1.flat(), s1.flat(), "batched ks1 r={r} level={level}");
            }
        }
    }

    /// Coalescing k independent keyswitch jobs (distinct inputs AND
    /// distinct keys, as cross-tenant coalescing produces) must leave
    /// every output bitwise identical to its own sequential call —
    /// batching widens kernel dispatches, it never changes a per-row
    /// kernel.
    #[test]
    fn coalesced_keyswitch_bit_identical_to_sequential() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(57);
        let kg = KeyGenerator::new(ctx.clone());
        for level in [ctx.params().max_level(), 0] {
            let basis = ctx.level_basis(level).clone();
            let mut ds = Vec::new();
            let mut keys = Vec::new();
            for _ in 0..3 {
                let sk = kg.secret_key(&mut rng);
                keys.push(kg.relin_key(&sk, &mut rng));
                let mut flat = Vec::with_capacity(basis.len() * ctx.n());
                for m in basis.moduli() {
                    flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
                }
                ds.push(RnsPoly::from_flat(
                    basis.clone(),
                    flat,
                    Representation::Eval,
                ));
            }
            let jobs: Vec<KsJob<'_>> = ds
                .iter()
                .zip(&keys)
                .map(|(d, key)| KsJob { d, key })
                .collect();
            let coalesced = key_switch_coalesced(&ctx, &jobs, None, level);
            assert_eq!(coalesced.len(), jobs.len());
            for (i, (job, (c0, c1))) in jobs.iter().zip(&coalesced).enumerate() {
                let (s0, s1) = key_switch(&ctx, job.d, job.key, level);
                assert_eq!(c0.flat(), s0.flat(), "ks0 job {i} level {level}");
                assert_eq!(c1.flat(), s1.flat(), "ks1 job {i} level {level}");
                assert_eq!(c0.reduction_state(), ReductionState::Canonical);
                assert_eq!(c0.representation(), Representation::Eval);
            }
        }
    }

    /// The Galois form of the same guarantee: k rotations by one
    /// element under per-job keys, coalesced, each output bit-identical
    /// to its sequential `key_switch_galois` (and hence to the strict
    /// oracle, by `galois_keyswitch_tiers_bit_identical`).
    #[test]
    fn coalesced_galois_keyswitch_bit_identical_to_sequential() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(58);
        let kg = KeyGenerator::new(ctx.clone());
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        for level in [ctx.params().max_level(), 0] {
            let basis = ctx.level_basis(level).clone();
            let mut ds = Vec::new();
            let mut keys = Vec::new();
            for _ in 0..4 {
                let sk = kg.secret_key(&mut rng);
                keys.push(kg.galois_key(&sk, g, &mut rng));
                let mut flat = Vec::with_capacity(basis.len() * ctx.n());
                for m in basis.moduli() {
                    flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
                }
                ds.push(RnsPoly::from_flat(
                    basis.clone(),
                    flat,
                    Representation::Eval,
                ));
            }
            let jobs: Vec<KsJob<'_>> = ds
                .iter()
                .zip(&keys)
                .map(|(d, key)| KsJob { d, key })
                .collect();
            let coalesced = key_switch_coalesced(&ctx, &jobs, Some(g), level);
            for (i, (job, (c0, c1))) in jobs.iter().zip(&coalesced).enumerate() {
                let (s0, s1) = key_switch_galois(&ctx, job.d, g, job.key, level);
                assert_eq!(c0.flat(), s0.flat(), "ks0 job {i} level {level}");
                assert_eq!(c1.flat(), s1.flat(), "ks1 job {i} level {level}");
            }
            // An empty batch is a no-op, not a panic.
            assert!(key_switch_coalesced(&ctx, &[], Some(g), level).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn wrong_level_rejected() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(53);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&sk, &mut rng);
        let d = RnsPoly::zero(ctx.level_basis(1).clone(), Representation::Eval);
        let _ = key_switch(&ctx, &d, &rlk, 2);
    }
}
