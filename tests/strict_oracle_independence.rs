//! The strict keyswitch oracle runs its transforms without the active
//! kernel backend.
//!
//! `key_switch_strict` and `key_switch_galois_strict` are the reference
//! the lazy engine is asserted against, so they must not share the
//! engine's NTT dispatch: a backend bug in a transform would otherwise
//! show up on both sides of the comparison and cancel out. Here the
//! process-wide backend is forced to one whose transform entry points
//! panic, and the oracle must still reproduce the lazy results bit for
//! bit. Its two kernels without a strict form — BConv and the eval-form
//! slot permutation — delegate to the lane backend.
//!
//! `kernel::force` swaps process-wide state, which is why this check
//! is a test binary of its own.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity::ckks::{
    key_switch, key_switch_galois, key_switch_galois_strict, key_switch_strict, CkksContext,
    CkksParams, KeyGenerator,
};
use trinity::math::kernel::{self, ExitFold, KernelBackend, LANES_BACKEND};
use trinity::math::{galois, sampler, Modulus, NttTable, Representation, RnsPoly};

/// The lane backend with every NTT entry point replaced by a panic.
#[derive(Debug)]
struct NoTransforms;

static NO_TRANSFORMS: NoTransforms = NoTransforms;

impl KernelBackend for NoTransforms {
    fn name(&self) -> &'static str {
        "no-transforms"
    }
    fn forward_stages(&self, _: &NttTable, _: &mut [u64]) {
        panic!("forward_stages dispatched through the backend");
    }
    fn inverse_stages(&self, _: &NttTable, _: &mut [u64]) {
        panic!("inverse_stages dispatched through the backend");
    }
    fn forward_batch(&self, _: &[&NttTable], _: &mut [u64], _: ExitFold) {
        panic!("forward_batch dispatched through the backend");
    }
    fn inverse_batch(&self, _: &[&NttTable], _: &mut [u64], _: ExitFold) {
        panic!("inverse_batch dispatched through the backend");
    }
    fn fold_4p_to_2p(&self, m: &Modulus, a: &mut [u64]) {
        LANES_BACKEND.fold_4p_to_2p(m, a)
    }
    fn fold_4p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        LANES_BACKEND.fold_4p_to_canonical(m, a)
    }
    fn fold_2p_to_canonical(&self, m: &Modulus, a: &mut [u64]) {
        LANES_BACKEND.fold_2p_to_canonical(m, a)
    }
    fn scale_shoup(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        LANES_BACKEND.scale_shoup(m, w, w_shoup, a)
    }
    fn scale_shoup_lazy(&self, m: &Modulus, w: u64, w_shoup: u64, a: &mut [u64]) {
        LANES_BACKEND.scale_shoup_lazy(m, w, w_shoup, a)
    }
    fn mul_acc_lazy(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        LANES_BACKEND.mul_acc_lazy(m, acc, a, b)
    }
    fn mul_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        LANES_BACKEND.mul_lazy(m, a, b)
    }
    fn add_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        LANES_BACKEND.add_lazy(m, a, b)
    }
    fn sub_lazy(&self, m: &Modulus, a: &mut [u64], b: &[u64]) {
        LANES_BACKEND.sub_lazy(m, a, b)
    }
    fn permute(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        LANES_BACKEND.permute(perm, src, dst)
    }
    fn fold_2p_to_canonical_batch(&self, moduli: &[Modulus], flat: &mut [u64]) {
        LANES_BACKEND.fold_2p_to_canonical_batch(moduli, flat)
    }
    fn add_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        LANES_BACKEND.add_lazy_batch(moduli, a, b)
    }
    fn sub_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        LANES_BACKEND.sub_lazy_batch(moduli, a, b)
    }
    fn mul_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        LANES_BACKEND.mul_lazy_batch(moduli, a, b)
    }
    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        LANES_BACKEND.mul_acc_lazy_batch(moduli, acc, a, b)
    }
    fn permute_batch(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        LANES_BACKEND.permute_batch(perm, src, dst)
    }
    fn convert_approx_batch(&self, to: &[Modulus], weights: &[u64], y: &[u64], out: &mut [u64]) {
        LANES_BACKEND.convert_approx_batch(to, weights, y, out)
    }
    fn convert_exact_batch(
        &self,
        to: &[Modulus],
        weights: &[u64],
        a_mod_b: &[u64],
        v: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        LANES_BACKEND.convert_exact_batch(to, weights, a_mod_b, v, y, out)
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
        LANES_BACKEND.decompose_batch(q, base_log, levels, n, src, out)
    }
}

/// A uniform random level-`l` polynomial in evaluation form.
fn random_eval_poly(ctx: &Arc<CkksContext>, l: usize, rng: &mut StdRng) -> RnsPoly {
    let basis = ctx.level_basis(l).clone();
    let mut flat = Vec::with_capacity(basis.len() * ctx.n());
    for m in basis.moduli() {
        flat.extend(sampler::uniform_residues(rng, m, ctx.n()));
    }
    RnsPoly::from_flat(basis, flat, Representation::Eval)
}

#[test]
fn strict_keyswitch_oracles_match_lazy_without_backend_transforms() {
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let mut rng = StdRng::seed_from_u64(0x0DAC1E);
    let keys = KeyGenerator::new(ctx.clone()).key_set(&[1], &mut rng);
    let g = galois::rotation_galois_element(1, ctx.n());
    let gk = &keys.galois[&g];
    let levels = [ctx.params().max_level(), 0];
    let inputs: Vec<RnsPoly> = levels
        .iter()
        .map(|&l| random_eval_poly(&ctx, l, &mut rng))
        .collect();

    // Lazy results first, under the backend the process resolved.
    let lazy: Vec<_> = levels
        .iter()
        .zip(&inputs)
        .map(|(&l, d)| {
            (
                key_switch(&ctx, d, &keys.relin, l),
                key_switch_galois(&ctx, d, g, gk, l),
            )
        })
        .collect();

    let previous = kernel::active();
    kernel::force(&NO_TRANSFORMS);
    // The forced backend is live: the lazy engine cannot run under it.
    let engine = std::panic::catch_unwind(|| key_switch(&ctx, &inputs[0], &keys.relin, levels[0]));
    let strict: Vec<_> = levels
        .iter()
        .zip(&inputs)
        .map(|(&l, d)| {
            (
                key_switch_strict(&ctx, d, &keys.relin, l),
                key_switch_galois_strict(&ctx, d, g, gk, l),
            )
        })
        .collect();
    kernel::force(previous);

    assert!(
        engine.is_err(),
        "the transform-free backend was not in effect"
    );
    for ((l, ((l0, l1), (lg0, lg1))), ((s0, s1), (sg0, sg1))) in
        levels.iter().zip(&lazy).zip(&strict)
    {
        assert_eq!(l0.flat(), s0.flat(), "key_switch ks0, level {l}");
        assert_eq!(l1.flat(), s1.flat(), "key_switch ks1, level {l}");
        assert_eq!(lg0.flat(), sg0.flat(), "key_switch_galois ks0, level {l}");
        assert_eq!(lg1.flat(), sg1.flat(), "key_switch_galois ks1, level {l}");
    }
}
