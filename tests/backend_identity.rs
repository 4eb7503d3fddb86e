//! Cross-backend bit-identity of the production FHE chains.
//!
//! The lazy-chain suite (`tests/lazy_chains.rs`) proves lazy == strict
//! under whatever backend the process resolved; the CI matrix re-runs
//! it under `scalar`, `lanes` and `threaded`. This file closes the
//! remaining gap **in one process**: it swaps the process-wide backend
//! between `scalar`, `lanes` and `threaded` with [`kernel::force`] and
//! asserts that CKKS keyswitch, HMult (+rescale), rotation, and the
//! TFHE external product produce bit-identical ciphertexts under all
//! three — i.e. backend choice is unobservable, not merely
//! correct-up-to-the-oracle.
//!
//! `force` swaps global state, so every test serialises on one mutex
//! and restores the previous backend before releasing it.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity::ckks::{
    key_switch, key_switch_coalesced, CkksContext, CkksParams, Encoder, Encryptor, Evaluator,
    KeyGenerator, KeySet, KsJob, SwitchingKey,
};
use trinity::math::kernel::{self, KernelBackend};
use trinity::math::{galois, sampler, Representation, RnsPoly};
use trinity::tfhe::{Ggsw, GlweCiphertext, GlweSecretKey, MulBackend, TfheParams, TfheRing};

/// Serialises `kernel::force` swaps across the tests of this binary.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// The three production backends under comparison (threaded with 3
/// lanes so dispatch genuinely fans out where row sizes allow).
fn backends() -> [&'static dyn KernelBackend; 3] {
    [
        kernel::by_name("scalar").unwrap(),
        kernel::by_name("lanes").unwrap(),
        kernel::threaded(Some(3)),
    ]
}

/// Runs `work` once per backend with the process-wide dispatch forced
/// to it, returning the per-backend results; restores the previously
/// active backend afterwards.
fn under_each_backend<T>(mut work: impl FnMut() -> T) -> Vec<(&'static str, T)> {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let previous = kernel::active();
    let out = backends()
        .iter()
        .map(|b| {
            kernel::force(*b);
            (b.name(), work())
        })
        .collect();
    kernel::force(previous);
    out
}

fn assert_all_identical(results: Vec<(&'static str, Vec<u64>)>, what: &str) {
    let (base_name, base) = &results[0];
    for (name, got) in &results {
        assert_eq!(
            got, base,
            "{what}: backend {name} diverges from {base_name}"
        );
    }
}

struct CkksFixture {
    ctx: Arc<CkksContext>,
    keys: KeySet,
}

/// One shared keygen per shape (the host has one CPU; keygen dispatches
/// through whatever backend is active, which is fine — keys are
/// canonical data, and every backend is bit-identical anyway).
fn test_shape() -> &'static CkksFixture {
    static F: OnceLock<CkksFixture> = OnceLock::new();
    F.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::test_params());
        let mut rng = StdRng::seed_from_u64(0x1DE27171);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[1], &mut rng);
        CkksFixture { ctx, keys }
    })
}

/// A uniform random level-`l` polynomial in evaluation form.
fn random_eval_poly(f: &CkksFixture, l: usize, rng: &mut StdRng) -> RnsPoly {
    let basis = f.ctx.level_basis(l).clone();
    let mut flat = Vec::with_capacity(basis.len() * f.ctx.n());
    for m in basis.moduli() {
        flat.extend(sampler::uniform_residues(rng, m, f.ctx.n()));
    }
    RnsPoly::from_flat(basis, flat, Representation::Eval)
}

/// The single keyswitch and a `k = 3` coalesced batch under three
/// distinct keys (the cross-tenant shape: the engine's per-job tails
/// read different key rows within one batch).
#[test]
fn keyswitch_is_bit_identical_across_backends() {
    let f = test_shape();
    let l = f.ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(0x5EED0);
    let d = random_eval_poly(f, l, &mut rng);
    let kg = KeyGenerator::new(f.ctx.clone());
    let keys: Vec<SwitchingKey> = (0..3)
        .map(|_| {
            let sk = kg.secret_key(&mut rng);
            kg.relin_key(&sk, &mut rng)
        })
        .collect();
    let ds: Vec<RnsPoly> = (0..3).map(|_| random_eval_poly(f, l, &mut rng)).collect();
    let jobs: Vec<KsJob<'_>> = ds
        .iter()
        .zip(&keys)
        .map(|(d, key)| KsJob { d, key })
        .collect();

    let results = under_each_backend(|| {
        let (ks0, ks1) = key_switch(&f.ctx, &d, &f.keys.relin, l);
        let mut out = ks0.flat().to_vec();
        out.extend_from_slice(ks1.flat());
        for (c0, c1) in key_switch_coalesced(&f.ctx, &jobs, None, l) {
            out.extend_from_slice(c0.flat());
            out.extend_from_slice(c1.flat());
        }
        out
    });
    assert_all_identical(results, "ckks key_switch (single and k=3 coalesced)");
}

#[test]
fn hmult_rescale_and_rotation_are_bit_identical_across_backends() {
    let f = test_shape();
    let enc = Encoder::new(f.ctx.clone());
    let encryptor = Encryptor::new(f.ctx.clone());
    let eval = Evaluator::new(f.ctx.clone());
    let l = f.ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(0x5EED1);
    let vals: Vec<f64> = (0..8).map(|i| 0.1 * i as f64 - 0.3).collect();
    let x = encryptor.encrypt_sk(&enc.encode_real(&vals, l), &f.keys.secret, &mut rng);
    let y = encryptor.encrypt_sk(&enc.encode_real(&[0.25; 8], l), &f.keys.secret, &mut rng);
    let g = galois::rotation_galois_element(1, f.ctx.n());
    let gk = &f.keys.galois[&g];

    let results = under_each_backend(|| {
        let prod = eval.rescale(&eval.mul(&x, &y, &f.keys.relin));
        let rot = eval.apply_galois(&x, g, gk);
        let mut out = prod.c0.flat().to_vec();
        out.extend_from_slice(prod.c1.flat());
        out.extend_from_slice(rot.c0.flat());
        out.extend_from_slice(rot.c1.flat());
        out
    });
    assert_all_identical(results, "ckks hmult+rescale+rotation");
}

/// The hoisted rotation batch: one shared ModUp feeding several
/// rotations must (a) match the sequential `apply_galois` bit for bit
/// *within* each backend, and (b) be bit-identical *across* backends —
/// the pooled BConv/digit-NTT front half dispatches through the worker
/// pool on `threaded`, and that must be unobservable.
#[test]
fn hoisted_rotations_are_bit_identical_across_backends() {
    let f = test_shape();
    let enc = Encoder::new(f.ctx.clone());
    let encryptor = Encryptor::new(f.ctx.clone());
    let eval = Evaluator::new(f.ctx.clone());
    let l = f.ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(0x5EED3);
    let rotations = [1i64, 2, -1];
    let keys = KeyGenerator::new(f.ctx.clone()).key_set(&rotations, &mut rng);
    let vals: Vec<f64> = (0..8).map(|i| 0.05 * i as f64 - 0.2).collect();
    let x = encryptor.encrypt_sk(&enc.encode_real(&vals, l), &keys.secret, &mut rng);

    let results = under_each_backend(|| {
        let hoisted = eval.hoist_rotations(&x);
        let mut out = Vec::new();
        for r in rotations {
            let g = galois::rotation_galois_element(r, f.ctx.n());
            let gk = &keys.galois[&g];
            let h = eval.rotate_hoisted(&x, &hoisted, r, gk);
            let s = eval.rotate(&x, r, gk);
            assert_eq!(h.c0.flat(), s.c0.flat(), "hoisted != sequential c0, r={r}");
            assert_eq!(h.c1.flat(), s.c1.flat(), "hoisted != sequential c1, r={r}");
            out.extend_from_slice(h.c0.flat());
            out.extend_from_slice(h.c1.flat());
        }
        out
    });
    assert_all_identical(results, "ckks hoisted rotation batch");
}

#[test]
fn tfhe_external_product_is_bit_identical_across_backends() {
    let params = TfheParams::set_i();
    let ring = TfheRing::new(params.n, params.q_bits);
    let mut rng = StdRng::seed_from_u64(0x5EED2);
    let sk = GlweSecretKey::generate(params.k, params.n, &mut rng);
    let ggsw = Ggsw::encrypt_scalar(
        &ring,
        &sk,
        1,
        params.lb,
        params.bg_log,
        params.glwe_noise,
        MulBackend::Ntt,
        &mut rng,
    );
    let msg: Vec<u64> = (0..params.n)
        .map(|i| (i as u64 % 8) * (ring.q() / 8))
        .collect();
    let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, params.glwe_noise, &mut rng);

    let results = under_each_backend(|| {
        let out = ggsw.external_product(&ring, &glwe);
        let mut flat = out.body.clone();
        for m in &out.mask {
            flat.extend_from_slice(m);
        }
        flat
    });
    assert_all_identical(results, "tfhe external_product");
}
