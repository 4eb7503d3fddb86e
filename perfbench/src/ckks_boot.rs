//! `ckks_boot`: a closed loop with one client. Each cycle encrypts an
//! `n`-periodic message at level 0, bootstraps it stage by stage,
//! squares, rescales and rotates the fresh ciphertext, then decrypts
//! and checks both the bootstrap output and the rotation.

use std::sync::Arc;
use std::time::Instant;

use fhe_ckks::bootstrap::bootstrap_test_params;
use fhe_ckks::{
    BootstrapParams, Bootstrapper, CkksContext, Decryptor, Encoder, Encryptor, Evaluator, KeySet,
};
use fhe_math::galois::rotation_galois_element;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::census::CENSUS;
use crate::common::{timed, Clock, Hasher, Interludes, Outcome, RunCfg};
use crate::trace::Tracer;

/// Every bootstrap must recover its message to this many bits.
pub const PRECISION_FLOOR_BITS: f64 = 8.0;
/// Largest accepted slot error of the squared-and-rotated result.
pub const ROTATE_TOLERANCE: f64 = 1.0 / 64.0;

struct Setup {
    ctx: Arc<CkksContext>,
    boot: Bootstrapper,
    keys: KeySet,
    enc: Encoder,
    encryptor: Encryptor,
    eval: Evaluator,
    dec: Decryptor,
}

fn setup(seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let ctx = CkksContext::new(bootstrap_test_params());
    let boot = Bootstrapper::new(ctx.clone(), BootstrapParams::default());
    let keys = boot.generate_keys(&mut rng);
    Setup {
        enc: Encoder::new(ctx.clone()),
        encryptor: Encryptor::new(ctx.clone()),
        eval: Evaluator::new(ctx.clone()),
        dec: Decryptor::new(ctx.clone()),
        ctx,
        boot,
        keys,
    }
}

pub fn run(cfg: &RunCfg, tr: &Tracer) -> Outcome {
    let (s, cold_s) = timed(|| setup(cfg.seed));
    let mut inter = Interludes::new(cfg.warm_setups, cfg.seconds, || setup(cfg.seed));
    let mut out = Outcome::default();
    let n = s.boot.params().sparse_slots;
    let slots = s.ctx.n() / 2;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6b6b_735f_626f_6f74);
    let ops0 = s.eval.counters().snapshot();
    let kernels0 = CENSUS.snapshot();
    let mut clock = Clock::start();
    let mut cycle = 0usize;
    // At least one cycle, then as many as start inside the window.
    while cycle == 0 || clock.secs() < cfg.seconds {
        let req = cycle as u64;
        let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let r: i64 = rng.gen_range(1..n as i64);
        let t0 = Instant::now();
        let tiled: Vec<f64> = (0..slots).map(|j| vals[j % n]).collect();
        let ct = tr.span("ckks.encrypt", req, || {
            let pt = s.enc.encode_real(&tiled, 0);
            s.encryptor.encrypt_sk(&pt, &s.keys.secret, &mut rng)
        });
        let raised = tr.span("ckks.mod_raise", req, || s.boot.mod_raise(&ct));
        let traced = tr.span("ckks.sub_sum", req, || {
            s.boot.sub_sum(&raised, &s.eval, &s.keys)
        });
        let (h0, h1) = tr.span("ckks.coeff_to_slot", req, || {
            s.boot.coeff_to_slot(&traced, &s.eval, &s.enc, &s.keys)
        });
        let m0 = tr.span("ckks.eval_mod", req, || {
            s.boot.eval_mod(&h0, &s.eval, &s.enc, &s.keys)
        });
        let m1 = tr.span("ckks.eval_mod", req, || {
            s.boot.eval_mod(&h1, &s.eval, &s.enc, &s.keys)
        });
        let mut fresh = tr.span("ckks.slot_to_coeff", req, || {
            s.boot.slot_to_coeff(&m0, &m1, &s.eval, &s.enc, &s.keys)
        });
        let sq = tr.span("ckks.mul", req, || {
            s.eval.mul(&fresh, &fresh, &s.keys.relin)
        });
        let sq = tr.span("ckks.rescale", req, || s.eval.rescale(&sq));
        let gk = &s.keys.galois[&rotation_galois_element(r, s.ctx.n())];
        let rot = tr.span("ckks.rotate", req, || s.eval.rotate(&sq, r, gk));
        if cfg.corrupt == Some(cycle) {
            std::mem::swap(&mut fresh.c0, &mut fresh.c1);
        }
        let (back, back_rot) = tr.span("ckks.decrypt", req, || {
            (
                s.dec.decrypt(&fresh, &s.keys.secret, &s.enc),
                s.dec.decrypt(&rot, &s.keys.secret, &s.enc),
            )
        });
        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.span_s = clock.secs();
        out.attempted += 1;
        out.done += 1;

        let boot_err = (0..slots)
            .map(|j| (back[j].re - vals[j % n]).abs())
            .fold(0.0f64, f64::max);
        let rot_err = (0..slots)
            .map(|j| {
                let v = vals[(j + r as usize) % n];
                (back_rot[j].re - v * v).abs()
            })
            .fold(0.0f64, f64::max);
        out.ckks_err.push(boot_err);
        out.check(-boot_err.log2() >= PRECISION_FLOOR_BITS && rot_err <= ROTATE_TOLERANCE);
        out.hashes
            .push(Hasher::new().ckks(&fresh).ckks(&rot).finish());
        cycle += 1;
        inter.poll(&mut clock);
    }
    out.wall_s = clock.secs();
    inter.finish(&mut clock);
    out.setup_s = [cold_s].into_iter().chain(inter.setups).collect();
    out.setup_probe_us = inter.setup_probe_us;
    out.probe_us = inter.probe_us;
    out.kernels = CENSUS.since(&kernels0);
    out.units = out.done;
    let ops1 = s.eval.counters().snapshot();
    let per = out.units.max(1) as f64;
    out.layer
        .insert("ckks.ct_mults", (ops1.0 - ops0.0) as f64 / per);
    out.layer
        .insert("ckks.rescales", (ops1.2 - ops0.2) as f64 / per);
    out.layer
        .insert("ckks.keyswitches", (ops1.3 - ops0.3) as f64 / per);
    out.layer
        .insert("ckks.galois_ops", (ops1.4 - ops0.4) as f64 / per);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_bootstrap_is_counted_as_failed() {
        let cfg = RunCfg {
            seed: 3,
            // Exactly one cycle.
            seconds: 1e-9,
            outstanding: 1,
            warm_setups: 0,
            rows: 1,
            corrupt: Some(0),
        };
        let out = run(&cfg, &Tracer::new(false));
        assert_eq!((out.attempted, out.failed), (1, 1));
    }
}
