//! `he3db`: a closed loop with one client running the hybrid
//! encrypted-database query of `examples/encrypted_db.rs` over a table
//! generated from the seed: two Set-III PBS predicate filters per row,
//! LWE aggregation, mod switch → cross-scheme LWE keyswitch → ring
//! embedding into CKKS, a CKKS add, then decryption and an exact check
//! of both counts and their sum.

use std::time::Instant;

use fhe_ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Evaluator, KeyGenerator, SecretKey,
};
use fhe_convert::{extracted_key, lwe_mod_switch, RlwePacker};
use fhe_math::Modulus;
use fhe_tfhe::{
    ClientKey, LweCiphertext, LweKeySwitchKey, MulBackend, ServerKey, TfheContext, TfheParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::census::CENSUS;
use crate::common::{timed, Clock, Hasher, Interludes, Outcome, RunCfg};
use crate::trace::Tracer;

/// Message space of the table columns.
const T: u64 = 16;

struct Setup {
    ck: ClientKey,
    server: ServerKey,
    q_tfhe: Modulus,
    ckks_sk: SecretKey,
    q0: Modulus,
    cross_ksk: LweKeySwitchKey,
    packer: RlwePacker,
    eval: Evaluator,
    dec: Decryptor,
}

fn setup(seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_iii()), &mut rng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let q_tfhe = *ck.ctx.q();
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let ckks_sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let q0 = *ctx.level_basis(0).modulus(0);
    let cross_ksk = LweKeySwitchKey::generate(
        &q0,
        &ck.glwe_sk.extracted_lwe_key(),
        &extracted_key(&ckks_sk),
        2,
        16,
        1e-9,
        &mut rng,
    );
    let packer = RlwePacker::new(ctx.clone(), &ckks_sk, 1, &mut rng);
    Setup {
        eval: Evaluator::new(ctx.clone()),
        dec: Decryptor::new(ctx.clone()),
        ck,
        server,
        q_tfhe,
        ckks_sk,
        q0,
        cross_ksk,
        packer,
    }
}

pub fn run(cfg: &RunCfg, tr: &Tracer) -> Outcome {
    let (s, cold_s) = timed(|| setup(cfg.seed));
    let mut inter = Interludes::new(cfg.warm_setups, cfg.seconds, || setup(cfg.seed));
    let mut out = Outcome::default();
    let rows = cfg.rows;
    // Filter bits sit at a small scale so the aggregated count keeps
    // the headroom the scheme conversion needs.
    let delta = s.q_tfhe.value() / 32;
    let delta_q0 = delta as f64 * s.q0.value() as f64 / s.q_tfhe.value() as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6865_3364_625f_7131);
    let ops0 = s.eval.counters().snapshot();
    let kernels0 = CENSUS.snapshot();
    let mut clock = Clock::start();
    let mut query = 0usize;
    // At least one query, then as many as start inside the window.
    while query == 0 || clock.secs() < cfg.seconds {
        let req = query as u64;
        let prices: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..T)).collect();
        let qtys: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..T)).collect();
        let price_max = rng.gen_range(1..T);
        let qty_min = rng.gen_range(1..T);
        let t0 = Instant::now();

        let enc_col = |col: &[u64], rng: &mut StdRng| -> Vec<LweCiphertext> {
            tr.span("tfhe.encrypt", req, || {
                col.iter()
                    .map(|&v| s.ck.encrypt_message(v, T, rng))
                    .collect()
            })
        };
        let enc_prices = enc_col(&prices, &mut rng);
        let enc_qtys = enc_col(&qtys, &mut rng);
        let filter = |col: &[LweCiphertext], pred: &dyn Fn(u64) -> bool| -> Vec<LweCiphertext> {
            col.iter()
                .map(|ct| {
                    tr.span("tfhe.pbs", req, || {
                        s.server.bootstrap_predicate_unswitched(ct, T, pred, delta)
                    })
                })
                .collect()
        };
        let bits_a = filter(&enc_prices, &|m| m < price_max);
        let bits_b = filter(&enc_qtys, &|m| m >= qty_min);
        let aggregate = |bits: &[LweCiphertext]| {
            tr.span("tfhe.aggregate", req, || {
                let mut acc = LweCiphertext::trivial(bits[0].dim(), 0);
                for b in bits {
                    acc.add_assign(&s.q_tfhe, b);
                }
                acc
            })
        };
        let count_a = aggregate(&bits_a);
        let count_b = aggregate(&bits_b);
        let convert = |count: &LweCiphertext| -> Ciphertext {
            let at_q0 = tr.span("convert.mod_switch", req, || {
                lwe_mod_switch(count, &s.q_tfhe, &s.q0)
            });
            let switched = tr.span("tfhe.lwe_keyswitch", req, || {
                s.cross_ksk.switch(&s.q0, &at_q0)
            });
            tr.span("convert.ring_embed", req, || {
                s.packer.ring_embed(&switched, delta_q0)
            })
        };
        let mut rlwe_a = convert(&count_a);
        let rlwe_b = convert(&count_b);
        let combined = tr.span("ckks.add", req, || s.eval.add(&rlwe_a, &rlwe_b));
        if cfg.corrupt == Some(query) {
            std::mem::swap(&mut rlwe_a.c0, &mut rlwe_a.c1);
        }
        // Each decoded value is (2 * matches - rows) for its count(s).
        let decoded: Vec<f64> = tr.span("ckks.decrypt", req, || {
            [&rlwe_a, &rlwe_b, &combined]
                .iter()
                .map(|ct| s.dec.decrypt_poly(ct, &s.ckks_sk).to_centered_f64()[0] / ct.scale)
                .collect()
        });
        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.span_s = clock.secs();
        out.attempted += 1;
        out.done += 1;

        let expect_a = prices.iter().filter(|&&p| p < price_max).count() as f64;
        let expect_b = qtys.iter().filter(|&&q| q >= qty_min).count() as f64;
        let rows_f = rows as f64;
        let expected = [
            2.0 * expect_a - rows_f,
            2.0 * expect_b - rows_f,
            2.0 * (expect_a + expect_b) - 2.0 * rows_f,
        ];
        let mut exact = true;
        for (got, want) in decoded.iter().zip(expected) {
            exact &= got.round() == want;
            out.ckks_err.push((got - want).abs());
        }
        out.check(exact);
        let mut h = Hasher::new();
        h.ckks(&combined);
        for d in &decoded {
            h.word(d.round() as i64 as u64);
        }
        out.hashes.push(h.finish());
        query += 1;
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
        .insert("ckks.keyswitches", (ops1.3 - ops0.3) as f64 / per);
    out.layer
        .insert("ckks.galois_ops", (ops1.4 - ops0.4) as f64 / per);
    out.layer
        .insert("ckks.ct_mults", (ops1.0 - ops0.0) as f64 / per);
    out.layer
        .insert("ckks.rescales", (ops1.2 - ops0.2) as f64 / per);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_count_is_counted_as_failed() {
        let mut cfg = RunCfg {
            seed: 3,
            // Exactly one query.
            seconds: 1e-9,
            outstanding: 1,
            warm_setups: 0,
            rows: 2,
            corrupt: None,
        };
        let tr = Tracer::new(false);
        let clean = run(&cfg, &tr);
        assert_eq!((clean.attempted, clean.failed), (1, 0));
        cfg.corrupt = Some(0);
        let bad = run(&cfg, &tr);
        assert_eq!((bad.attempted, bad.failed), (1, 1));
    }
}
