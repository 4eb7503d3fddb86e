//! `service_backlog`: a `traffic::stream` replayed through `ServiceCore`
//! by a single driver thread as a closed loop.
//!
//! Tenants: two TFHE Set-I tenants (their gates can share a batched
//! blind rotation), three CKKS tenants over one shared `tiny_params`
//! context (their rotations can coalesce), and one CKKS tenant on a
//! context of its own (never coalesces). Gates go to TFHE tenant
//! `event.tenant % 2`, rotations to CKKS tenant `event.tenant % 4`.
//!
//! The driver never perturbs the service: it learns that a request is
//! finished from the audit log — a `complete` event names the request's
//! dispatch group, and groups retire in formation order, so every group
//! older than the `in_flight_groups()` newest has executed — and only
//! then calls `take_result`, which for a finished id retires nothing.

use std::collections::HashMap;
use std::sync::Arc;

use fhe_ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, KeyGenerator, SecretKey,
    SwitchingKey,
};
use fhe_math::galois::rotation_galois_element;
use fhe_math::Complex;
use fhe_tfhe::{ClientKey, GateOp, LweCiphertext, MulBackend, ServerKey, TfheContext, TfheParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trinity_service::{
    AuditEvent, Lane, RequestId, Response, ServiceConfig, ServiceCore, Workload,
};
use trinity_workloads::{stream, RequestKind, TrafficEvent, TrafficMix};

use crate::census::CENSUS;
use crate::common::{timed, Clock, Hasher, Interludes, Lanes, Outcome, RunCfg};
use crate::trace::Tracer;

/// Seed of the replayed `traffic::stream`. Every run replays the same
/// request sequence; `--seed` varies keys, ciphertexts and plaintexts.
/// A per-seed stream moves the realised gate share by a few percent,
/// which shifts closed-loop throughput by up to a fifth and flips the
/// all-request median between gate and rotation latencies, so run-to-
/// run spread would measure the generator rather than the service.
const STREAM_SEED: u64 = 42;
/// Encrypted inputs kept per tenant (and per bit value for gates).
const POOL: usize = 4;
/// Largest accepted slot error of a rotated ciphertext.
pub const ROTATE_TOLERANCE: f64 = 1.0 / 1024.0;
const TFHE_TENANTS: usize = 2;
const CKKS_TENANTS: usize = 4;
/// The last CKKS tenant sits on a context of its own.
const SOLO: usize = CKKS_TENANTS - 1;

/// The service's configuration: the default lanes and batching, two
/// groups in flight (one per CPU of a 2-vCPU host), and a key cache
/// that holds every tenant.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        key_cache_bytes: 1 << 30,
        max_in_flight: 2,
        ..ServiceConfig::default_config()
    }
}

/// Tenant keys and pre-encrypted inputs.
pub struct Fixture {
    clients: Vec<ClientKey>,
    /// Server keys, moved into the service when it is built.
    servers: Vec<Option<ServerKey>>,
    /// `bits[tenant][bit]`: encryptions of `bit`.
    bits: Vec<[Vec<LweCiphertext>; 2]>,
    shared: Arc<CkksContext>,
    solo: Arc<CkksContext>,
    secrets: Vec<SecretKey>,
    galois: Vec<HashMap<i64, SwitchingKey>>,
    /// `inputs[tenant][i]`: ciphertext and its slot values.
    inputs: Vec<Vec<(Ciphertext, Vec<f64>)>>,
    codecs: Vec<(Encoder, Decryptor)>,
}

impl Fixture {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        let mut bits = Vec::new();
        for _ in 0..TFHE_TENANTS {
            let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
            servers.push(Some(ServerKey::generate(&ck, MulBackend::Ntt, &mut rng)));
            bits.push([false, true].map(|b| {
                (0..POOL)
                    .map(|_| ck.encrypt_bit(b, &mut rng))
                    .collect::<Vec<_>>()
            }));
            clients.push(ck);
        }
        let shared = CkksContext::new(CkksParams::tiny_params());
        let solo = CkksContext::new(CkksParams::tiny_params());
        let steps: Vec<i64> = (1..=4).flat_map(|m| [m, -m]).collect();
        let mut secrets = Vec::new();
        let mut galois = Vec::new();
        let mut inputs = Vec::new();
        let mut codecs = Vec::new();
        for t in 0..CKKS_TENANTS {
            let ctx = if t == SOLO { &solo } else { &shared };
            let kg = KeyGenerator::new(ctx.clone());
            let sk = kg.secret_key(&mut rng);
            galois.push(
                steps
                    .iter()
                    .map(|&r| {
                        (
                            r,
                            kg.galois_key(&sk, rotation_galois_element(r, ctx.n()), &mut rng),
                        )
                    })
                    .collect(),
            );
            let enc = Encoder::new(ctx.clone());
            let encryptor = Encryptor::new(ctx.clone());
            inputs.push(
                (0..POOL)
                    .map(|_| {
                        let vals: Vec<f64> =
                            (0..enc.slots()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        let pt = enc.encode_real(&vals, ctx.params().max_level());
                        (encryptor.encrypt_sk(&pt, &sk, &mut rng), vals)
                    })
                    .collect(),
            );
            secrets.push(sk);
            codecs.push((enc, Decryptor::new(ctx.clone())));
        }
        Fixture {
            clients,
            servers,
            bits,
            shared,
            solo,
            secrets,
            galois,
            inputs,
            codecs,
        }
    }

    fn ckks_ctx(&self, t: usize) -> &Arc<CkksContext> {
        if t == SOLO {
            &self.solo
        } else {
            &self.shared
        }
    }

    /// A service with every tenant registered: TFHE tenants are ids
    /// `0..2`, CKKS tenants `2..6`. Server keys move into the service,
    /// so a fixture builds one service.
    pub fn service(&mut self) -> ServiceCore {
        let mut svc = ServiceCore::new(config()).expect("default budgets are valid");
        for (t, server) in self.servers.iter_mut().enumerate() {
            let server = server.take().expect("a fixture builds one service");
            svc.register_tfhe_tenant(t, server)
                .expect("the key cache holds every tenant");
        }
        for t in 0..CKKS_TENANTS {
            svc.register_ckks_tenant(
                TFHE_TENANTS + t,
                self.ckks_ctx(t).clone(),
                self.galois[t].clone(),
            )
            .expect("the key cache holds every tenant");
        }
        svc
    }

    /// The request for stream event `i`, its tenant and lane.
    fn request(&self, i: usize, ev: &TrafficEvent) -> (usize, Lane, Workload) {
        match &ev.kind {
            RequestKind::Gate { gate, a, b } => {
                let t = ev.tenant % TFHE_TENANTS;
                let pick = |bit: bool, k: usize| self.bits[t][usize::from(bit)][k % POOL].clone();
                let work = Workload::Gate {
                    op: GateOp::ALL[gate % GateOp::ALL.len()],
                    a: pick(*a, i),
                    b: pick(*b, i + 1),
                };
                (t, Lane::Interactive, work)
            }
            RequestKind::TimedRotation { step, deadline } => {
                let t = ev.tenant % CKKS_TENANTS;
                let work = Workload::Rotation {
                    ct: self.inputs[t][i % POOL].0.clone(),
                    step: *step,
                    deadline: *deadline,
                };
                (TFHE_TENANTS + t, Lane::Timed, work)
            }
            RequestKind::BulkRotations { steps } => {
                let t = ev.tenant % CKKS_TENANTS;
                let work = Workload::Analytics {
                    ct: self.inputs[t][i % POOL].0.clone(),
                    steps: steps.clone(),
                };
                (TFHE_TENANTS + t, Lane::Bulk, work)
            }
        }
    }

    /// Checks a response against the plaintext result of event `i`;
    /// returns whether it is correct and, for a rotation, its largest
    /// slot error.
    fn verify(
        &self,
        tr: &Tracer,
        i: usize,
        ev: &TrafficEvent,
        resp: &Response,
    ) -> (bool, Option<f64>) {
        let req = i as u64;
        match (&ev.kind, resp) {
            (RequestKind::Gate { gate, a, b }, Response::Bit(ct)) => {
                let t = ev.tenant % TFHE_TENANTS;
                let op = GateOp::ALL[gate % GateOp::ALL.len()];
                let bit = tr.span("tfhe.decrypt", req, || self.clients[t].decrypt_bit(ct));
                (bit == op.eval(*a, *b), None)
            }
            (RequestKind::TimedRotation { step, .. }, Response::Vector(ct)) => {
                self.verify_rotation(tr, ev.tenant % CKKS_TENANTS, i, *step, ct)
            }
            (RequestKind::BulkRotations { steps }, Response::Vector(ct)) => {
                self.verify_rotation(tr, ev.tenant % CKKS_TENANTS, i, steps.iter().sum(), ct)
            }
            _ => (false, None),
        }
    }

    fn verify_rotation(
        &self,
        tr: &Tracer,
        t: usize,
        i: usize,
        step: i64,
        ct: &Ciphertext,
    ) -> (bool, Option<f64>) {
        let (enc, dec) = &self.codecs[t];
        let got: Vec<Complex> = tr.span("ckks.decrypt", i as u64, || {
            dec.decrypt(ct, &self.secrets[t], enc)
        });
        let vals = &self.inputs[t][i % POOL].1;
        let slots = vals.len() as i64;
        let err = (0..slots)
            .map(|j| {
                let want = vals[(j + step).rem_euclid(slots) as usize];
                (got[j as usize].re - want).abs()
            })
            .fold(0.0f64, f64::max);
        (err <= ROTATE_TOLERANCE, Some(err))
    }
}

/// One submitted request.
struct Req {
    event: usize,
    id: Option<RequestId>,
    lane: Lane,
    due_s: f64,
    done_s: Option<f64>,
    /// Whether the decrypted result matched the plaintext result.
    ok: bool,
    hash: u64,
}

/// Completion detection from the audit log.
#[derive(Default)]
struct Tracker {
    seen: usize,
    dispatches: u64,
    /// `(group, request)` of completions whose group may still be in
    /// flight.
    waiting: Vec<(u64, u64)>,
}

impl Tracker {
    /// Request ids (raw) whose groups have executed since the last poll.
    fn poll(&mut self, svc: &ServiceCore) -> Vec<u64> {
        for ev in svc.audit().events().skip(self.seen) {
            self.seen += 1;
            match ev {
                AuditEvent::Dispatch { .. } => self.dispatches += 1,
                AuditEvent::Complete { group, request, .. } => {
                    self.waiting.push((*group, *request));
                }
                _ => {}
            }
        }
        // Groups retire oldest first, so every group but the newest
        // `in_flight_groups()` has executed.
        let retired = self.dispatches - svc.in_flight_groups() as u64;
        let mut done = Vec::new();
        self.waiting.retain(|&(g, r)| {
            if g < retired {
                done.push(r);
                false
            } else {
                true
            }
        });
        done
    }
}

/// Driver state of one replay.
struct Driver<'a> {
    fx: &'a Fixture,
    tr: &'a Tracer,
    svc: ServiceCore,
    events: &'a [TrafficEvent],
    reqs: Vec<Req>,
    by_id: HashMap<u64, usize>,
    tracker: Tracker,
    clock: Clock,
    inter: Interludes<'a>,
    depth_samples: Vec<f64>,
    in_flight_samples: Vec<f64>,
    dispatch_kernel_ns: u64,
    corrupt: Option<usize>,
    ckks_err: Vec<f64>,
}

impl<'a> Driver<'a> {
    fn submit(&mut self, due_s: f64) {
        let event = self.reqs.len();
        let (tenant, lane, work) = self.fx.request(event, &self.events[event]);
        let req = event as u64;
        let id = self
            .tr
            .span("service.submit", req, || self.svc.submit(tenant, work))
            .ok();
        if let Some(id) = id {
            self.by_id.insert(id.raw(), event);
        }
        self.reqs.push(Req {
            event,
            id,
            lane,
            due_s,
            done_s: None,
            ok: false,
            hash: 0,
        });
    }

    /// One step of service work: a dispatch decision while requests
    /// are queued, else retire the in-flight window. Returns false when
    /// the service is idle.
    fn step(&mut self) -> bool {
        let busy = self.svc.pending_total() > 0;
        if !busy && self.svc.in_flight_groups() == 0 {
            return false;
        }
        let k0 = CENSUS.total_ns();
        if busy {
            self.depth_samples.push(self.svc.pending_total() as f64);
            self.tr
                .span("service.dispatch", 0, || self.svc.dispatch_next());
            self.in_flight_samples
                .push(self.svc.in_flight_groups() as f64);
        } else {
            // Lanes are empty: this only retires the in-flight window.
            self.tr
                .span("service.dispatch", 0, || self.svc.run_until_idle());
        }
        self.dispatch_kernel_ns += CENSUS.total_ns() - k0;
        let now = self.clock.secs();
        for raw in self.tracker.poll(&self.svc) {
            let i = self.by_id[&raw];
            let id = self.reqs[i].id.expect("completed requests were admitted");
            let resp = self
                .tr
                .span("service.take_result", i as u64, || self.svc.take_result(id));
            self.reqs[i].done_s = Some(now);
            if let Some(mut resp) = resp {
                if self.corrupt == Some(i) {
                    corrupt(self.fx, &mut resp);
                }
                let (ok, err) = self.fx.verify(self.tr, i, &self.events[i], &resp);
                self.reqs[i].ok = ok;
                if let Some(err) = err {
                    self.ckks_err.push(err);
                }
                let mut h = Hasher::new();
                match &resp {
                    Response::Bit(ct) => h.lwe(ct),
                    Response::Vector(ct) => h.ckks(ct),
                };
                self.reqs[i].hash = h.finish();
            }
        }
        true
    }

    fn outstanding(&self) -> usize {
        self.reqs
            .iter()
            .filter(|r| r.id.is_some() && r.done_s.is_none())
            .count()
    }

    /// Keeps `outstanding` requests in the service until `seconds`,
    /// then drains it.
    fn run(&mut self, outstanding: usize, seconds: f64) {
        let mut in_service = 0usize;
        loop {
            let now = self.clock.secs();
            if now < seconds {
                while in_service < outstanding && self.reqs.len() < self.events.len() {
                    self.submit(now);
                    if self.reqs.last().is_some_and(|r| r.id.is_some()) {
                        in_service += 1;
                    }
                }
            }
            if !self.step() {
                break;
            }
            self.inter.poll(&mut self.clock);
            in_service = self.outstanding();
        }
    }
}

/// Replays `events` on a fresh service from `fx`, keeping `outstanding`
/// requests in it for `seconds` and running the interludes between its
/// steps; returns the driver's results and the service's audit
/// JSONL.
#[allow(clippy::too_many_arguments)]
fn replay<'a>(
    fx: &'a Fixture,
    svc: ServiceCore,
    tr: &'a Tracer,
    events: &'a [TrafficEvent],
    outstanding: usize,
    seconds: f64,
    corrupt: Option<usize>,
    inter: Interludes<'a>,
) -> (Driver<'a>, String) {
    let mut d = Driver {
        fx,
        tr,
        svc,
        events,
        reqs: Vec::new(),
        by_id: HashMap::new(),
        tracker: Tracker::default(),
        clock: Clock::start(),
        inter,
        depth_samples: Vec::new(),
        in_flight_samples: Vec::new(),
        dispatch_kernel_ns: 0,
        corrupt,
        ckks_err: Vec::new(),
    };
    d.run(outstanding, seconds);
    let audit = d.svc.audit().to_jsonl();
    (d, audit)
}

/// Runs `service_backlog`.
pub fn run(cfg: &RunCfg, tr: &Tracer) -> Outcome {
    let (mut fx, cold_s) = timed(|| Fixture::new(cfg.seed));
    let inter = Interludes::new(cfg.warm_setups, cfg.seconds, || Fixture::new(cfg.seed));
    // Far more arrivals than a window can serve.
    let events = stream(
        STREAM_SEED,
        CKKS_TENANTS,
        100_000,
        TrafficMix::default_mix(),
    );
    let svc = fx.service();
    let kernels0 = CENSUS.snapshot();
    let (mut d, audit) = replay(
        &fx,
        svc,
        tr,
        &events,
        cfg.outstanding,
        cfg.seconds,
        cfg.corrupt,
        inter,
    );
    let wall_s = d.clock.secs();
    d.inter.finish(&mut d.clock);
    let setup_s = [cold_s]
        .into_iter()
        .chain(d.inter.setups.iter().copied())
        .collect();
    let kernels = CENSUS.since(&kernels0);
    // The service's per-context evaluators start at zero when it is
    // built, so their counters are this replay's totals.
    let ops = [&fx.shared, &fx.solo]
        .into_iter()
        .filter_map(|ctx| d.svc.evaluator_for(ctx))
        .map(|e| e.counters().snapshot())
        .fold((0, 0, 0, 0, 0, 0), |a, b| {
            (
                a.0 + b.0,
                a.1 + b.1,
                a.2 + b.2,
                a.3 + b.3,
                a.4 + b.4,
                a.5 + b.5,
            )
        });

    let mut out = Outcome {
        setup_s,
        setup_probe_us: std::mem::take(&mut d.inter.setup_probe_us),
        probe_us: std::mem::take(&mut d.inter.probe_us),
        wall_s,
        kernels,
        ..Outcome::default()
    };
    out.ckks_err = std::mem::take(&mut d.ckks_err);
    let mut lanes = Lanes::default();
    for r in &d.reqs {
        out.attempted += 1;
        out.check(r.ok);
        out.hashes.push(r.hash);
        let Some(done) = r.done_s else { continue };
        out.units += 1;
        // Throughput counts what finished inside the window.
        if done <= cfg.seconds {
            out.done += 1;
            out.span_s = out.span_s.max(done);
        }
        // Latency counts every request submitted in the window, also
        // those finished in the drain after it: keeping only the ones
        // finished inside it would keep the fast requests submitted
        // near its end and drop the slow ones.
        let ms = (done - r.due_s) * 1e3;
        out.latencies_ms.push(ms);
        match r.lane {
            Lane::Interactive => lanes.interactive_ms.push(ms),
            Lane::Timed => lanes.timed_ms.push(ms),
            Lane::Bulk => lanes.bulk_ms.push(ms),
        }
    }
    out.lanes = Some(lanes);

    // The driver drains the service after the window, so the layer
    // totals cover every completed request.
    let per = out.units.max(1) as f64;
    out.layer.insert("ckks.ct_mults", ops.0 as f64 / per);
    out.layer.insert("ckks.rescales", ops.2 as f64 / per);
    out.layer.insert("ckks.keyswitches", ops.3 as f64 / per);
    out.layer.insert("ckks.galois_ops", ops.4 as f64 / per);
    audit_metrics(&d, &events, &mut out);
    out.layer
        .insert("service.queue_depth_mean", mean(&d.depth_samples));
    out.layer
        .insert("service.in_flight_mean", mean(&d.in_flight_samples));
    out.layer.insert(
        "service.key_cache_mb",
        d.svc.key_cache().used_bytes() as f64 / (1u64 << 20) as f64,
    );
    out.layer
        .insert("service.evictions", d.svc.key_cache().evictions() as f64);
    let dispatch_ns: u64 = tr.totals().get("service.dispatch").map_or(0, |t| t.ns);
    out.layer.insert(
        "service.dispatch.kernel_share",
        if dispatch_ns == 0 {
            0.0
        } else {
            d.dispatch_kernel_ns as f64 / dispatch_ns as f64
        },
    );
    out.audit_jsonl = Some(audit);
    out
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Per-lane jobs per dispatch, coalesced share, starvation, rejects and
/// Timed deadline misses, all read from the audit log.
fn audit_metrics(d: &Driver<'_>, events: &[TrafficEvent], out: &mut Outcome) {
    let mut jobs = [0u64; 3];
    let mut dispatches = [0u64; 3];
    let mut coalesced_jobs = 0u64;
    let mut all_jobs = 0u64;
    let mut starvation = 0u64;
    let mut rejects = 0u64;
    let mut admitted: HashMap<u64, u64> = HashMap::new();
    let mut completed: HashMap<u64, u64> = HashMap::new();
    for ev in d.svc.audit().events() {
        match ev {
            AuditEvent::Dispatch { lane, jobs: j, .. } => {
                jobs[lane.index()] += *j as u64;
                dispatches[lane.index()] += 1;
                all_jobs += *j as u64;
                if *j >= 2 {
                    coalesced_jobs += *j as u64;
                }
            }
            AuditEvent::Starvation { .. } => starvation += 1,
            AuditEvent::Reject { .. } => rejects += 1,
            AuditEvent::Admit { tick, request, .. } => {
                admitted.insert(*request, *tick);
            }
            AuditEvent::Complete { tick, request, .. } => {
                completed.insert(*request, *tick);
            }
            _ => {}
        }
    }
    for lane in Lane::ALL {
        let i = lane.index();
        let name = match lane {
            Lane::Interactive => "service.jobs_per_dispatch.interactive",
            Lane::Timed => "service.jobs_per_dispatch.timed",
            Lane::Bulk => "service.jobs_per_dispatch.bulk",
        };
        let v = if dispatches[i] == 0 {
            0.0
        } else {
            jobs[i] as f64 / dispatches[i] as f64
        };
        out.layer.insert(name, v);
    }
    out.layer.insert(
        "service.coalesced_share",
        if all_jobs == 0 {
            0.0
        } else {
            coalesced_jobs as f64 / all_jobs as f64
        },
    );
    out.layer
        .insert("service.starvation_events", starvation as f64);
    out.layer.insert("service.rejects", rejects as f64);
    let (mut timed, mut missed) = (0u64, 0u64);
    for r in &d.reqs {
        let (Some(id), RequestKind::TimedRotation { deadline, .. }) = (r.id, &events[r.event].kind)
        else {
            continue;
        };
        if let (Some(a), Some(c)) = (admitted.get(&id.raw()), completed.get(&id.raw())) {
            timed += 1;
            if c - a > *deadline {
                missed += 1;
            }
        }
    }
    out.layer.insert(
        "service.deadline_miss_ratio",
        if timed == 0 {
            0.0
        } else {
            missed as f64 / timed as f64
        },
    );
}

/// Corrupts a response so its check must fail: negating an LWE
/// ciphertext flips the decrypted bit, swapping a CKKS ciphertext's
/// components scrambles its decryption.
fn corrupt(fx: &Fixture, resp: &mut Response) {
    match resp {
        Response::Bit(ct) => ct.neg_assign(fx.clients[0].ctx.q()),
        Response::Vector(ct) => std::mem::swap(&mut ct.c0, &mut ct.c1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seconds: f64, corrupt: Option<usize>) -> RunCfg {
        RunCfg {
            seed: 5,
            seconds,
            outstanding: 16,
            warm_setups: 0,
            rows: 2,
            corrupt,
        }
    }

    #[test]
    fn driver_with_every_arrival_at_zero_matches_run_until_idle() {
        let seed = 5;
        let events = stream(seed, CKKS_TENANTS, 40, TrafficMix::default_mix());
        let tr = Tracer::new(false);

        let mut fx = Fixture::new(seed);
        let svc = fx.service();
        // Every request outstanding at once: all arrive at t = 0.
        let no_setups = Interludes::new(0, f64::INFINITY, || ());
        let (driven, driven_audit) = replay(
            &fx,
            svc,
            &tr,
            &events,
            events.len(),
            f64::INFINITY,
            None,
            no_setups,
        );
        assert_eq!(driven.reqs.len(), events.len());
        assert!(driven.reqs.iter().all(|r| r.ok), "every result checks out");

        let mut fx = Fixture::new(seed);
        let mut svc = fx.service();
        for (i, ev) in events.iter().enumerate() {
            let (tenant, _, work) = fx.request(i, ev);
            svc.submit(tenant, work).expect("admitted");
        }
        svc.run_until_idle();
        assert_eq!(driven_audit, svc.audit().to_jsonl());
    }

    #[test]
    fn a_corrupted_output_is_counted_as_failed() {
        let tr = Tracer::new(false);
        let clean = run(&small_cfg(1.0, None), &tr);
        assert!(clean.attempted > 4);
        assert_eq!(clean.failed, 0);
        // The drain finishes every request, and each one submitted in
        // the window has a latency, not only those finished inside it.
        assert_eq!(clean.units, clean.attempted);
        assert_eq!(clean.latencies_ms.len() as u64, clean.units);
        assert!(clean.done <= clean.units);
        let bad = run(&small_cfg(1.0, Some(3)), &tr);
        assert_eq!(bad.failed, 1);
        assert_eq!(bad.hashes[..3], clean.hashes[..3]);
    }
}
