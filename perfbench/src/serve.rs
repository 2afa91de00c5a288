//! `serve-large`: the eight models in turn, each as a 207-node (full
//! METR-LA) snapshot behind a fresh in-process `Engine` and `HttpServer`.
//! Each model gets three open-loop phases:
//!
//! - light: one connection at a fixed low rate, a fixed number of
//!   requests;
//! - loaded: `min(2, nproc)` connections at a fixed rate, a fixed
//!   number of requests, each request's deadline equal to the latency
//!   limit;
//! - reload: the loaded rate again, with connection 0 POSTing `/reload`
//!   once, with a second snapshot file.
//!
//! A model's engine and server are dropped before the next model is set
//! up, so only the measured model's threads are alive. Rates are fixed
//! per model in `RATES` and never derived at run time.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traffic_data::{simulate, SimConfig, Task};
use traffic_graph::freeway_corridor;
use traffic_models::{GraphContext, STEPS_PER_DAY};
use traffic_serve::{export_fresh, Engine, EngineConfig, HttpServer, ServeRequest};
use traffic_serve::{ServeResponse, ServeSnapshot};
use traffic_tensor::{Tape, Tensor};

use crate::loadgen::{self, Op, Sample, Slot};
use crate::report::Report;
use crate::stats::{
    effective_latency_ms, geomean_of_percentiles, median, meets_limit, percentile, Answer,
};
use crate::trace::{timed, OpRecorder, OpTotals};
use crate::{mix_seed, DESIGN_SECONDS};

/// Fixed load for one model.
struct Rate {
    /// Model name.
    model: &'static str,
    /// Light phase: milliseconds between sends on its one connection.
    light_interval_ms: u64,
    /// Loaded and reload phases: requests per second over all
    /// connections.
    loaded_qps: f64,
}

const fn rate(model: &'static str, light_interval_ms: u64, loaded_qps: f64) -> Rate {
    Rate { model, light_interval_ms, loaded_qps }
}

/// Per-model rates, in `ALL_MODELS` order. With a one-thread compute
/// pool a light request takes 12 ms (STG2Seq) to 100 ms (GMAN) at this
/// size, about 10 ms of it HTTP. A light interval is at least 2.5 light
/// latencies, so a send is not held back by the one before it even when
/// the host runs every forward half as fast again. The loaded rates keep
/// each model's worker about 35% busy; sends are at least three quarters
/// of a period apart, so a request queues behind the one before it only
/// when a forward takes twice as long as usual.
const RATES: [Rate; 8] = [
    rate("STGCN", 160, 6.0),
    rate("DCRNN", 80, 13.0),
    rate("ASTGCN", 50, 25.0),
    rate("ST-MetaNet", 150, 6.5),
    rate("Graph-WaveNet", 60, 17.5),
    rate("STG2Seq", 40, 50.0),
    rate("STSGCN", 50, 29.0),
    rate("GMAN", 250, 3.7),
];

/// Sensors per snapshot.
const NODES: usize = 207;
/// Light-phase requests per model, at the design run length: a median
/// needs ten samples beyond it.
const LIGHT_SAMPLES: usize = 30;
/// Loaded-phase requests per model, at the design run length: a p75
/// needs ten samples beyond it.
const LOADED_SAMPLES: usize = 40;
/// Reload phase seconds per model, at the design run length: about 140
/// predicts over the eight models, enough for their p90.
const RELOAD_S: f64 = 1.5;
/// Latency limit, also sent as every request's deadline.
const LIMIT_MS: u64 = 3000;
/// Connection 0 POSTs `/reload` at this share of the reload phase and
/// sends no more predicts in it, so the reload never makes it late; the
/// other connection's requests queue behind the reload.
const RELOAD_AT: f64 = 0.25;

/// The request corpus and the snapshots are the same for every run, so
/// `test_mae_rel` compares like with like; the workload seed drives the
/// order in which windows are sent and the arrival jitter.
const CORPUS_SEED: u64 = 20_210_419;
const SNAPSHOT_SEED: u64 = 7;

const T_IN: usize = 12;
const T_OUT: usize = 12;
/// Distinct request windows per run.
const WINDOWS: usize = 256;

/// Request windows cut from a simulated series, with their futures.
struct Windows {
    window: Vec<Vec<f32>>,
    tod: Vec<f32>,
    truth: Vec<Vec<f32>>,
}

fn make_windows(nodes: usize) -> (Windows, f64) {
    let cfg = SimConfig::new("serve", Task::Speed, nodes, 7).with_seed(CORPUS_SEED);
    let (ds, secs) = timed(|| simulate(&cfg));
    let vals = ds.values.as_slice();
    let steps = ds.num_steps();
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    let mut w = Windows { window: vec![], tod: vec![], truth: vec![] };
    let span = (steps - T_IN - T_OUT) as f64 / WINDOWS as f64;
    for k in 0..WINDOWS {
        // Stratified starts: one window per equal slice of the series.
        let s = ((k as f64 + rng.gen_range(0.0..1.0)) * span) as usize;
        w.window.push(vals[s * nodes..(s + T_IN) * nodes].to_vec());
        w.truth.push(vals[(s + T_IN) * nodes..(s + T_IN + T_OUT) * nodes].to_vec());
        w.tod.push((s % STEPS_PER_DAY) as f32 / STEPS_PER_DAY as f32);
    }
    (w, secs)
}

/// A running model: HTTP front-end, engine, and its snapshot. Dropping
/// it joins the server's threads, then the engine's worker.
struct Live {
    server: HttpServer,
    engine: Arc<Engine>,
    snap: ServeSnapshot,
}

impl Live {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Export → `Engine::start_from_path` → bind → first `OK` answer.
fn setup_one(model: &str, path: &Path, probe_body: &str) -> Result<(Live, f64), String> {
    let (live, secs) = timed(|| -> Result<Live, String> {
        let snap = export_fresh(model, NODES, SNAPSHOT_SEED);
        snap.save(path).map_err(|e| format!("{model}: export failed: {e}"))?;
        let engine = Engine::start_from_path(path, EngineConfig::default())
            .map_err(|e| format!("{model}: engine start failed: {e}"))?;
        let engine = Arc::new(engine);
        let server = HttpServer::start("127.0.0.1:0", Arc::clone(&engine))
            .map_err(|e| format!("{model}: bind failed: {e}"))?;
        let mut first = loadgen::predict(server.addr(), probe_body);
        for _ in 0..20 {
            if first.is_ok() {
                break;
            }
            first = loadgen::predict(server.addr(), probe_body);
        }
        if !first.is_ok() {
            return Err(format!("{model}: no OK answer after set-up: {first:?}"));
        }
        Ok(Live { server, engine, snap })
    });
    Ok((live?, secs))
}

/// Writes the model's reload target, its snapshot with the weights
/// scaled by 1.001 so the reload is a real swap, and returns the
/// `/reload` body naming it.
fn reload_target(live: &Live, scratch: &Path) -> Result<String, String> {
    let mut snap = live.snap.clone();
    for (_, t) in snap.weights.iter_mut() {
        *t = t.map(|v| v * 1.001);
    }
    let path = scratch.join(format!("{}-nudged.tnn2", snap.model));
    snap.save(&path).map_err(|e| format!("{}: cannot write {path:?}: {e}", snap.model))?;
    Ok(format!("{{\"path\":\"{}\"}}", path.display()))
}

/// Figures pooled over the whole run.
#[derive(Default)]
struct Acc {
    setup_s: f64,
    /// Light-phase latencies, per model.
    light_ms: Vec<Vec<f64>>,
    /// Untraced light-phase latencies of a traced run, per model.
    untraced_ms: Vec<Vec<f64>>,
    /// In-process `Engine::predict` times, per model.
    engine_ms: Vec<Vec<f64>>,
    /// Loaded-phase predict latencies, per model.
    loaded_ms: Vec<Vec<f64>>,
    /// Reload-phase predict latencies, all models.
    reload_phase_ms: Vec<f64>,
    /// Loaded- and reload-phase predicts answered OK within the limit.
    good: usize,
    /// Loaded- and reload-phase wall seconds.
    loaded_wall_s: f64,
    late_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    abs_err: f64,
    base_err: f64,
    err_count: usize,
    shed: u64,
    timeout: u64,
    error: u64,
    reload_failures: u64,
    ops: OpTotals,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    instantiate_ms: Vec<f64>,
    forward_b1_ms: Vec<f64>,
    forward_b2_ms: Vec<f64>,
    context_s: Vec<f64>,
}

/// Runs `serve-large` and fills `report`.
pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    report: &mut Report,
    scratch: &Path,
) -> Result<(), String> {
    let f = seconds as f64 / DESIGN_SECONDS;
    let (w, sim_s) = make_windows(NODES);
    let probe_body = loadgen::predict_body(&w.window[0], w.tod[0], None);
    let mut acc = Acc::default();

    for (mi, r) in RATES.iter().enumerate() {
        // Set-up, once per model: at this size one costs about 1.25 s,
        // and the eight are summed.
        let (live, secs) =
            setup_one(r.model, &scratch.join(format!("{}.tnn2", r.model)), &probe_body)?;
        acc.setup_s += secs;
        let reload_body = reload_target(&live, scratch)?;
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, mi as u64));
        let light = light_schedule(r, scaled(LIGHT_SAMPLES, f), &w, &mut rng);
        let loaded = loaded_schedule(r, scaled(LOADED_SAMPLES, f), &w, None, &mut rng);
        let reload_n = (RELOAD_S * f * r.loaded_qps).floor() as usize;
        let reloading = loaded_schedule(r, reload_n, &w, Some(&reload_body), &mut rng);
        if trace {
            // Untraced light pass: the reference for the tracing overhead.
            let samples = loadgen::run(live.addr(), &light);
            acc.untraced_ms.push(latencies(samples.iter()));
        }
        let recorder = trace.then(OpRecorder::start);
        let phases = [&light, &loaded, &reloading].map(|s| loadgen::run(live.addr(), s));
        if let Some(recorder) = recorder {
            acc.ops.add(&recorder.stop());
        }
        for samples in &phases {
            tally(r.model, &w, samples, report, &mut acc);
        }
        let [light_samples, loaded_samples, reload_samples] = phases;
        acc.light_ms.push(latencies(light_samples.iter()));
        acc.loaded_ms.push(latencies(loaded_samples.iter()));
        acc.late_ms.extend(loaded_samples.iter().map(|s| s.late_ms));
        acc.reload_phase_ms.extend(latencies(reload_samples.iter().filter(|s| !s.reload)));
        for samples in [&loaded_samples, &reload_samples] {
            acc.good += samples
                .iter()
                .filter(|s| !s.reload && meets_limit(&s.answer, s.latency_ms, LIMIT_MS as f64))
                .count();
            acc.loaded_wall_s += samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
        }

        check_probe(r.model, &live, &w, report);
        let status = live.engine.status();
        if status.state != "HEALTHY" || status.reload_failures != 0 || status.reloads != 1 {
            report.problem(format!(
                "{}: engine ends {} with {} reloads ({} rejected), want HEALTHY with 1",
                r.model, status.state, status.reloads, status.reload_failures
            ));
        }
        if trace {
            // In-process predicts on the windows the light phase sent.
            let mut engine_ms = Vec::new();
            for s in &light_samples {
                let req = request(&w, s.window, Some(LIMIT_MS));
                let (resp, secs) = timed(|| live.engine.predict(req));
                if matches!(resp, ServeResponse::Ok(_)) {
                    engine_ms.push(secs * 1e3);
                }
            }
            acc.engine_ms.push(engine_ms);
            layer_split(&live.snap, &w, &mut acc).map_err(|e| format!("{}: {e}", r.model))?;
        }
        drop(live);
    }

    let light_p50 = geomean_of_percentiles(&acc.light_ms, 0.5)?;
    let light_n: usize = acc.light_ms.iter().map(Vec::len).sum();
    report.set_n("setup_s", acc.setup_s, RATES.len());
    let ok = report.attempted - report.failed;
    report.set("ok_ratio", ok as f64 / report.attempted.max(1) as f64);
    report.set_n("p50_ms", light_p50, light_n);
    let loaded_n: usize = acc.loaded_ms.iter().map(Vec::len).sum();
    report.set_n("tail_ms.loaded", geomean_of_percentiles(&acc.loaded_ms, 0.75)?, loaded_n);
    report.set_n("goodput_per_s", acc.good as f64 / acc.loaded_wall_s, acc.good);
    report.set_n("test_mae_rel", acc.abs_err / acc.base_err, acc.err_count);

    if trace {
        let med = |v: &[f64]| median(v).unwrap_or_default();
        report.set("data.simulate_s", sim_s);
        report.set("graph.context_s", med(&acc.context_s));
        crate::set_op_totals(report, &acc.ops);
        report.set("serve.forward_ms.b1", mean(&acc.forward_b1_ms));
        report.set("serve.forward_ms.b2", mean(&acc.forward_b2_ms));
        for (r, v) in RATES.iter().zip(&acc.light_ms) {
            report.set_n(format!("serve.{}.p50_ms", r.model), percentile(v, 0.5)?, v.len());
        }
        let engine_p50 = geomean_of_percentiles(&acc.engine_ms, 0.5)?;
        let engine_n = acc.engine_ms.iter().map(Vec::len).sum();
        report.set_n("serve.engine_ms.p50", engine_p50, engine_n);
        // The HTTP share is taken from the untraced light passes, so the
        // split adds back to an untraced `p50_ms`.
        let untraced_p50 = geomean_of_percentiles(&acc.untraced_ms, 0.5)?;
        report.set("serve.http_ms.p50", untraced_p50 - engine_p50);
        report.set("serve.snapshot.encode_ms", mean(&acc.encode_ms));
        report.set("serve.snapshot.decode_ms", mean(&acc.decode_ms));
        report.set("serve.snapshot.instantiate_ms", mean(&acc.instantiate_ms));
        report.set_n("serve.reload_ms", med(&acc.reload_ms), acc.reload_ms.len());
        let stall = percentile(&acc.reload_phase_ms, 0.90)?;
        report.set_n("serve.reload_phase.p90_ms", stall, acc.reload_phase_ms.len());
        report.set("serve.shed", acc.shed as f64);
        report.set("serve.timeout", acc.timeout as f64);
        report.set("serve.error", acc.error as f64);
        report.set("serve.reload_failures", acc.reload_failures as f64);
        report.set_n("loadgen.late_ms.p95", percentile(&acc.late_ms, 0.95)?, acc.late_ms.len());
        report.set("obs.trace_overhead_pct", 100.0 * (light_p50 - untraced_p50) / untraced_p50);
        crate::zero_missing_per_layer(report);
    }
    Ok(())
}

/// Latencies counted against the limit: a refused or failed request is
/// `+inf`.
fn latencies<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| effective_latency_ms(&s.answer, s.latency_ms)).collect()
}

/// Counts outcomes, checks every `OK` answer, and accumulates the error
/// of every answered predict against the simulated future.
fn tally(m: &str, w: &Windows, samples: &[Sample], report: &mut Report, acc: &mut Acc) {
    for s in samples {
        report.attempted += 1;
        match &s.answer {
            Answer::Ok(_) if s.reload => acc.reload_ms.push(s.latency_ms),
            Answer::Ok(pred) => {
                if pred.len() != T_OUT * NODES || pred.iter().any(|v| !v.is_finite()) {
                    report.problem(format!(
                        "{m}: OK answer has {} values (want {}) or a non-finite one",
                        pred.len(),
                        T_OUT * NODES
                    ));
                    continue;
                }
                let last = &w.window[s.window][(T_IN - 1) * NODES..];
                for (i, (p, t)) in pred.iter().zip(&w.truth[s.window]).enumerate() {
                    if *t != 0.0 {
                        acc.abs_err += (p - t).abs() as f64;
                        acc.base_err += (last[i % NODES] - t).abs() as f64;
                        acc.err_count += 1;
                    }
                }
            }
            Answer::Refused(status) => {
                report.failed += 1;
                match status.as_str() {
                    "SHED" => acc.shed += 1,
                    "TIMEOUT" => acc.timeout += 1,
                    _ if s.reload => acc.reload_failures += 1,
                    _ => acc.error += 1,
                }
            }
            Answer::Transport(_) => {
                report.failed += 1;
                if s.reload {
                    acc.reload_failures += 1;
                } else {
                    acc.error += 1;
                }
            }
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn request(w: &Windows, i: usize, deadline_ms: Option<u64>) -> ServeRequest {
    let deadline_ns = match deadline_ms {
        Some(ms) => traffic_obs::elapsed_ns().saturating_add(ms * 1_000_000),
        None => u64::MAX,
    };
    ServeRequest { window: w.window[i].clone(), tod: w.tod[i], deadline_ns }
}

fn predict_slot(w: &Windows, i: usize, due: Duration, deadline_ms: u64) -> Slot {
    let body = loadgen::predict_body(&w.window[i], w.tod[i], Some(deadline_ms));
    Slot { due, op: Op::Predict { window: i, body } }
}

/// Due time of the `i`-th send at `period_s` spacing, pushed back by a
/// seeded fraction of up to a quarter period, so the schedule does not
/// lock phase with any periodic timer in the server and sends stay at
/// least three quarters of a period apart.
fn jittered(i: usize, period_s: f64, rng: &mut StdRng) -> Duration {
    Duration::from_secs_f64((i as f64 + 0.25 * rng.gen_range(0.0..1.0)) * period_s)
}

/// `samples` scaled to the run length, never fewer: the figures taken
/// from them need that many.
fn scaled(samples: usize, f: f64) -> usize {
    ((samples as f64 * f).round() as usize).max(samples)
}

/// `count` sends on one connection at the light interval.
fn light_schedule(r: &Rate, count: usize, w: &Windows, rng: &mut StdRng) -> Vec<Vec<Slot>> {
    let period_s = r.light_interval_ms as f64 * 1e-3;
    let off = rng.gen_range(0..WINDOWS);
    let slots = (0..count)
        .map(|j| predict_slot(w, (j * 7 + off) % WINDOWS, jittered(j, period_s, rng), LIMIT_MS))
        .collect();
    vec![slots]
}

/// `count` sends at the loaded rate; with a `/reload` body, connection 0
/// sends the reload at [`RELOAD_AT`] of the phase and no predicts after
/// it.
fn loaded_schedule(
    r: &Rate,
    count: usize,
    w: &Windows,
    reload_body: Option<&str>,
    rng: &mut StdRng,
) -> Vec<Vec<Slot>> {
    let conns = loadgen::nproc().min(2);
    let reload_s = RELOAD_AT * count as f64 / r.loaded_qps;
    let off = rng.gen_range(0..WINDOWS);
    let mut out: Vec<Vec<Slot>> = vec![Vec::new(); conns];
    for i in 0..count {
        let due = jittered(i, 1.0 / r.loaded_qps, rng);
        let conn = i % conns;
        if conn == 0 && reload_body.is_some() && due.as_secs_f64() >= reload_s {
            continue;
        }
        out[conn].push(predict_slot(w, (i * 5 + 3 + off) % WINDOWS, due, LIMIT_MS));
    }
    if let Some(body) = reload_body {
        let reload = Op::Reload { body: body.into() };
        out[0].push(Slot { due: Duration::from_secs_f64(reload_s), op: reload });
    }
    out
}

/// A fixed probe window must get a bit-identical answer over HTTP and
/// from in-process `Engine::predict`.
fn check_probe(m: &str, live: &Live, w: &Windows, report: &mut Report) {
    let body = loadgen::predict_body(&w.window[0], w.tod[0], None);
    let http = loadgen::predict(live.addr(), &body);
    let local = live.engine.predict(request(w, 0, None));
    match (&http, &local) {
        (Answer::Ok(a), ServeResponse::Ok(b)) => {
            let same =
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            if !same {
                report.problem(format!("{m}: probe answer over HTTP differs from Engine::predict"));
            }
        }
        _ => report
            .problem(format!("{m}: probe not OK (http {http:?}, in-process {})", local.status())),
    }
}

/// Traced layer split on the calling thread: snapshot encode, decode
/// and instantiate, graph matrices, and batched forwards of 1 and 2.
fn layer_split(snap: &ServeSnapshot, w: &Windows, acc: &mut Acc) -> Result<(), String> {
    let (bytes, enc) = timed(|| snap.encode());
    let (decoded, dec) = timed(|| ServeSnapshot::decode(&bytes));
    let decoded = decoded.map_err(|e| format!("{}: decode failed: {e}", snap.model))?;
    let (loaded, inst) = timed(|| decoded.instantiate());
    let loaded = loaded.map_err(|e| format!("{}: instantiate failed: {e}", snap.model))?;
    acc.encode_ms.push(enc * 1e3);
    acc.decode_ms.push(dec * 1e3);
    acc.instantiate_ms.push(inst * 1e3);

    let mut rng = StdRng::seed_from_u64(snap.seed);
    let net = freeway_corridor(snap.n, 1.0, &mut rng);
    let (_, ctx) = timed(|| GraphContext::from_network(&net, snap.se_dim));
    acc.context_s.push(ctx);

    let mut tape = Tape::new();
    for (b, out) in [(1usize, &mut acc.forward_b1_ms), (2, &mut acc.forward_b2_ms)] {
        let x = pack(snap, w, b);
        let mut times = Vec::new();
        for _ in 0..3 {
            let (_, secs) = timed(|| loaded.forward_batch(&mut tape, x.clone()));
            times.push(secs * 1e3);
        }
        out.push(median(&times).unwrap_or_default());
    }
    Ok(())
}

/// The engine's input layout: `[B, t_in, n, 2]`, z-scored value and an
/// advancing time-of-day channel.
fn pack(snap: &ServeSnapshot, w: &Windows, b: usize) -> Tensor {
    let (n, t_in) = (snap.n, snap.t_in);
    let steps = STEPS_PER_DAY as f32;
    let mut x = Vec::with_capacity(b * t_in * n * 2);
    for k in 0..b {
        for t in 0..t_in {
            let tod = (w.tod[k] + t as f32 / steps).fract();
            for i in 0..n {
                x.push((w.window[k][t * n + i] - snap.mean) / snap.std);
                x.push(tod);
            }
        }
    }
    Tensor::from_vec(x, &[b, t_in, n, 2])
}
