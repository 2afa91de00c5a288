//! `train-sweep`: Fig 1 cells for all eight models on simulated METR-LA
//! at the quick preset's dataset scale and batch size (17 nodes), with a
//! fixed train-batch budget and the strided test split, on the
//! experiment scheduler with `nproc` jobs.
//!
//! `traffic_core::model_comparison` simulates its dataset with a fixed
//! seed, so the sweep is composed here from the same public steps it
//! runs (`simulate`, `prepare`, `GraphContext::from_network`,
//! `run_cells`, `train_model`, `predict`, `evaluate_horizons`) with the
//! dataset and initialisation seeds derived from the workload seed.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_core::{eval_split, predict, run_cells, set_jobs_override, train_model};
use traffic_core::{ExperimentScale, PreparedExperiment};
use traffic_data::{batches, dataset_info, prepare, simulate, SimConfig};
use traffic_metrics::{evaluate_horizons, PAPER_HORIZONS};
use traffic_models::{build_model, train_horizon, train_profile, GraphContext, TrainCtx};
use traffic_models::{LastValue, ALL_MODELS};
use traffic_nn::loss::{masked_mae, null_mask};
use traffic_nn::Adam;
use traffic_tensor::Tape;

use crate::report::Report;
use crate::stats::{geomean_of_percentiles, median};
use crate::trace::{timed, OpRecorder};
use crate::{mix_seed, DESIGN_SECONDS};

/// Sweeps per run. `p50_ms` and `tail_ms.loaded` pool every round's
/// steps per model (3 × 17 = 51 for most models, enough for a p75), and
/// `goodput_per_s` is a median over rounds.
const ROUNDS: usize = 3;
/// Train batches per epoch and sweep at the design run length; a shorter
/// run keeps them, so that every model has the 40 steps its p75 needs.
const TRAIN_BATCHES: usize = 17;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Forecast steps.
const T_OUT: usize = 12;
/// Measured steps per model in the traced train-step split.
const SPLIT_STEPS: usize = 3;

/// Per-cell result: MAE per horizon, training samples seen, and the
/// cell's train-step times.
struct Cell {
    mae: Vec<f32>,
    finite: bool,
    samples: usize,
    step_ms: Vec<f64>,
}

/// One timed sweep.
struct Sweep {
    cells: Vec<Result<Cell, String>>,
    wall_s: f64,
    cell_busy_s: f64,
}

fn scale(seconds: u64) -> ExperimentScale {
    let scaled = (TRAIN_BATCHES as f64 * seconds as f64 / DESIGN_SECONDS).round() as usize;
    let budget = scaled.max(TRAIN_BATCHES);
    ExperimentScale { epochs: 1, max_train_batches: Some(budget), ..ExperimentScale::quick() }
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) -> Result<(), String> {
    let scale = scale(seconds);
    let info = dataset_info("METR-LA").ok_or("METR-LA missing from the catalog")?;
    let sim = SimConfig::for_dataset(info, scale.dataset_scale).with_seed(mix_seed(seed, 1));

    // Set-up: simulate, window, graph matrices, several times.
    let (mut sim_s, mut prep_s, mut ctx_s, mut total_s) = (vec![], vec![], vec![], vec![]);
    let mut exp = None;
    for _ in 0..SETUP_REPS {
        let (dataset, a) = timed(|| simulate(&sim));
        let (data, b) = timed(|| prepare(&dataset, 12, T_OUT));
        let (ctx, c) = timed(|| GraphContext::from_network(&dataset.network, 8));
        sim_s.push(a);
        prep_s.push(b);
        ctx_s.push(c);
        total_s.push(a + b + c);
        exp = Some(PreparedExperiment { dataset, data, ctx });
    }
    let exp = exp.expect("at least one set-up");
    report.set_n("setup_s", median(&total_s).unwrap_or_default(), SETUP_REPS);
    report.set("data.simulate_s", median(&sim_s).unwrap_or_default());
    report.set("data.prepare_s", median(&prep_s).unwrap_or_default());
    report.set("graph.context_s", median(&ctx_s).unwrap_or_default());

    let test = eval_split(&exp.data.test, &scale);
    let persistence = predict(&LastValue::new(T_OUT), &test, &exp.data.scaler, scale.batch_size);
    let base = evaluate_horizons(&persistence, &test.y_raw, &PAPER_HORIZONS, None);
    let jobs = crate::loadgen::nproc();
    set_jobs_override(Some(jobs));

    // Untraced rounds first on a traced run: the reference for the
    // tracing overhead.
    let reference: Vec<f64> = if trace {
        (0..ROUNDS)
            .map(|k| sweep(&exp, &test, &scale, mix_seed(seed, 2 + k as u64)).wall_s)
            .collect()
    } else {
        Vec::new()
    };
    let recorder = trace.then(OpRecorder::start);
    let rounds: Vec<Sweep> =
        (0..ROUNDS).map(|k| sweep(&exp, &test, &scale, mix_seed(seed, 2 + k as u64))).collect();
    let ops = recorder.map(OpRecorder::stop).unwrap_or_default();

    // Correctness, outcome counts, and quality relative to persistence
    // on the same test windows (so it does not swing with how hard each
    // seed's series is).
    let mut rel = Vec::new();
    let mut model_steps = vec![Vec::new(); ALL_MODELS.len()];
    let mut goodput = Vec::new();
    for sw in &rounds {
        let mut samples = 0usize;
        for (mi, (m, cell)) in ALL_MODELS.iter().zip(&sw.cells).enumerate() {
            report.attempted += 1;
            match cell {
                Ok(c) if c.finite => {
                    rel.extend(c.mae.iter().zip(&base).map(|(m, b)| (*m / b.mae) as f64));
                    samples += c.samples;
                    model_steps[mi].extend(&c.step_ms);
                }
                Ok(_) => {
                    report.failed += 1;
                    report.problem(format!("{m}: a sweep row is not finite"));
                }
                Err(reason) => {
                    report.failed += 1;
                    report.problem(format!("{m}: sweep cell failed: {reason}"));
                }
            }
        }
        goodput.push(samples as f64 / sw.wall_s);
    }
    let med = |v: &[f64]| median(v).unwrap_or_default();
    let steps: usize = model_steps.iter().map(Vec::len).sum();
    let ok = report.attempted - report.failed;
    report.set("ok_ratio", ok as f64 / report.attempted as f64);
    report.set_n("p50_ms", geomean_of_percentiles(&model_steps, 0.5)?, steps);
    report.set_n("tail_ms.loaded", geomean_of_percentiles(&model_steps, 0.75)?, steps);
    report.set_n("goodput_per_s", med(&goodput), ROUNDS);
    report.set_n("test_mae_rel", rel.iter().sum::<f64>() / rel.len().max(1) as f64, rel.len());

    if trace {
        for m in ALL_MODELS {
            let (f, b, o) = step_split(m, &exp, &scale, mix_seed(seed, 2));
            report.set(format!("models.{m}.fwd_ms"), f);
            report.set(format!("tensor.{m}.bwd_ms"), b);
            report.set(format!("nn.{m}.optim_ms"), o);
        }
        crate::set_op_totals(report, &ops);
        let busy: f64 = rounds.iter().map(|r| r.cell_busy_s).sum();
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        report.set("core.sched_busy", busy / (wall * jobs as f64));
        let traced = med(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let untraced = med(&reference);
        report.set("obs.trace_overhead_pct", 100.0 * (traced - untraced) / untraced);
        crate::zero_missing_per_layer(report);
    }
    Ok(())
}

/// Runs every model's cell on the scheduler and times it.
fn sweep(
    exp: &PreparedExperiment,
    test: &traffic_data::WindowedData,
    scale: &ExperimentScale,
    init_seed: u64,
) -> Sweep {
    let busy0 = traffic_obs::histogram("sched/cell_s").sum();
    let per_epoch =
        (scale.max_train_batches.unwrap_or(usize::MAX).saturating_mul(scale.batch_size))
            .min(exp.data.train.len());
    let cells: Vec<(String, _)> = ALL_MODELS
        .iter()
        .map(|&m| {
            (format!("perfbench/train-sweep/{m}"), move || {
                // The trainer's own `train/batch` spans on this cell's
                // thread are its steps.
                let marker = traffic_obs::span_marker();
                let thread = traffic_obs::current_thread_id();
                let (model, report) = train_model(m, exp, scale, init_seed);
                let step_ms = traffic_obs::spans_since(marker)
                    .iter()
                    .filter(|s| s.name == "train/batch" && s.thread == thread)
                    .map(|s| s.dur.as_secs_f64() * 1e3)
                    .collect();
                let pred = predict(model.as_ref(), test, &exp.data.scaler, scale.batch_size);
                let metrics = evaluate_horizons(&pred, &test.y_raw, &PAPER_HORIZONS, None);
                let finite = metrics
                    .iter()
                    .all(|s| s.mae.is_finite() && s.rmse.is_finite() && s.mape.is_finite());
                Cell {
                    mae: metrics.iter().map(|s| s.mae).collect(),
                    finite,
                    samples: report.epoch_times.len() * per_epoch,
                    step_ms,
                }
            })
        })
        .collect();
    let start = Instant::now();
    let outcomes = run_cells("perfbench", cells);
    let wall_s = start.elapsed().as_secs_f64();
    let cells: Vec<Result<Cell, String>> = outcomes.into_iter().map(|o| o.result).collect();
    Sweep { cells, wall_s, cell_busy_s: traffic_obs::histogram("sched/cell_s").sum() - busy0 }
}

/// Median forward, backward and optimizer milliseconds of one model's
/// train step at the sweep's shape, driven through the model's forward,
/// `Tape::backward` and `Adam::step` on the calling thread.
fn step_split(
    m: &str,
    exp: &PreparedExperiment,
    scale: &ExperimentScale,
    seed: u64,
) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = build_model(m, &exp.ctx, &mut rng);
    let store = model.store();
    let mut opt = Adam::new(train_profile(m).lr);
    let horizon = train_horizon(m, exp.data.t_out);
    let mut tape = Tape::new();
    let (mut f, mut b, mut o) = (vec![], vec![], vec![]);
    // The first step warms buffers and is not counted.
    for (i, batch) in batches(&exp.data.train, scale.batch_size, None::<&mut StdRng>)
        .take(SPLIT_STEPS + 1)
        .enumerate()
    {
        tape.reset();
        let x = tape.constant(batch.x.clone());
        let y_norm = batch.y_norm.narrow(1, 0, horizon);
        let y_raw = batch.y_raw.narrow(1, 0, horizon);
        let mut tctx = TrainCtx { rng: &mut rng, teacher: Some(&batch.y_norm), teacher_prob: 0.5 };
        let (pred, tf) = timed(|| model.forward(&tape, x, Some(&mut tctx)));
        let mask = null_mask(&y_raw, 1e-3);
        let loss = masked_mae(&tape, pred, &y_norm, &mask);
        let (grads, tb) = timed(|| tape.backward(loss));
        let (_, to) = timed(|| {
            store.zero_grads();
            store.capture_grads(&tape, &grads);
            store.clip_grad_norm(5.0);
            opt.step(store);
        });
        if i > 0 {
            f.push(tf * 1e3);
            b.push(tb * 1e3);
            o.push(to * 1e3);
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or_default();
    (med(&f), med(&b), med(&o))
}
