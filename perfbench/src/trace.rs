//! Timing of calls into each layer, and the op-category readout of the
//! existing `traffic_obs::profile` recorder.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::PROFILE_CATEGORIES;

/// Runs `f` and returns its result with its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Op-category totals read from `traffic_obs::profile` after a traced
/// section: self seconds per category and GEMM gigaflops.
#[derive(Debug, Default, Clone)]
pub struct OpTotals {
    /// Self seconds by category.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Flops attributed to `gemm` ops, in units of 1e9.
    pub gemm_gflop: f64,
    /// Records the recorder had to drop (its per-thread cap was hit).
    pub dropped: u64,
}

impl OpTotals {
    /// Adds another section's totals.
    pub fn add(&mut self, other: &OpTotals) {
        for (cat, s) in &other.self_s {
            *self.self_s.entry(cat).or_default() += s;
        }
        self.gemm_gflop += other.gemm_gflop;
        self.dropped += other.dropped;
    }
}

/// How often the recorder's per-thread buffers are folded into the
/// totals and emptied, so no thread reaches the recorder's cap.
const DRAIN_EVERY: Duration = Duration::from_millis(200);

/// Runs the `traffic_obs::profile` op recorder over a traced section. A
/// drain thread folds the buffers into running totals every
/// [`DRAIN_EVERY`]; records finished between a drain's read and its
/// clear are lost (a window of microseconds per drain).
pub struct OpRecorder {
    stop: Arc<AtomicBool>,
    totals: Arc<Mutex<OpTotals>>,
    drain: Option<JoinHandle<()>>,
}

impl OpRecorder {
    /// Clears earlier records and starts recording.
    pub fn start() -> Self {
        traffic_obs::profile::start();
        let stop = Arc::new(AtomicBool::new(false));
        let totals = Arc::new(Mutex::new(OpTotals::default()));
        let drain = {
            let (stop, totals) = (Arc::clone(&stop), Arc::clone(&totals));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(DRAIN_EVERY);
                    drain_into(&mut totals.lock().expect("op totals poisoned"));
                }
            })
        };
        OpRecorder { stop, totals, drain: Some(drain) }
    }

    /// Stops recording and returns everything recorded since `start`.
    pub fn stop(mut self) -> OpTotals {
        traffic_obs::profile::stop();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.drain.take() {
            h.join().expect("op drain thread panicked");
        }
        let mut totals = self.totals.lock().expect("op totals poisoned").clone();
        drain_into(&mut totals);
        totals
    }
}

fn drain_into(totals: &mut OpTotals) {
    for cat in PROFILE_CATEGORIES {
        totals.self_s.entry(cat).or_insert(0.0);
    }
    totals.dropped += traffic_obs::profile::snapshot().iter().map(|t| t.dropped).sum::<u64>();
    for stat in traffic_obs::profile::flame_table() {
        if let Some(v) = totals.self_s.get_mut(stat.cat) {
            *v += stat.self_ns as f64 * 1e-9;
        }
        if stat.cat == "gemm" {
            totals.gemm_gflop += stat.flops as f64 * 1e-9;
        }
    }
    traffic_obs::profile::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_the_result_and_a_duration() {
        let (v, secs) = timed(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.002, "{secs}");
    }
}
