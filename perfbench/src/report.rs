//! The declared metric sets and the result line.
//!
//! Every workload emits every end-to-end metric on an untraced run and
//! every per-layer metric on a traced run; [`Report::render`] refuses a
//! report that misses a declared metric or carries an undeclared one,
//! so `BENCHMARK.json` (checked against these lists by the tests) and
//! the output cannot drift apart.

use std::collections::BTreeMap;

use traffic_models::ALL_MODELS;

use crate::stats::valid_metric_name;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("p50_ms", "ms"),
    ("tail_ms.loaded", "ms"),
    ("goodput_per_s", "1/s"),
    ("test_mae_rel", "ratio"),
];

/// Op categories of the `traffic_obs::profile` recorder reported as
/// self time.
pub const PROFILE_CATEGORIES: [&str; 7] = ["gemm", "spmm", "elem", "conv", "bwd", "mem", "pool"];

/// Per-layer metrics: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("data.simulate_s".into(), "s"),
        ("data.prepare_s".into(), "s"),
        ("graph.context_s".into(), "s"),
    ];
    for m in ALL_MODELS {
        out.push((format!("models.{m}.fwd_ms"), "ms"));
        out.push((format!("tensor.{m}.bwd_ms"), "ms"));
        out.push((format!("nn.{m}.optim_ms"), "ms"));
    }
    for cat in PROFILE_CATEGORIES {
        out.push((format!("tensor.{cat}_self_s"), "s"));
    }
    out.push(("tensor.gemm_gflop".into(), "gflop"));
    out.push(("core.sched_busy".into(), "ratio"));
    out.push(("serve.forward_ms.b1".into(), "ms"));
    out.push(("serve.forward_ms.b2".into(), "ms"));
    for m in ALL_MODELS {
        out.push((format!("serve.{m}.p50_ms"), "ms"));
    }
    for (name, unit) in [
        ("serve.engine_ms.p50", "ms"),
        ("serve.http_ms.p50", "ms"),
        ("serve.snapshot.encode_ms", "ms"),
        ("serve.snapshot.decode_ms", "ms"),
        ("serve.snapshot.instantiate_ms", "ms"),
        ("serve.reload_ms", "ms"),
        ("serve.reload_phase.p90_ms", "ms"),
        ("serve.shed", "count"),
        ("serve.timeout", "count"),
        ("serve.error", "count"),
        ("serve.reload_failures", "count"),
        ("loadgen.late_ms.p95", "ms"),
        ("obs.trace_overhead_pct", "%"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// The declared `(name, unit)` list for an untraced or traced run.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sweep cells, or requests plus reloads).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    values: BTreeMap<String, f64>,
    samples: BTreeMap<String, usize>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a metric value with the sample count it rests on.
    pub fn set_n(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        let name = name.into();
        self.samples.insert(name.clone(), samples);
        self.values.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Keeps only the metrics declared for this kind of run (a traced
    /// run also computes some end-to-end figures on the way).
    pub fn retain_declared(&mut self, trace: bool) {
        let keep: Vec<String> = declared(trace).into_iter().map(|(n, _)| n).collect();
        self.values.retain(|k, _| keep.contains(k));
    }

    /// Human-readable lines (one per metric, with sample counts) and the
    /// final JSON result line. `Err` when the report does not carry
    /// exactly the declared metrics, or a value is not finite.
    pub fn render(&self, trace: bool) -> Result<(Vec<String>, String), String> {
        let declared = declared(trace);
        let mut lines = Vec::new();
        let mut json = Vec::new();
        for (name, unit) in &declared {
            debug_assert!(valid_metric_name(name));
            let v = *self.values.get(name).ok_or_else(|| format!("metric {name} not emitted"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let n = self.samples.get(name).map(|n| format!(" (n={n})")).unwrap_or_default();
            lines.push(format!("{name} = {v} {unit}{n}"));
            json.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        if let Some(extra) = self.values.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not declared"));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
        Ok((lines, result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(trace: bool) -> Report {
        let mut r = Report { attempted: 1, ..Default::default() };
        for (n, _) in declared(trace) {
            r.set(n, 1.5);
        }
        r
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        for trace in [false, true] {
            let names: Vec<String> = declared(trace).into_iter().map(|(n, _)| n).collect();
            for n in &names {
                assert!(valid_metric_name(n), "{n}");
            }
            let mut dedup = names.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), names.len());
        }
    }

    #[test]
    fn render_requires_exactly_the_declared_metrics() {
        assert!(full(false).render(false).is_ok());
        assert!(full(true).render(true).is_ok());
        let mut missing = full(false);
        missing.values.remove("p50_ms");
        assert!(missing.render(false).unwrap_err().contains("p50_ms"));
        let mut extra = full(false);
        extra.set("bogus_ms", 1.0);
        assert!(extra.render(false).is_err());
        let mut nan = full(false);
        nan.set("setup_s", f64::NAN);
        assert!(nan.render(false).is_err());
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let (_, line) = full(false).render(false).unwrap();
        let j = traffic_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(j.get("correct"), Some(&traffic_obs::json::Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(|v| v.as_f64()), Some(1.0));
        let m = j.get("metrics").and_then(|m| m.get("tail_ms.loaded")).expect("metric");
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some("ms"));
    }
}
