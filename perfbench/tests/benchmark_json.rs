//! `BENCHMARK.json` at the repository root must describe exactly what
//! the benchmark emits: every declared end-to-end metric is printed by
//! every workload's untraced run and every per-layer metric by its
//! traced run (`Report::render` refuses anything else).

use traffic_obs::json::{self, Json};
use traffic_perfbench::report::{per_layer, END_TO_END};
use traffic_perfbench::stats::valid_metric_name;
use traffic_perfbench::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(v)) => v,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn name_unit(e: &Json) -> (String, String) {
    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    (s("name"), s("unit"))
}

#[test]
fn end_to_end_metrics_match_what_every_workload_emits() {
    let j = benchmark_json();
    let listed: Vec<(String, String)> = entries(&j, "end_to_end").iter().map(name_unit).collect();
    let emitted: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(listed, emitted);
    for e in entries(&j, "end_to_end") {
        let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{e:?}");
    }
    let setup = entries(&j, "end_to_end").iter().find(|e| name_unit(e).0 == "setup_s");
    let setup = setup.expect("setup_s is listed");
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn per_layer_metrics_match_what_every_traced_run_emits() {
    let j = benchmark_json();
    let listed: Vec<(String, String)> = entries(&j, "per_layer").iter().map(name_unit).collect();
    let emitted: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(listed, emitted);
}

#[test]
fn workloads_and_names_are_well_formed() {
    let j = benchmark_json();
    let names: Vec<String> = entries(&j, "workloads").iter().map(|e| name_unit(e).0).collect();
    assert_eq!(names, WORKLOADS);
    for key in ["end_to_end", "per_layer", "workloads"] {
        for e in entries(&j, key) {
            let name = name_unit(e).0;
            assert!(valid_metric_name(&name), "{key}: {name}");
        }
    }
}
