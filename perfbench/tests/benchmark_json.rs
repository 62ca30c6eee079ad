//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics this package reports, with the same units and
//! directions.

use perfbench::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the package")
}

fn entry(def: &MetricDef) -> String {
    let better = if def.higher_is_better {
        "higher"
    } else {
        "lower"
    };
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
        def.name, def.unit
    )
}

#[test]
fn benchmark_json_lists_the_reported_metrics_and_workloads() {
    let json = benchmark_json();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&entry(def)),
            "BENCHMARK.json lacks {}",
            entry(def)
        );
    }
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\"")));
    }
    let metrics = json.matches("\"better\"").count();
    assert_eq!(
        metrics,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics listed"
    );
    assert_eq!(
        json.matches("\"why\"").count(),
        WORKLOADS.len(),
        "extra workloads listed"
    );
}
