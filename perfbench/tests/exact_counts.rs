//! The exact-count metrics — block-matching effort, the I/E schedule,
//! Motion Controller cycles, and every modelled SoC and model output —
//! must repeat bit for bit across runs and thread counts: they describe
//! what the program computes, not how fast the host ran it.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::{detect, host, otb_grid, serve, Metrics, RunSpec};
use std::time::Duration;

/// Per-layer metrics that are counts or model outputs.
const EXACT_LAYERS: &[&str] = &[
    "isp.sad_ops_per_frame",
    "isp.probes_per_block",
    "core.inference_rate",
    "mc.cycles_per_eframe",
    "nn.cycles_per_inference",
    "soc.energy_frontend_mj",
    "soc.energy_memory_mj",
    "soc.energy_backend_mj",
    "soc.energy_cpu_mj",
    "soc.dram_bytes_per_frame",
];

/// End-to-end metrics that are model outputs.
const EXACT_E2E: &[&str] = &["model_energy_mj", "model_energy_saving", "accuracy_kept"];

const OTB: otb_grid::Size = otb_grid::Size {
    scale: euphrates_datasets::DatasetScale {
        sequence_fraction: 0.1,
        frame_fraction: 0.04,
    },
    stream_sequences: 1,
    setup_reps: 1,
};

const DETECT: detect::Size = detect::Size {
    scale: euphrates_datasets::DatasetScale {
        sequence_fraction: 0.0625,
        frame_fraction: 0.05,
    },
    traced_sequences: 1,
    setup_reps: 1,
};

const SERVE: serve::Size = serve::Size {
    feeds: 2,
    paced_frames: 5_000,
    unpaced_frames: 5_000,
    setup_reps: 1,
    ..serve::Size::BENCH
};

/// Every exact metric of every workload, keyed `workload/metric`, with
/// `threads` grid workers, noise threads and server workers.
fn exact_counts(threads: usize) -> Vec<(String, u64)> {
    // The only test in this binary, so no other thread reads the
    // variable while it changes.
    std::env::set_var("EUPHRATES_THREADS", threads.to_string());
    let mut out = Vec::new();
    for trace in [false, true] {
        let spec = RunSpec {
            seed: 7,
            measure: Duration::ZERO,
            trace,
        };
        let names = if trace { EXACT_LAYERS } else { EXACT_E2E };
        let runs: [(&str, Metrics); 3] = [
            (
                "otb_grid",
                otb_grid::run(&spec, &OTB, threads)
                    .expect("otb_grid runs")
                    .metrics,
            ),
            (
                "detect_full_isp",
                detect::run(&spec, &DETECT).expect("detect runs").metrics,
            ),
            (
                "serve_replay",
                serve::run(&spec, &SERVE, threads)
                    .expect("serve runs")
                    .metrics,
            ),
        ];
        for (workload, metrics) in runs {
            for name in names {
                let value = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} lacks {name}"));
                out.push((format!("{workload}/{name}"), value.to_bits()));
            }
        }
    }
    out
}

#[test]
fn exact_counts_repeat_across_runs_and_thread_counts() {
    let n = host::nproc();
    let first = exact_counts(n);
    assert_eq!(first, exact_counts(n), "two runs at {n} threads differ");
    assert_eq!(first, exact_counts(1), "1 thread and {n} threads differ");
}
