//! The Euphrates repository benchmark: three workloads that each load a
//! different layer of the pipeline, end-to-end metrics with tracing off,
//! and per-layer metrics from a separate traced run.
//!
//! Every number is either host time (unit suffix `-host`) or an output
//! of the modelled SoC (unit suffix `-model`); the two are never mixed
//! in one metric. See `README.md` in this directory for why each
//! workload exists and what each metric is expected to move.

pub mod detect;
pub mod frontend;
pub mod host;
pub mod otb_grid;
pub mod serve;
mod trace;

use euphrates_common::metrics::IouAccumulator;
use euphrates_core::backend::TaskOutcome;
use euphrates_core::system::SystemModel;
use euphrates_nn::layer::NetworkDescriptor;
use euphrates_soc::energy::SchemeReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One reported metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
    }
}

/// Metrics of an untraced run (`--trace 0`), reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", false),
    m("frames_per_s", "1/s-host", true),
    m("latency_p50_ms", "ms-host", false),
    m("peak_rss_mb", "MB-host", false),
    m("model_energy_mj", "mJ-model", false),
    m("model_energy_saving", "frac-model", true),
    m("accuracy_kept", "frac-model", true),
];

/// Metrics of a traced run (`--trace 1`), reported by every workload; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("camera.render_ms", "ms-host", false),
    m("camera.sensor_ms", "ms-host", false),
    m("isp.pyramid_ms", "ms-host", false),
    m("isp.motion_ms", "ms-host", false),
    m("isp.sad_ops_per_frame", "count-model", false),
    m("isp.probes_per_block", "count-model", false),
    m("isp.pipeline_ms", "ms-host", false),
    m("core.frontend_ms", "ms-host", false),
    m("core.session_iframe_us", "us-host", false),
    m("core.session_eframe_us", "us-host", false),
    m("core.inference_rate", "frac-model", false),
    m("core.grid_efficiency", "frac-host", true),
    m("core.grid_frames_per_s", "1/s-host", true),
    m("mc.cycles_per_eframe", "cycles-model", false),
    m("nn.cycles_per_inference", "cycles-model", false),
    m("nn.batch_mean", "count-host", true),
    m("nn.amortization", "frac-model", false),
    m("soc.energy_frontend_mj", "mJ-model", false),
    m("soc.energy_memory_mj", "mJ-model", false),
    m("soc.energy_backend_mj", "mJ-model", false),
    m("soc.energy_cpu_mj", "mJ-model", false),
    m("soc.dram_bytes_per_frame", "B-model", false),
    m("serve.queue_wait_p50_us", "us-host", false),
    m("serve.queue_wait_p99_us", "us-host", false),
    m("serve.worker_busy_us_per_frame", "us-host", false),
    m("serve.worker_occupancy", "frac-host", false),
    m("serve.gen_lag_p99_us", "us-host", false),
    m("serve.parked", "count-host", false),
    m("serve.busy_rejections", "count-host", false),
    m("serve.spin_retries", "count-host", false),
    m("serve.latency_p99_ms", "ms-host", false),
    m("detect.latency_p95_ms", "ms-host", false),
    m("failed_frac", "frac-host", false),
    m("deadline_miss_frac", "frac-host", false),
    m("host.cpu_ms_per_frame", "ms-host", false),
    m("host.steal_frac", "frac-host", false),
    m("host.ref_loop_ms", "ms-host", false),
    m("host.nproc", "count-host", true),
    m("host.euphrates_threads", "count-host", true),
    m("host.workers", "count-host", true),
    m("trace.coverage", "frac-host", true),
    m("trace.overhead", "frac-host", false),
];

/// The gated workloads, in the order `BENCHMARK.json` lists them.
/// `serve_replay` also runs on its own, ungated: on a shared VM its
/// host figures swing with CPU steal far beyond any usable bound, so its
/// serving-layer metrics are reported by `otb_grid`'s traced run.
pub const WORKLOADS: &[&str] = &["otb_grid", "detect_full_isp"];

/// How one run is driven (the command-line arguments).
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Input seed: every suite, scene and feed derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub measure: Duration,
    /// `true` for the per-layer (traced) run.
    pub trace: bool,
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back: the output-check verdict, frame
/// accounting, every metric of the run's kind, and human-readable
/// diagnostics printed before the result line.
#[derive(Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed output check; the run then reports
    /// `"correct": false`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what.into()));
        }
    }
}

/// Dispatches one run of `workload`.
///
/// # Errors
///
/// Unknown workload names and pipeline errors.
pub fn run(workload: &str, spec: &RunSpec) -> Result<RunResult, String> {
    let probe = host::HostProbe::start();
    let mut result = match workload {
        "otb_grid" => otb_grid::run(spec, &otb_grid::Size::BENCH, host::nproc()),
        "detect_full_isp" => detect::run(spec, &detect::Size::BENCH),
        "serve_replay" => serve::run(spec, &serve::Size::BENCH, serve::workers()),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?} or serve_replay)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    let h = probe.finish();
    result.notes.push(format!(
        "host: nproc {}, EUPHRATES_THREADS {}, steal {:.4}, reference loop {:.2} ms",
        h.nproc, h.euphrates_threads, h.steal_frac, h.ref_loop_ms
    ));
    if spec.trace {
        result.metrics.insert("host.steal_frac", h.steal_frac);
        result.metrics.insert("host.ref_loop_ms", h.ref_loop_ms);
        result.metrics.insert("host.nproc", h.nproc as f64);
        result
            .metrics
            .insert("host.euphrates_threads", h.euphrates_threads as f64);
    }
    let defs = if spec.trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        if !result.metrics.contains_key(def.name) {
            return Err(format!("{workload} did not report `{}`", def.name));
        }
    }
    result
        .metrics
        .retain(|name, _| defs.iter().any(|d| d.name == *name));
    Ok(result)
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_json(result: &RunResult, trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, def) in defs.iter().enumerate() {
        let value = result.metrics[def.name];
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Success (tracking) or precision (detection) at IoU 0.5 of an outcome.
pub fn accuracy(outcome: &TaskOutcome) -> f64 {
    outcome
        .ious
        .iter()
        .copied()
        .collect::<IouAccumulator>()
        .rate_at(0.5)
}

/// The modelled end-to-end metrics of an EW scheme against its baseline:
/// SoC energy per frame, the saving over the baseline, and the share of
/// baseline accuracy kept.
pub fn model_e2e(
    ew: &SchemeReport,
    baseline: &SchemeReport,
    ew_accuracy: f64,
    baseline_accuracy: f64,
) -> Metrics {
    let energy = ew.energy_per_frame().0;
    let mut m = Metrics::new();
    m.insert("model_energy_mj", energy);
    m.insert(
        "model_energy_saving",
        1.0 - energy / baseline.energy_per_frame().0,
    );
    m.insert("accuracy_kept", ew_accuracy / baseline_accuracy);
    m
}

/// The modelled per-layer metrics of an EW scheme: its schedule, the
/// Motion Controller's cycles, the NN plan, and the Fig. 9b/9c energy
/// and traffic split.
pub fn model_layers(
    outcome: &TaskOutcome,
    report: &SchemeReport,
    network: &NetworkDescriptor,
) -> Metrics {
    let eframes = outcome.frames.saturating_sub(outcome.inferences).max(1);
    let split = report.breakdown();
    let mut m = Metrics::new();
    m.insert("core.inference_rate", outcome.inference_rate());
    m.insert(
        "mc.cycles_per_eframe",
        outcome.mc_cycles.0 as f64 / eframes as f64,
    );
    m.insert(
        "nn.cycles_per_inference",
        SystemModel::table1()
            .plan(network)
            .stats()
            .total_compute_cycles()
            .0 as f64,
    );
    m.insert("soc.energy_frontend_mj", split.frontend.0);
    m.insert("soc.energy_memory_mj", split.memory.0);
    m.insert("soc.energy_backend_mj", split.backend.0);
    m.insert("soc.energy_cpu_mj", split.cpu.0);
    m.insert(
        "soc.dram_bytes_per_frame",
        report.traffic_per_frame.0 as f64,
    );
    m
}

/// Sets metrics of layers a workload does not exercise to 0.
pub fn not_exercised(m: &mut Metrics, names: &[&'static str]) {
    for name in names {
        m.insert(name, 0.0);
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    euphrates_common::stats::quantile(values, 0.5)
}

/// The fast end of repeated host-time measurements: the lower quartile
/// of times (`higher_is_better = false`) or the upper quartile of rates.
/// Interference from other tenants of the host (CPU steal) only ever
/// adds time, so this quartile tracks the program and not its
/// neighbours, while one lucky repetition cannot set it alone.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    euphrates_common::stats::quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Scaled frame times by frame slot over repeated passes over the same
/// frames; slot `i` is the `i`-th frame of every pass.
///
/// Other tenants of a shared host slow throughput-bound code by up to
/// 1.75x in stretches from milliseconds to minutes, and how much of a
/// run they cover changes from run to run. Each frame's time is scaled
/// by the yardstick timed just before it ([`frontend::FrameTime`]), and
/// a frame's time is the median of its scaled times over the passes,
/// which drops the passes a stall spoiled.
#[derive(Debug, Default)]
pub struct SlotTimes {
    slots: Vec<Vec<f64>>,
}

impl SlotTimes {
    /// Records one pass.
    pub fn push_pass(&mut self, pass: &[frontend::FrameTime]) {
        if self.slots.is_empty() {
            self.slots.resize_with(pass.len(), Vec::new);
        }
        for (slot, t) in self.slots.iter_mut().zip(pass) {
            slot.push(t.scaled_ms());
        }
    }

    fn frame_times(&self) -> Vec<f64> {
        self.slots.iter().map(|s| median(s)).collect()
    }

    /// The median over frames of each frame's time, in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        median(&self.frame_times())
    }

    /// Frames per second of a pass in which every frame takes its time.
    pub fn frames_per_s(&self) -> f64 {
        self.slots.len() as f64 / (self.frame_times().iter().sum::<f64>() / 1e3)
    }
}

/// Bit-identity of two values through their `Debug` rendering, which
/// prints every `f64` in its shortest round-tripping form.
pub fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Seconds of a duration as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `setup` `reps` times and keeps the last result, returning it
/// with the median set-up time in seconds.
pub fn timed_setup<T, E>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        let value = setup()?;
        times.push(secs(t0.elapsed()));
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}
