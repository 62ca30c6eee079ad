//! `detect_full_isp`: the streaming closed loop on the full ISP.
//!
//! Each frame of the multi-object detection suite is produced by
//! `frame_source` with `full_isp: true` (render, sensor capture, the
//! complete ISP) and pushed into a YOLOv2-baseline session and an EW-4
//! session. The renderer's noise pass is serial (`EUPHRATES_THREADS=1`,
//! set by the binary), so the whole stream runs on one thread.

use crate::frontend::{self, open_sessions, FrameTime, TracedStream};
use crate::host::{self, Yardstick};
use crate::trace::Tracer;
use crate::{
    accuracy, model_e2e, model_layers, not_exercised, same_bits, secs, timed_setup, RunResult,
    RunSpec, SlotTimes,
};
use euphrates_common::error::Result;
use euphrates_common::par::default_threads;
use euphrates_core::api::{Scenario, ScenarioBuilder, SchemeSpec, Session};
use euphrates_core::backend::{BackendConfig, TaskOutcome};
use euphrates_core::detector::DetectorTask;
use euphrates_core::frontend::MotionConfig;
use euphrates_core::system::SystemModel;
use euphrates_datasets::{detection_suite, DatasetScale};
use euphrates_mc::policy::EwPolicy;
use euphrates_nn::oracle::calib;
use euphrates_nn::zoo;
use euphrates_soc::energy::SchemeReport;
use std::time::{Duration, Instant};

/// The baseline scheme: YOLOv2 on every frame.
const BASELINE: &str = "YOLOv2";
/// The EW scheme.
const EW: &str = "EW-4";

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Suite scale.
    pub scale: DatasetScale,
    /// Sequences the traced run traces.
    pub traced_sequences: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Size {
    /// The benchmark's size: 4 sequences × 24 VGA frames per pass.
    pub const BENCH: Size = Size {
        scale: DatasetScale {
            sequence_fraction: 0.25,
            frame_fraction: 0.05,
        },
        traced_sequences: 2,
        setup_reps: 201,
    };
}

/// Generates the suite, warms the renderer canvases and builds the
/// scenario; the builder is kept for the one-sequence check.
fn setup(
    seed: u64,
    size: &Size,
) -> Result<(ScenarioBuilder<DetectorTask>, Scenario<DetectorTask>)> {
    let suite = detection_suite(seed, size.scale);
    for seq in &suite {
        drop(seq.scene.renderer());
    }
    let builder = Scenario::builder(DetectorTask::new(calib::yolov2()))
        .suite(suite)
        .motion(MotionConfig {
            full_isp: true,
            ..MotionConfig::default()
        })
        .schemes([
            SchemeSpec::new(BASELINE, BackendConfig::baseline()).expect("static id"),
            SchemeSpec::new(EW, BackendConfig::new(EwPolicy::Constant(4))).expect("static id"),
        ])
        .network(zoo::yolov2());
    let scenario = builder.clone().build()?;
    Ok((builder, scenario))
}

/// One streamed sequence: per-scheme outcomes and per-frame times.
struct Streamed {
    outcomes: Vec<TaskOutcome>,
    times: Vec<FrameTime>,
    wall: Duration,
}

fn stream_one(
    scenario: &Scenario<DetectorTask>,
    si: usize,
    yardstick: Option<&mut Yardstick>,
) -> Result<Streamed> {
    let mut sessions = open_sessions(scenario, si)?;
    let t0 = Instant::now();
    let times = frontend::stream(
        &scenario.suite()[si],
        scenario.motion(),
        &mut sessions,
        yardstick,
    )?;
    Ok(Streamed {
        wall: t0.elapsed(),
        outcomes: sessions.into_iter().map(Session::finish).collect(),
        times,
    })
}

/// Merges per-sequence outcomes scheme by scheme, in sequence order.
fn merge(per_sequence: &[Vec<TaskOutcome>], scheme: usize) -> TaskOutcome {
    let mut merged = TaskOutcome::default();
    for outcomes in per_sequence {
        merged.merge(&outcomes[scheme]);
    }
    merged
}

/// The platform model of scheme `k` at its measured window — what
/// `Scenario::evaluate` reports for it.
fn system(
    scenario: &Scenario<DetectorTask>,
    k: usize,
    outcome: &TaskOutcome,
) -> Result<SchemeReport> {
    SystemModel::table1().evaluate(
        &zoo::yolov2(),
        outcome.mean_window(),
        scenario.schemes()[k].executor,
    )
}

/// Checks the streamed outcomes of sequence 0 against `Scenario::evaluate`
/// on that sequence alone.
fn check_against_grid(
    builder: &ScenarioBuilder<DetectorTask>,
    scenario: &Scenario<DetectorTask>,
    streamed: &[TaskOutcome],
    res: &mut RunResult,
) -> Result<()> {
    let report = builder
        .clone()
        .suite(vec![scenario.suite()[0].clone()])
        .build()?
        .evaluate()?;
    for (outcome, scheme) in streamed.iter().zip(&report.schemes) {
        res.check(
            same_bits(outcome, &scheme.per_sequence[0]),
            format!(
                "streamed {} session differs from Scenario::evaluate",
                scheme.id
            ),
        );
    }
    Ok(())
}

/// One run of the workload.
///
/// # Errors
///
/// Pipeline errors.
pub fn run(spec: &RunSpec, size: &Size) -> Result<RunResult> {
    let ((builder, scenario), setup_s) = timed_setup(size.setup_reps, || setup(spec.seed, size))?;
    let n = scenario.suite().len();
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    res.notes.push(format!(
        "detect_full_isp: {n} sequences x {} frames, noise threads {}",
        scenario.suite()[0].frames,
        default_threads()
    ));

    // Stream the whole suite, pass after pass, until the measured time
    // is up, timing every frame after a run of the yardstick (not in
    // the traced run, whose single pass gives the CPU time per frame).
    // The gated figures come from the scaled frame times; the first
    // pass fixes the model metrics.
    let deadline = Instant::now() + spec.measure;
    let mut first_pass: Vec<Vec<TaskOutcome>> = Vec::with_capacity(n);
    let (mut rates, mut latencies) = (Vec::new(), Vec::new());
    let mut slots = SlotTimes::default();
    let (mut yardstick, mut yardstick_ms) = (Yardstick::default(), Vec::new());
    let (cpu0, mut first_pass_wall) = (host::cpu_time(), Duration::ZERO);
    let mut first_pass_cpu = Duration::ZERO;
    loop {
        let (mut pass_wall, mut pass_times) = (Duration::ZERO, Vec::new());
        for si in 0..n {
            let s = stream_one(&scenario, si, (!spec.trace).then_some(&mut yardstick))?;
            pass_wall += s.wall;
            pass_times.extend_from_slice(&s.times);
            if first_pass.len() < n {
                first_pass.push(s.outcomes);
            } else {
                res.check(
                    same_bits(&s.outcomes, &first_pass[si]),
                    "a repeated sequence streamed differently",
                );
            }
        }
        if rates.is_empty() {
            first_pass_wall = pass_wall;
            first_pass_cpu = host::cpu_time() - cpu0;
        }
        rates.push(pass_times.len() as f64 / secs(pass_wall));
        res.attempted += pass_times.len() as u64;
        slots.push_pass(&pass_times);
        latencies.extend(pass_times.iter().map(|t| t.latency_ms));
        yardstick_ms.extend(pass_times.iter().map(|t| t.yardstick_ms));
        if spec.trace || Instant::now() >= deadline {
            break;
        }
    }
    check_against_grid(&builder, &scenario, &first_pass[0], &mut res)?;

    let (k_base, k_ew) = (0, 1);
    let (base, ew) = (merge(&first_pass, k_base), merge(&first_pass, k_ew));
    let ew_system = system(&scenario, k_ew, &ew)?;
    let p95 = euphrates_common::stats::quantile(&latencies, 0.95);
    res.notes.push(format!(
        "detect_full_isp: {} passes, unscaled frames/s per pass {rates:.2?}, latency p95 \
         {p95:.2} ms, yardstick median {:.3} ms",
        rates.len(),
        crate::median(&yardstick_ms)
    ));

    if spec.trace {
        let mut tr = Tracer::default();
        let mut total = TracedStream::default();
        let mut untraced = Duration::ZERO;
        for (si, expected) in first_pass.iter().enumerate().take(size.traced_sequences) {
            let mut sessions = open_sessions(&scenario, si)?;
            let seq = &scenario.suite()[si];
            frontend::traced_stream(&mut tr, seq, scenario.motion(), &mut sessions, &mut total)?;
            let outcomes: Vec<TaskOutcome> = sessions.into_iter().map(Session::finish).collect();
            res.check(
                same_bits(&outcomes, expected),
                "traced sessions differ from untraced",
            );
            untraced += stream_one(&scenario, si, None)?.wall;
        }
        res.check(
            total.mismatches == 0,
            "traced front end differs from frame_source",
        );
        let mut m = frontend::span_metrics(&tr, &total, untraced);
        m.extend(model_layers(&ew, &ew_system, &zoo::yolov2()));
        m.insert("detect.latency_p95_ms", p95);
        m.insert("nn.batch_mean", 1.0);
        m.insert("nn.amortization", 1.0);
        let pass_frames: usize = first_pass.iter().map(|o| o[0].frames as usize).sum();
        m.insert(
            "host.cpu_ms_per_frame",
            secs(first_pass_cpu) * 1e3 / pass_frames as f64,
        );
        m.insert("host.workers", default_threads() as f64);
        m.insert("failed_frac", 0.0);
        not_exercised(
            &mut m,
            &[
                "core.grid_efficiency",
                "core.grid_frames_per_s",
                "serve.queue_wait_p50_us",
                "serve.queue_wait_p99_us",
                "serve.worker_busy_us_per_frame",
                "serve.worker_occupancy",
                "serve.gen_lag_p99_us",
                "serve.parked",
                "serve.busy_rejections",
                "serve.spin_retries",
                "serve.latency_p99_ms",
                "deadline_miss_frac",
            ],
        );
        res.notes.push(format!(
            "detect_full_isp traced: first pass {:.2} s, {} traced frames",
            secs(first_pass_wall),
            total.frames
        ));
        res.metrics = m;
        return Ok(res);
    }

    let base_system = system(&scenario, k_base, &base)?;
    let mut m = model_e2e(&ew_system, &base_system, accuracy(&ew), accuracy(&base));
    m.insert("setup_s", setup_s);
    m.insert("frames_per_s", slots.frames_per_s());
    m.insert("latency_p50_ms", slots.p50_ms());
    m.insert("peak_rss_mb", host::peak_rss_mb());
    res.metrics = m;
    Ok(res)
}
