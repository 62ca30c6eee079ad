//! `serve_replay`: backend-only serving of recorded ISP feeds.
//!
//! Set-up records a few unique feeds — `FrameData` with motion metadata,
//! as a hardware ISP would ship them — so rendering and block matching
//! appear only in `setup_s`. The measured part replays the feeds from K
//! 30 fps cameras with staggered phases into a `SessionServer` with
//! `nproc - 1` workers and NN batching on, from one generator thread
//! (the main thread). Each round has two phases on fresh servers:
//!
//! * **paced**: open loop at a fixed rate, every frame timed from when
//!   it was due;
//! * **unpaced**: the same schedule closed loop (the generator parks on
//!   full lanes), measuring capacity.
//!
//! Camera `c` streams clips of the feed length; its `k`-th clip is
//! session `k * K + c` on feed `id % feeds`, so every session sees a
//! coherent stream and can be replayed offline.

use crate::frontend::{self, traced_push, TracedStream};
use crate::host;
use crate::trace::{covered, Tracer};
use crate::{
    accuracy, fast_quartile, model_e2e, model_layers, not_exercised, same_bits, secs, timed_setup,
    RunResult, RunSpec,
};
use euphrates_common::error::{Error, Result};
use euphrates_common::image::Resolution;
use euphrates_common::stats::{quantile, LatencyHistogram};
use euphrates_core::api::{SchemeSpec, Session};
use euphrates_core::backend::{BackendConfig, TaskOutcome};
use euphrates_core::frontend::{frame_source, FrameData, MotionConfig};
use euphrates_core::system::SystemModel;
use euphrates_core::tracker::TrackerTask;
use euphrates_datasets::{otb100_like, DatasetScale, Sequence};
use euphrates_mc::policy::EwPolicy;
use euphrates_nn::oracle::calib;
use euphrates_nn::zoo;
use euphrates_serve::{DrainReport, NnBatchConfig, ServeConfig, SessionServer};
use euphrates_soc::energy::{ExtrapolationExecutor, SchemeReport};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served scheme.
const SCHEME: &str = "EW-4";
/// One 30 fps frame period: the deadline of a paced frame after it was
/// due.
const DEADLINE: Duration = Duration::from_nanos(33_333_333);
/// Per-worker ingress bound.
const QUEUE_DEPTH: usize = 64;
/// NN batching: at most this many jobs per fused batch, and at most
/// this long for an open batch to fill. At the paced rate 8 I-frame
/// jobs arrive well within the wait, so batches fill and the realized
/// batch does not depend on host timing.
const MAX_BATCH: usize = 8;
const MAX_WAIT: Duration = Duration::from_millis(10);

/// Input size and load of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Unique recorded feeds.
    pub feeds: usize,
    /// Frames per feed (the clip length).
    pub feed_frames: u32,
    /// Cameras; each delivers 30 frames/s in the paced phase.
    pub cameras: u64,
    /// Frames per paced phase.
    pub paced_frames: u64,
    /// Frames per unpaced phase.
    pub unpaced_frames: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Size {
    /// The benchmark's size: 167 cameras (5k frames/s paced, about a
    /// fourteenth of one worker's capacity), 16 feeds of 8 VGA frames,
    /// one whole clip per camera (0.27 s) paced and ten unpaced per
    /// round. Short rounds, many per run: host interference comes in
    /// bursts, and a run reports its quiet rounds. At a third of
    /// capacity a stalled vCPU leaves a backlog that delays most frames
    /// of a round; at this rate only the frames that arrive during the
    /// stall wait.
    pub const BENCH: Size = Size {
        feeds: 16,
        feed_frames: 8,
        cameras: 167,
        paced_frames: 1_336,
        unpaced_frames: 13_360,
        setup_reps: 3,
    };

    /// The paced phase's offered load in frames per second.
    pub fn paced_rate(&self) -> f64 {
        self.cameras as f64 * 30.0
    }

    /// Global frame `j` of a phase: `(session id, feed, position)`.
    fn schedule(&self, j: u64) -> (u64, usize, u32) {
        let camera = j % self.cameras;
        let n = j / self.cameras;
        let clip = n / u64::from(self.feed_frames);
        let pos = (n % u64::from(self.feed_frames)) as u32;
        let id = clip * self.cameras + camera;
        (id, (id % self.feeds as u64) as usize, pos)
    }
}

/// The recorded feeds.
type Feeds = Vec<Vec<Arc<FrameData>>>;

fn feed_sequences(seed: u64, size: &Size) -> Vec<Sequence> {
    // Enough sequences per attribute (10 attributes) for the feed count.
    let per_attribute = (size.feeds as f64 / 10.0).ceil();
    let mut suite = otb100_like(seed, DatasetScale::fraction(per_attribute / 10.0));
    suite.truncate(size.feeds);
    for seq in &mut suite {
        seq.frames = size.feed_frames;
    }
    suite
}

/// Records the feeds through the fast luma front end.
///
/// # Errors
///
/// Front-end errors.
fn record_feeds(seed: u64, size: &Size) -> Result<(Feeds, Resolution)> {
    let suite = feed_sequences(seed, size);
    let res = suite
        .first()
        .ok_or_else(|| Error::config("no feeds"))?
        .resolution();
    let feeds = suite
        .iter()
        .map(|seq| {
            frame_source(seq, &MotionConfig::default())?
                .map(|f| f.map(Arc::new))
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Feeds>>()?;
    Ok((feeds, res))
}

fn ew_backend() -> BackendConfig {
    BackendConfig::new(EwPolicy::Constant(4))
}

/// A server of `workers` workers with NN batching on.
///
/// # Errors
///
/// Invalid configurations.
fn server(workers: usize) -> Result<SessionServer<TrackerTask>> {
    let config = ServeConfig::sized(workers, QUEUE_DEPTH).with_nn_batching(NnBatchConfig {
        network: zoo::mdnet(),
        max_batch: MAX_BATCH,
        max_wait: MAX_WAIT,
    });
    SessionServer::new(
        TrackerTask::new(calib::mdnet()),
        [SchemeSpec::new(SCHEME, ew_backend())?],
        config,
    )
}

/// One drained phase.
struct Phase {
    report: DrainReport,
    wall: Duration,
    /// Per-frame generator lateness (submit return minus due time), ns;
    /// empty for unpaced phases.
    lateness: Vec<u64>,
    /// Frames submitted per session id.
    clips: BTreeMap<u64, u32>,
    attempted: u64,
}

/// Streams `frames` scheduled frames into `server`; paced at `rate`
/// frames/s when given, otherwise as fast as the lanes admit.
fn run_phase(
    server: SessionServer<TrackerTask>,
    feeds: &Feeds,
    res: Resolution,
    size: &Size,
    frames: u64,
    rate: Option<f64>,
) -> Result<Phase> {
    let mut clips = BTreeMap::new();
    let mut lateness = Vec::with_capacity(if rate.is_some() { frames as usize } else { 0 });
    let t0 = Instant::now();
    for j in 0..frames {
        let (id, feed, pos) = size.schedule(j);
        if pos == 0 {
            server.open(id, SCHEME, res)?;
        }
        let due = rate.map(|r| t0 + Duration::from_secs_f64(j as f64 / r));
        if let Some(due) = due {
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        server.submit_blocking(id, Arc::clone(&feeds[feed][pos as usize]))?;
        if let Some(due) = due {
            lateness.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        }
        clips.insert(id, pos + 1);
        if pos + 1 == size.feed_frames {
            server.close(id)?;
        }
    }
    for (&id, &len) in &clips {
        if len < size.feed_frames {
            server.close(id)?;
        }
    }
    let report = server.drain();
    Ok(Phase {
        report,
        wall: t0.elapsed(),
        lateness,
        clips,
        attempted: frames,
    })
}

/// Offline replays of clips, cached by `(session id, length)`.
struct Offline<'a> {
    feeds: &'a Feeds,
    res: Resolution,
    size: Size,
    cache: HashMap<(u64, u32), TaskOutcome>,
}

impl Offline<'_> {
    /// Replays clip `(id, len)` through a standalone session of
    /// `backend`, inside push spans when `tr` is given.
    fn replay(
        &self,
        id: u64,
        len: u32,
        backend: BackendConfig,
        mut tr: Option<&mut Tracer>,
    ) -> Result<TaskOutcome> {
        let feed = &self.feeds[(id % self.size.feeds as u64) as usize];
        let mut session = Session::new(TrackerTask::new(calib::mdnet()), backend, self.res, id)?;
        for frame in &feed[..len as usize] {
            match tr.as_deref_mut() {
                Some(tr) => traced_push(tr, &mut session, frame).map(drop)?,
                None => session.push_frame(frame).map(drop)?,
            }
        }
        Ok(session.finish())
    }

    /// Checks every drained outcome of `phase` against its offline
    /// replay.
    fn check(&mut self, phase: &Phase, res: &mut RunResult) -> Result<()> {
        for (&id, &len) in &phase.clips {
            let expected = match self.cache.get(&(id, len)) {
                Some(o) => o,
                None => {
                    let o = self.replay(id, len, ew_backend(), None)?;
                    self.cache.entry((id, len)).or_insert(o)
                }
            };
            let ok = matches!(phase.report.outcome(id), Some(Ok(o)) if same_bits(o, expected));
            res.check(
                ok,
                format!("served session {id} differs from its offline replay"),
            );
        }
        res.check(
            phase.report.sessions() == phase.clips.len(),
            "every opened session is drained",
        );
        Ok(())
    }
}

/// Frames of a phase that failed: not served, for any reason.
fn failed(phase: &Phase) -> u64 {
    phase.attempted - phase.report.served.min(phase.attempted)
}

/// Upper bound on paced frames done more than [`DEADLINE`] after they
/// were due. A frame misses only if its generator lateness or its
/// submit-to-completion latency exceeds half the deadline, so the bound
/// is the failed frames plus both of those counts.
fn deadline_misses(phase: &Phase) -> u64 {
    let half = DEADLINE.as_nanos() as u64 / 2;
    let late = phase.lateness.iter().filter(|&&l| l > half).count() as u64;
    failed(phase) + late + count_above(&phase.report.latency, half)
}

/// Samples of `h` above `t`, to the histogram's bucket resolution.
fn count_above(h: &LatencyHistogram, t: u64) -> u64 {
    if h.count() == 0 || h.max() <= t {
        return 0;
    }
    // Bisect for the smallest quantile whose value exceeds `t`.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if h.quantile(mid) > t {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    ((1.0 - hi) * h.count() as f64).ceil() as u64
}

/// p-quantile of the lateness samples in ns.
fn lateness_q(phase: &Phase, q: f64) -> f64 {
    let v: Vec<f64> = phase.lateness.iter().map(|&l| l as f64).collect();
    quantile(&v, q)
}

/// Latency from due time to completion at quantile `q`, ms: the
/// server's submit-to-completion quantile plus the generator's lateness
/// quantile.
fn due_latency_ms(phase: &Phase, q: f64) -> f64 {
    (phase.report.latency.quantile(q) as f64 + lateness_q(phase, q)) / 1e6
}

/// The EW scheme's modelled cost at the paced phase's drained mean
/// window and realized batch, with its merged outcome.
fn ew_model(phase: &Phase) -> Result<(TaskOutcome, SchemeReport, SchemeReport, u32)> {
    let mut merged = TaskOutcome::default();
    for &id in phase.clips.keys() {
        if let Some(Ok(o)) = phase.report.outcome(id) {
            merged.merge(o);
        }
    }
    let batch = phase
        .report
        .nn
        .as_ref()
        .map_or(1, |nn| nn.batch_sizes.quantile(0.5).max(1)) as u32;
    let model = SystemModel::table1();
    let net = zoo::mdnet();
    let exec = ExtrapolationExecutor::MotionController;
    let ew = model.evaluate_batched(&net, merged.mean_window(), exec, batch)?;
    let baseline = model.evaluate_batched(&net, 1.0, exec, batch)?;
    Ok((merged, ew, baseline, batch))
}

/// Server workers: one core is left to the generator.
pub fn workers() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

/// One run of the workload with `workers` server workers.
///
/// # Errors
///
/// Pipeline and server errors.
pub fn run(spec: &RunSpec, size: &Size, workers: usize) -> Result<RunResult> {
    // Set-up: record the feeds, and bring a server up and drain it
    // (every round then serves on servers of its own).
    let ((feeds, resolution), setup_s) = timed_setup(size.setup_reps, || {
        let recorded = record_feeds(spec.seed, size)?;
        server(workers)?.drain();
        Ok::<_, Error>(recorded)
    })?;
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    res.notes.push(format!(
        "serve_replay: backend only, frames carry recorded ISP motion; {} feeds x {} frames, \
         {} cameras, paced {:.0} frames/s, {workers} workers + 1 generator",
        size.feeds,
        size.feed_frames,
        size.cameras,
        size.paced_rate()
    ));
    let mut offline = Offline {
        feeds: &feeds,
        res: resolution,
        size: *size,
        cache: HashMap::new(),
    };

    // Rounds until the measured time is up. Only the first round's
    // phases are kept (for the model and traced metrics); later rounds
    // leave their per-round figures, so memory does not grow with the
    // number of rounds a host manages.
    let deadline = Instant::now() + spec.measure;
    let mut first: Option<(Phase, Phase)> = None;
    let (mut capacity, mut p50s) = (Vec::new(), Vec::new());
    let (mut paced_attempted, mut misses) = (0, 0);
    let mut unpaced_cpu = Duration::ZERO;
    loop {
        let s = server(workers)?;
        let rate = Some(size.paced_rate());
        let p = run_phase(s, &feeds, resolution, size, size.paced_frames, rate)?;
        res.check(
            p.report.served == p.attempted,
            "paced phase served fewer frames than attempted",
        );
        let c0 = host::cpu_time();
        let s = server(workers)?;
        let u = run_phase(s, &feeds, resolution, size, size.unpaced_frames, None)?;
        unpaced_cpu += host::cpu_time() - c0;
        for phase in [&p, &u] {
            res.check(
                phase.report.ingress.spin_retries == 0,
                "ingress spin path executed",
            );
            res.check(
                phase.report.failed_sessions() == 0,
                "a served session failed",
            );
            res.attempted += phase.attempted;
            res.failed += failed(phase);
            offline.check(phase, &mut res)?;
        }
        capacity.push(u.report.served as f64 / secs(u.wall));
        p50s.push(due_latency_ms(&p, 0.5));
        paced_attempted += p.attempted;
        misses += deadline_misses(&p);
        first.get_or_insert((p, u));
        if spec.trace || Instant::now() >= deadline {
            break;
        }
    }
    let (paced, unpaced) = first.expect("at least one round");
    let (ew_outcome, ew, baseline, batch) = ew_model(&paced)?;
    res.notes.push(format!(
        "serve_replay: {} rounds, capacity frames/s {capacity:.0?}, paced p50 from due ms {p50s:.4?}, \
         failed_frac {:.6}, deadline_miss_frac {:.6}, realized batch {batch}",
        capacity.len(),
        res.failed as f64 / res.attempted as f64,
        misses as f64 / paced_attempted as f64,
    ));

    if spec.trace {
        let mut m = traced_metrics(spec, size, &mut offline, &paced, &unpaced, workers)?;
        m.extend(model_layers(&ew_outcome, &ew, &zoo::mdnet()));
        m.insert(
            "host.cpu_ms_per_frame",
            secs(unpaced_cpu) * 1e3 / size.unpaced_frames as f64,
        );
        m.insert("failed_frac", res.failed as f64 / res.attempted as f64);
        m.insert("deadline_miss_frac", misses as f64 / paced_attempted as f64);
        res.metrics = m;
        return Ok(res);
    }

    // Accuracy kept: the served EW sessions of the first paced phase
    // against baseline sessions over the same clips.
    let mut base_outcome = TaskOutcome::default();
    for (&id, &len) in &paced.clips {
        base_outcome.merge(&offline.replay(id, len, BackendConfig::baseline(), None)?);
    }
    let mut m = model_e2e(
        &ew,
        &baseline,
        accuracy(&ew_outcome),
        accuracy(&base_outcome),
    );
    m.insert("setup_s", setup_s);
    m.insert("frames_per_s", fast_quartile(&capacity, true));
    m.insert("latency_p50_ms", fast_quartile(&p50s, false));
    m.insert("peak_rss_mb", host::peak_rss_mb());
    res.metrics = m;
    Ok(res)
}

/// Per-layer metrics of the traced run: the front end traced over the
/// feed sequences (set-up work on this workload), session pushes traced
/// over an offline replay of the first paced phase, and the server's
/// own counters.
fn traced_metrics(
    spec: &RunSpec,
    size: &Size,
    offline: &mut Offline<'_>,
    paced: &Phase,
    unpaced: &Phase,
    workers: usize,
) -> Result<crate::Metrics> {
    let mut front = Tracer::default();
    let mut stream = TracedStream::default();
    for seq in &feed_sequences(spec.seed, size) {
        frontend::traced_stream::<TrackerTask>(
            &mut front,
            seq,
            &MotionConfig::default(),
            &mut [],
            &mut stream,
        )?;
    }
    if stream.mismatches != 0 {
        return Err(Error::state("traced front end differs from frame_source"));
    }
    let mut m = frontend::span_metrics(&front, &stream, Duration::ZERO);

    // Session pushes: traced and untraced replays of the same clips.
    let mut tr = Tracer::default();
    let t0 = Instant::now();
    for (&id, &len) in &paced.clips {
        offline.replay(id, len, ew_backend(), Some(&mut tr))?;
    }
    let traced_wall = t0.elapsed();
    let t0 = Instant::now();
    for (&id, &len) in &paced.clips {
        offline.replay(id, len, ew_backend(), None)?;
    }
    let untraced_wall = t0.elapsed();
    let layers = tr.layers();
    m.insert(
        "core.session_iframe_us",
        crate::trace::mean_ms(&layers, "core.session_iframe") * 1e3,
    );
    m.insert(
        "core.session_eframe_us",
        crate::trace::mean_ms(&layers, "core.session_eframe") * 1e3,
    );
    m.insert("trace.coverage", secs(covered(&layers)) / secs(traced_wall));
    m.insert(
        "trace.overhead",
        secs(traced_wall) / secs(untraced_wall) - 1.0,
    );

    let served = unpaced.report.served.max(1) as f64;
    let busy: u64 = unpaced.report.per_worker.iter().map(|w| w.busy_ns).sum();
    let occupancy: Vec<f64> = paced
        .report
        .per_worker
        .iter()
        .map(|w| w.occupancy())
        .collect();
    let nn = paced
        .report
        .nn
        .as_ref()
        .ok_or_else(|| Error::state("batching report missing"))?;
    m.insert(
        "serve.queue_wait_p50_us",
        paced.report.queue_wait.quantile(0.5) as f64 / 1e3,
    );
    m.insert(
        "serve.queue_wait_p99_us",
        paced.report.queue_wait.quantile(0.99) as f64 / 1e3,
    );
    m.insert("serve.worker_busy_us_per_frame", busy as f64 / 1e3 / served);
    m.insert(
        "serve.worker_occupancy",
        occupancy.iter().sum::<f64>() / occupancy.len().max(1) as f64,
    );
    m.insert("serve.gen_lag_p99_us", lateness_q(paced, 0.99) / 1e3);
    m.insert(
        "serve.parked",
        (paced.report.ingress.parked + unpaced.report.ingress.parked) as f64,
    );
    m.insert(
        "serve.busy_rejections",
        (paced.report.ingress.busy_rejections + unpaced.report.ingress.busy_rejections) as f64,
    );
    m.insert(
        "serve.spin_retries",
        (paced.report.ingress.spin_retries + unpaced.report.ingress.spin_retries) as f64,
    );
    m.insert("serve.latency_p99_ms", due_latency_ms(paced, 0.99));
    m.insert("nn.batch_mean", nn.mean_batch());
    m.insert("nn.amortization", nn.amortization());
    m.insert("host.workers", workers as f64);
    not_exercised(
        &mut m,
        &[
            "core.grid_efficiency",
            "core.grid_frames_per_s",
            "detect.latency_p95_ms",
            "camera.sensor_ms",
            "isp.pipeline_ms",
        ],
    );
    Ok(m)
}
