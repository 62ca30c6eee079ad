//! Streaming the front end into sessions, untraced and traced.
//!
//! `frame_source` hides its steps, so the traced path drives the same
//! steps through the crates' public calls (render, sensor capture, ISP,
//! pyramid, block matching) inside spans, and checks every frame it
//! builds against `frame_source`'s output for the same frame.

use crate::host::{Yardstick, NOMINAL_YARDSTICK_MS};
use crate::trace::{mean_ms, Tracer};
use crate::Metrics;
use euphrates_camera::scene::Renderer;
use euphrates_camera::sensor::{ImageSensor, SensorConfig};
use euphrates_common::error::{Error, Result};
use euphrates_common::image::{
    downsample2_dims, downsample2_into, BayerFrame, LumaFrame, Resolution, RgbFrame,
};
use euphrates_core::api::{FrameDecision, Scenario, Session, VisionTask};
use euphrates_core::frontend::{frame_source, FrameData, MotionConfig};
use euphrates_datasets::Sequence;
use euphrates_isp::motion::{BlockMatcher, CachedPlanes, MotionField, SearchStats};
use euphrates_isp::pipeline::{IspConfig, IspPipeline};
use std::time::{Duration, Instant};

/// Opens one session per scheme of `scenario` for its sequence `si`, on
/// the oracle stream `Scenario::evaluate` gives that sequence.
///
/// # Errors
///
/// Invalid policies.
pub fn open_sessions<T: VisionTask + Clone>(
    scenario: &Scenario<T>,
    si: usize,
) -> Result<Vec<Session<T>>> {
    let res = scenario.suite()[si].resolution();
    scenario
        .schemes()
        .iter()
        .map(|s| scenario.session(s.id.as_str(), res, si as u64))
        .collect()
}

/// Pushes `frame` into every session; the error of the first failing
/// push, if any.
fn push_all<T: VisionTask>(sessions: &mut [Session<T>], frame: &FrameData) -> Result<()> {
    for session in sessions {
        session.push_frame(frame)?;
    }
    Ok(())
}

/// One streamed frame: its latency, from requesting the frame to the
/// last session's decision, and the yardstick time measured just before
/// the request.
#[derive(Debug, Clone, Copy)]
pub struct FrameTime {
    pub latency_ms: f64,
    pub yardstick_ms: f64,
}

impl FrameTime {
    /// The latency scaled to the nominal host speed.
    pub fn scaled_ms(&self) -> f64 {
        self.latency_ms * NOMINAL_YARDSTICK_MS / self.yardstick_ms
    }
}

/// Streams `seq` through `frame_source` into every session and times
/// each frame, running `yardstick` before each one. Without a
/// yardstick the frames run back to back and their scaled time is their
/// latency.
///
/// # Errors
///
/// Front-end and session errors.
pub fn stream<T: VisionTask>(
    seq: &Sequence,
    motion: &MotionConfig,
    sessions: &mut [Session<T>],
    mut yardstick: Option<&mut Yardstick>,
) -> Result<Vec<FrameTime>> {
    let mut source = frame_source(seq, motion)?;
    let mut times = Vec::with_capacity(seq.frames as usize);
    loop {
        let yardstick_ms = yardstick
            .as_deref_mut()
            .map_or(NOMINAL_YARDSTICK_MS, Yardstick::time_ms);
        let t0 = Instant::now();
        let Some(frame) = source.next() else { break };
        push_all(sessions, &frame?)?;
        times.push(FrameTime {
            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
            yardstick_ms,
        });
    }
    Ok(times)
}

/// The per-frame state of a traced front end: the luma fast path or the
/// full sensor + ISP path, mirroring `frame_source`.
enum Path {
    Luma {
        matcher: BlockMatcher,
        cur: LumaFrame,
        prev: LumaFrame,
        pyramid: Option<(LumaFrame, LumaFrame)>,
        mb_size: u32,
        search_range: u32,
        have_prev: bool,
    },
    FullIsp {
        sensor: ImageSensor,
        isp: Box<IspPipeline>,
        rgb: RgbFrame,
        raw: BayerFrame,
    },
}

/// A front end driven step by step inside spans.
pub struct TracedSource<'a> {
    renderer: Renderer<'a>,
    path: Path,
    next: u32,
    end: u32,
    /// Block-matching effort over the frames with a predecessor.
    pub search: SearchStats,
    /// Frames whose motion field came from a block-matching call.
    pub matched_frames: u64,
}

impl<'a> TracedSource<'a> {
    /// Builds the same front end `frame_source(seq, config)` builds.
    ///
    /// # Errors
    ///
    /// Invalid motion configurations, and the SAD prefilter, which the
    /// traced front end does not mirror.
    pub fn new(seq: &'a Sequence, config: &MotionConfig) -> Result<Self> {
        if config.prefilter {
            return Err(Error::config(
                "the traced front end does not mirror the SAD prefilter",
            ));
        }
        let res: Resolution = seq.resolution();
        let path = if config.full_isp {
            let sensor = ImageSensor::new(
                SensorConfig {
                    resolution: res,
                    noise_model: config
                        .noise_model
                        .unwrap_or(seq.scene.effects().noise_model),
                    ..SensorConfig::default()
                },
                seq.scene.seed(),
            );
            let mut isp_cfg = IspConfig::standard(res);
            isp_cfg.mb_size = config.mb_size;
            isp_cfg.search_range = config.search_range;
            isp_cfg.strategy = config.strategy;
            Path::FullIsp {
                sensor,
                isp: Box::new(IspPipeline::new(isp_cfg)?),
                rgb: RgbFrame::new(res.width, res.height)?,
                raw: BayerFrame::new(res.width, res.height)?,
            }
        } else {
            let matcher = BlockMatcher::new(config.mb_size, config.search_range, config.strategy)?;
            let cur = LumaFrame::new(res.width, res.height)?;
            let pyramid = if matcher.wants_pyramid() {
                let (pw, ph) = downsample2_dims(&cur);
                Some((LumaFrame::new(pw, ph)?, LumaFrame::new(pw, ph)?))
            } else {
                None
            };
            Path::Luma {
                matcher,
                prev: cur.clone(),
                cur,
                pyramid,
                mb_size: config.mb_size,
                search_range: config.search_range,
                have_prev: false,
            }
        };
        Ok(TracedSource {
            renderer: match config.noise_model {
                Some(kind) => seq.scene.renderer_with_noise(kind),
                None => seq.scene.renderer(),
            },
            path,
            next: 0,
            end: seq.frames,
            search: SearchStats::default(),
            matched_frames: 0,
        })
    }

    /// Produces the next frame inside a `core.frontend` span; `None` at
    /// the end of the sequence.
    pub fn next(&mut self, tr: &mut Tracer) -> Option<Result<FrameData>> {
        if self.next >= self.end {
            return None;
        }
        let index = self.next;
        self.next += 1;
        let frontend = tr.begin();
        let frame = self.produce(index, tr);
        tr.end(frontend, "core.frontend");
        Some(frame)
    }

    fn produce(&mut self, index: u32, tr: &mut Tracer) -> Result<FrameData> {
        let renderer = &mut self.renderer;
        match &mut self.path {
            Path::Luma {
                matcher,
                cur,
                prev,
                pyramid,
                mb_size,
                search_range,
                have_prev,
            } => {
                let truth = tr.span("camera.render", |_| renderer.render_luma_into(index, cur));
                if let Some((pcur, _)) = pyramid.as_mut() {
                    tr.span("isp.pyramid", |_| downsample2_into(cur, pcur));
                }
                let motion = if *have_prev {
                    let planes = CachedPlanes {
                        pyramid: pyramid.as_ref().map(|(pc, pp)| (pc, pp)),
                        ..CachedPlanes::default()
                    };
                    let (field, stats) =
                        tr.span("isp.motion", |_| matcher.estimate_cached(cur, prev, planes))?;
                    self.search.merge(&stats);
                    self.matched_frames += 1;
                    field
                } else {
                    MotionField::zeroed(
                        Resolution::new(cur.width(), cur.height()),
                        *mb_size,
                        *search_range,
                    )?
                };
                std::mem::swap(cur, prev);
                if let Some((pcur, pprev)) = pyramid.as_mut() {
                    std::mem::swap(pcur, pprev);
                }
                *have_prev = true;
                Ok(FrameData::new(truth, motion))
            }
            Path::FullIsp {
                sensor,
                isp,
                rgb,
                raw,
            } => {
                let truth = tr.span("camera.render", |_| renderer.render_into(index, rgb));
                tr.span("camera.sensor", |_| sensor.capture_into(rgb, index, raw))?;
                let out = tr.span("isp.pipeline", |_| isp.process(raw))?;
                Ok(FrameData::new(truth, out.motion))
            }
        }
    }
}

/// Pushes `frame` into `session` inside a span named by the decision:
/// `core.session_iframe` or `core.session_eframe`.
///
/// # Errors
///
/// The session's error.
pub fn traced_push<T: VisionTask>(
    tr: &mut Tracer,
    session: &mut Session<T>,
    frame: &FrameData,
) -> Result<FrameDecision> {
    let id = tr.begin();
    let decision = session.push_frame(frame);
    let name = match &decision {
        Ok(d) if d.is_inference() => "core.session_iframe",
        _ => "core.session_eframe",
    };
    tr.end(id, name);
    decision
}

/// What a traced stream measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct TracedStream {
    /// Frames streamed.
    pub frames: u64,
    /// Wall time of the traced steps, excluding the reference
    /// `frame_source` the frames are checked against.
    pub wall: Duration,
    /// Frames that differed from `frame_source`'s output.
    pub mismatches: u64,
    /// Block-matching effort (luma path only).
    pub search: SearchStats,
    /// Frames with a block-matching call.
    pub matched_frames: u64,
}

/// Streams `seq` through a [`TracedSource`] into every session, checking
/// each frame against `frame_source`'s, and adds what it measured to
/// `out`.
///
/// # Errors
///
/// Front-end and session errors.
pub fn traced_stream<T: VisionTask>(
    tr: &mut Tracer,
    seq: &Sequence,
    motion: &MotionConfig,
    sessions: &mut [Session<T>],
    out: &mut TracedStream,
) -> Result<()> {
    let mut traced = TracedSource::new(seq, motion)?;
    let mut reference = frame_source(seq, motion)?;
    loop {
        let t0 = Instant::now();
        let Some(frame) = traced.next(tr) else { break };
        let frame = frame?;
        for session in sessions.iter_mut() {
            traced_push(tr, session, &frame)?;
        }
        out.wall += t0.elapsed();
        let expected = reference
            .next()
            .ok_or_else(|| Error::state("frame_source ended before the traced front end"))??;
        if expected.truth != frame.truth || expected.motion != frame.motion {
            out.mismatches += 1;
        }
        out.frames += 1;
    }
    out.search.merge(&traced.search);
    out.matched_frames += traced.matched_frames;
    Ok(())
}

/// The span-derived per-layer metrics of a traced stream: per-call
/// layer times, block-matching counts, the share of traced wall time
/// the spans explain, and tracing's cost against `untraced_wall` for
/// the same frames.
pub fn span_metrics(tr: &Tracer, stream: &TracedStream, untraced_wall: Duration) -> Metrics {
    let layers = tr.layers();
    let mut m = Metrics::new();
    for (metric, span) in [
        ("camera.render_ms", "camera.render"),
        ("camera.sensor_ms", "camera.sensor"),
        ("isp.pyramid_ms", "isp.pyramid"),
        ("isp.motion_ms", "isp.motion"),
        ("isp.pipeline_ms", "isp.pipeline"),
        ("core.frontend_ms", "core.frontend"),
    ] {
        m.insert(metric, mean_ms(&layers, span));
    }
    m.insert(
        "core.session_iframe_us",
        mean_ms(&layers, "core.session_iframe") * 1e3,
    );
    m.insert(
        "core.session_eframe_us",
        mean_ms(&layers, "core.session_eframe") * 1e3,
    );
    let matched = stream.matched_frames.max(1) as f64;
    m.insert(
        "isp.sad_ops_per_frame",
        stream.search.sad_ops as f64 / matched,
    );
    m.insert("isp.probes_per_block", stream.search.probes_per_block());
    let wall = stream.wall.as_secs_f64();
    let coverage = crate::trace::covered(&layers).as_secs_f64();
    m.insert(
        "trace.coverage",
        if wall > 0.0 { coverage / wall } else { 0.0 },
    );
    let untraced = untraced_wall.as_secs_f64();
    m.insert(
        "trace.overhead",
        if untraced > 0.0 {
            wall / untraced - 1.0
        } else {
            0.0
        },
    );
    m
}
