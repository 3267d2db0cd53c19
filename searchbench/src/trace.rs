//! In-memory spans and the observer wrappers that record them.
//!
//! Every wrapper here sits at one layer's public boundary and forwards each
//! call unchanged, so a traced run makes exactly the calls an untraced one
//! makes; the benchmark checks this by comparing the two runs' counts.
//! Spans go into one [`Tracer`] and stay in memory until the run ends.

use exsample_detect::{BatchCostModel, DetectError, Detector, FrameDetections, ObjectClass};
use exsample_engine::{SamplingPolicy, SelectionTelemetry};
use exsample_store::{Storage, StoreError};
use exsample_track::{Discriminator, MatchOutcome};
use exsample_video::FrameId;
use rand::RngCore;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// `Span::query` of spans shared by several queries (detector calls, stages
/// and runs of a multi-query engine).
pub const SHARED: u32 = u32::MAX;

/// One timed call at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed: `run`, `stage`, `pick`, `record`, `detect`,
    /// `observe`, `commit`, `fsync` or `open`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The query the call served, or [`SHARED`].
    pub query: u32,
    /// The engine stage the call ran in (the count of stages completed in
    /// the current run when the call started).
    pub stage: u64,
    /// Whether the call ran on the thread that drives the engine.
    pub on_caller: bool,
    /// Frames the call handled (picks, detections, observations), or 0.
    pub frames: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from every wrapper of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    caller: ThreadId,
    stage: AtomicU64,
    bytes_written: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose caller thread is the current thread.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            caller: std::thread::current().id(),
            stage: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn record(&self, name: &'static str, start_ns: u64, query: u32, frames: u64) {
        let end_ns = self.now_ns();
        self.push(name, start_ns, end_ns, query, frames);
    }

    /// Record a span with explicit bounds.
    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64, query: u32, frames: u64) {
        let span = Span {
            name,
            start_ns,
            end_ns,
            query,
            stage: self.stage.load(Ordering::Relaxed),
            on_caller: std::thread::current().id() == self.caller,
            frames,
        };
        self.spans.lock().expect("no span writer panics").push(span);
    }

    /// Set the stage number later spans are tagged with.
    pub fn set_stage(&self, stage: u64) {
        self.stage.store(stage, Ordering::Relaxed);
    }

    /// Count bytes a storage call wrote.
    pub fn add_bytes(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Bytes counted by [`Tracer::add_bytes`].
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// A copy of the spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }

    /// Write every span as one JSON line, with its parent: the innermost
    /// enclosing span on the caller thread, else the span's stage, whose
    /// parent is its run.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut run: Option<usize> = None;
        let mut stage: Option<usize> = None;
        let mut open: Vec<usize> = Vec::new();
        for (id, span) in spans.iter().enumerate() {
            while open
                .last()
                .is_some_and(|&p| spans[p].end_ns <= span.start_ns)
            {
                open.pop();
            }
            let within = |p: &Option<usize>| p.filter(|&p| spans[p].end_ns >= span.end_ns);
            let parent = match span.name {
                "run" => None,
                "stage" => within(&run),
                _ if span.on_caller => open.last().copied().or(within(&stage)).or(within(&run)),
                _ => within(&stage).or(within(&run)),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{},\"stage\":{},\"caller_thread\":{},\"frames\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                parent.map_or("null".to_string(), |p| p.to_string()),
                if span.query == SHARED { "null".to_string() } else { span.query.to_string() },
                span.stage,
                span.on_caller,
                span.frames,
            )?;
            match span.name {
                "run" => run = Some(id),
                "stage" => stage = Some(id),
                _ if span.on_caller => open.push(id),
                _ => {}
            }
        }
        Ok(())
    }
}

/// Times [`SamplingPolicy::next_batch_into`] (`pick`) and
/// [`SamplingPolicy::record`] (`record`) of the wrapped policy.
pub struct TimedPolicy<P> {
    inner: P,
    tracer: Arc<Tracer>,
    query: u32,
}

impl<P> TimedPolicy<P> {
    /// Wrap `inner`, tagging its spans with `query`.
    pub fn new(inner: P, tracer: Arc<Tracer>, query: u32) -> Self {
        TimedPolicy {
            inner,
            tracer,
            query,
        }
    }
}

impl<P: SamplingPolicy> SamplingPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn upfront_scan_frames(&self) -> u64 {
        self.inner.upfront_scan_frames()
    }

    fn next_batch_into(&mut self, rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        let start = self.tracer.now_ns();
        self.inner.next_batch_into(rng, batch, picks);
        self.tracer
            .record("pick", start, self.query, picks.len() as u64);
    }

    fn record(&mut self, frame: FrameId, outcome: &MatchOutcome) {
        let start = self.tracer.now_ns();
        self.inner.record(frame, outcome);
        self.tracer.record("record", start, self.query, 1);
    }

    fn remaining(&self) -> Option<u64> {
        self.inner.remaining()
    }

    fn selection_telemetry(&self) -> Option<SelectionTelemetry> {
        self.inner.selection_telemetry()
    }
}

/// Times [`Discriminator::observe`] (`observe`).
pub struct TimedDiscriminator<D> {
    inner: D,
    tracer: Arc<Tracer>,
    query: u32,
}

impl<D> TimedDiscriminator<D> {
    /// Wrap `inner`, tagging its spans with `query`.
    pub fn new(inner: D, tracer: Arc<Tracer>, query: u32) -> Self {
        TimedDiscriminator {
            inner,
            tracer,
            query,
        }
    }
}

impl<D: Discriminator> Discriminator for TimedDiscriminator<D> {
    fn observe(&mut self, detections: &FrameDetections) -> MatchOutcome {
        let start = self.tracer.now_ns();
        let outcome = self.inner.observe(detections);
        self.tracer.record("observe", start, self.query, 1);
        outcome
    }

    fn distinct_count(&self) -> usize {
        self.inner.distinct_count()
    }

    fn found_instances(&self) -> Vec<exsample_detect::InstanceId> {
        self.inner.found_instances()
    }
}

/// Busy-wait until `deadline`; never sleeps, so the wait repeats to within
/// the clock's resolution.
pub fn spin_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// A latency-shaped detector: each batched call takes at least
/// `per_call + per_frame × n` nanoseconds (a [`BatchCostModel`] read in
/// nanoseconds), spent running the wrapped detector and then busy-waiting
/// for the rest.  With a tracer it also records each call as a `detect`
/// span; with a zero model and no tracer it is the wrapped detector.
pub struct SpinDetector<D> {
    inner: D,
    latency_ns: BatchCostModel,
    tracer: Option<Arc<Tracer>>,
}

impl<D> SpinDetector<D> {
    /// Wrap `inner` with the latency model `latency_ns`.
    pub fn new(inner: D, latency_ns: BatchCostModel, tracer: Option<Arc<Tracer>>) -> Self {
        SpinDetector {
            inner,
            latency_ns,
            tracer,
        }
    }

    fn timed<T>(&self, frames: usize, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let start_ns = self.tracer.as_ref().map(|t| t.now_ns());
        let result = call();
        let cost = self.latency_ns.call_cost(frames as u64);
        if cost > 0 {
            spin_until(started + Duration::from_nanos(cost));
        }
        if let (Some(tracer), Some(start_ns)) = (&self.tracer, start_ns) {
            tracer.record("detect", start_ns, SHARED, frames as u64);
        }
        result
    }
}

impl<D: Detector> Detector for SpinDetector<D> {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.timed(1, || self.inner.detect(frame))
    }

    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        self.timed(frames.len(), || self.inner.detect_batch(frames, out))
    }

    fn try_detect_batch(
        &self,
        frames: &[FrameId],
        out: &mut Vec<FrameDetections>,
    ) -> Result<(), DetectError> {
        self.timed(frames.len(), || self.inner.try_detect_batch(frames, out))
    }

    fn class(&self) -> &ObjectClass {
        self.inner.class()
    }
}

/// A disk with a modelled `fsync`: every call goes to the wrapped storage
/// except [`Storage::sync`], which busy-waits `sync_ns` instead of flushing.
/// With a tracer it also records each sync as an `fsync` span and counts
/// the bytes appended and written.
///
/// The real flush's latency on a shared virtual disk swings by 2× between
/// half-minute windows, which no run length averages out; a fixed latency
/// keeps the store's cost steady while every commit still pays one sync.
pub struct SpinSyncStorage<S> {
    inner: S,
    sync_ns: u64,
    tracer: Option<Arc<Tracer>>,
    query: u32,
}

impl<S> SpinSyncStorage<S> {
    /// Wrap `inner`, modelling each sync as `sync_ns` and tagging spans
    /// with `query`.
    pub fn new(inner: S, sync_ns: u64, tracer: Option<Arc<Tracer>>, query: u32) -> Self {
        SpinSyncStorage {
            inner,
            sync_ns,
            tracer,
            query,
        }
    }

    fn count(&self, written: usize) {
        if let Some(tracer) = &self.tracer {
            tracer.add_bytes(written as u64);
        }
    }
}

impl<S: Storage> Storage for SpinSyncStorage<S> {
    fn begin_op(&mut self) {
        self.inner.begin_op();
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read(name)
    }

    fn len(&self, name: &str) -> Result<Option<u64>, StoreError> {
        self.inner.len(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        let written = self.inner.append(name, bytes)?;
        self.count(written);
        Ok(written)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<usize, StoreError> {
        let written = self.inner.write(name, bytes)?;
        self.count(written);
        Ok(written)
    }

    fn sync(&mut self, _name: &str) -> Result<(), StoreError> {
        let started = Instant::now();
        let start_ns = self.tracer.as_ref().map(|t| t.now_ns());
        spin_until(started + Duration::from_nanos(self.sync_ns));
        if let (Some(tracer), Some(start_ns)) = (&self.tracer, start_ns) {
            tracer.record("fsync", start_ns, self.query, 0);
        }
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        self.inner.rename(from, to)
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn spin_detector_latency_matches_the_model() {
        struct Nothing(ObjectClass);
        impl Detector for Nothing {
            fn detect(&self, frame: FrameId) -> FrameDetections {
                FrameDetections::empty(frame)
            }
            fn class(&self) -> &ObjectClass {
                &self.0
            }
        }
        // 200 µs per call + 20 µs per frame: 8 frames cost 360 µs.
        let detector = SpinDetector::new(
            Nothing(ObjectClass::from("car")),
            BatchCostModel::new(200_000, 20_000),
            None,
        );
        let frames: Vec<FrameId> = (0..8).collect();
        let mut out = Vec::new();
        let target = 360e-6;
        let samples: Vec<f64> = (0..21)
            .map(|_| {
                out.clear();
                let start = Instant::now();
                detector.try_detect_batch(&frames, &mut out).unwrap();
                start.elapsed().as_secs_f64()
            })
            .collect();
        assert_eq!(out.len(), 8);
        // Never early; the median is late by less than 10% of the model.
        assert!(samples.iter().all(|&s| s >= target), "{samples:?}");
        let late = median(&samples) - target;
        assert!(late < 0.1 * target, "median lateness {late} s");
    }

    #[test]
    fn spans_nest_under_caller_spans_then_stage_then_run() {
        let tracer = Tracer::new();
        tracer.push("run", 0, 100, SHARED, 0);
        tracer.push("stage", 0, 50, SHARED, 0);
        tracer.push("commit", 10, 40, 0, 1);
        tracer.push("fsync", 20, 30, 0, 0);
        tracer.push("pick", 45, 48, 0, 1);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let lines: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 5);
        let parent = |line: &str| {
            line.split("\"parent\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(parent(&lines[0]), "null");
        assert_eq!(parent(&lines[1]), "0");
        assert_eq!(parent(&lines[2]), "1");
        assert_eq!(parent(&lines[3]), "2");
        assert_eq!(parent(&lines[4]), "1");
    }
}
