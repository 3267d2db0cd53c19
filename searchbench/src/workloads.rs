//! The three closed-loop workloads: input generation, one repetition of the
//! query set, and the output check of every query.

use crate::trace::{
    SpinDetector, SpinSyncStorage, TimedDiscriminator, TimedPolicy, Tracer, SHARED,
};
use exsample_core::{ExSample, ExSampleConfig};
use exsample_data::datasets::{bdd1k, dashcam};
use exsample_data::{Dataset, DatasetAnalog};
use exsample_detect::{
    BatchCostModel, Detector, DetectorNoise, GroundTruth, ObjectClass, PerfectDetector,
    SimulatedDetector,
};
use exsample_engine::{
    EngineReport, ExSamplePolicy, ExecutionMode, QueryEngine, QueryReport, QuerySpec,
    SamplingPolicy, ShardRouter, StageObservation, StageSink, StopReason,
};
use exsample_rand::SeedSequence;
use exsample_store::{BeliefStore, FsStorage, StoreError};
use exsample_track::{Discriminator, OracleDiscriminator, TrackingDiscriminator};
use exsample_video::Chunking;
use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// `pick_bound`: BDD-1k analog scale (1000 one-clip chunks either way).
const PICK_SCALE: f64 = 0.5;
/// `pick_bound`: queries per class (each with its own seed).
const PICK_QUERIES_PER_CLASS: usize = 3;
/// `pick_bound`: recall every query runs to.
const PICK_RECALL: f64 = 0.5;

/// `detect_bound` and `checkpointed`: dashcam analog scale (30 chunks at
/// any scale; full scale for the instance counts that keep the query sets'
/// frame totals steady across seeds).
const DASHCAM_SCALE: f64 = 1.0;

/// `detect_bound`: concurrent clients, one query each per wave.
const DETECT_CLIENTS: usize = 16;
/// `detect_bound`: frames each query picks per stage.
const DETECT_BATCH: usize = 16;
/// `detect_bound`: shards, and threads of the parallel engine.
const DETECT_SHARDS: u32 = 2;
/// `detect_bound`: recall of each wave; every wave re-issues each client's
/// query with the same seed.
const DETECT_RECALL: [f64; 3] = [0.2, 0.35, 0.5];
/// `detect_bound`: detector latency, 200 µs per call + 20 µs per frame.
const DETECT_LATENCY_NS: (u64, u64) = (200_000, 20_000);
/// `detect_bound`: detections-cache entries (fewer than the frames the
/// three waves detect, so the cache also evicts).
const DETECT_CACHE: usize = 1 << 16;

/// `checkpointed`: modelled latency of one fsync, the median measured on a
/// 2-vCPU virtual machine's disk (see [`SpinSyncStorage`]).
const CHECKPOINT_SYNC_NS: u64 = 65_000;
/// `checkpointed`: recall of both the cold and the warm query.
const CHECKPOINT_RECALL: f64 = 0.5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial ExSample queries over 1000 chunks with a free detector.
    PickBound,
    /// Concurrent batched queries over a slow detector, pool and cache.
    DetectBound,
    /// Per-stage durable checkpoints, then warm-start re-queries.
    Checkpointed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PickBound,
        Workload::DetectBound,
        Workload::Checkpointed,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PickBound => "pick_bound",
            Workload::DetectBound => "detect_bound",
            Workload::Checkpointed => "checkpointed",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PickBound => "M=1000 chunks and a free detector, so the Thompson pick sets wall time; bypasses pool, cache, detector latency and store",
            Workload::DetectBound => "16 concurrent batched queries on a latency-shaped detector, 2-thread pool and cache; the pick over 30 chunks is cheap",
            Workload::Checkpointed => "a durable commit per stage plus recovery and warm start, with the tracking discriminator; the other workloads never touch the store",
        }
    }
}

/// One query of a workload's fixed query set.
#[derive(Debug, Clone)]
pub struct QueryInput {
    /// The class searched for.
    pub class: ObjectClass,
    /// The query's RNG seed.
    pub seed: u64,
    /// Ground-truth instances of the class.
    pub instances: usize,
}

/// A workload's generated inputs: everything the engine receives.
pub struct Inputs {
    /// The dataset analog.
    pub dataset: Dataset,
    /// The query set (for `detect_bound`, one entry per client).
    pub queries: Vec<QueryInput>,
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let seeds = SeedSequence::new(seed)
            .derive("searchbench")
            .derive(workload.name());
        let (spec, scale) = match workload {
            Workload::PickBound => (bdd1k(), PICK_SCALE),
            Workload::DetectBound | Workload::Checkpointed => (dashcam(), DASHCAM_SCALE),
        };
        let dataset = DatasetAnalog::new(spec, seeds.derive("dataset").seed())
            .with_scale(scale)
            .generate();
        let mut classes = dataset.classes();
        classes.sort_by(|a, b| a.name().cmp(b.name()));
        let classes: Vec<ObjectClass> = match workload {
            Workload::PickBound => classes
                .iter()
                .flat_map(|c| std::iter::repeat_n(c.clone(), PICK_QUERIES_PER_CLASS))
                .collect(),
            Workload::DetectBound => classes
                .iter()
                .cycle()
                .take(DETECT_CLIENTS)
                .cloned()
                .collect(),
            Workload::Checkpointed => classes,
        };
        let queries = classes
            .into_iter()
            .enumerate()
            .map(|(i, class)| QueryInput {
                instances: dataset.instance_count(&class),
                class,
                seed: seeds.derive("query").index(i as u64).seed(),
            })
            .collect();
        Inputs { dataset, queries }
    }
}

/// Build, once, what each repetition builds for every query (engine, and
/// for `checkpointed` a store in a fresh directory), then drop it.  This is
/// the construction part of set-up time.
pub fn construct_probe(workload: Workload, inputs: &Inputs, scratch: &Path) -> Result<(), String> {
    let truth = inputs.dataset.ground_truth();
    let detector = PerfectDetector::new(Arc::clone(truth), inputs.queries[0].class.clone());
    let mut engine = engine_for(workload, inputs.dataset.chunking())?;
    let policy = ExSamplePolicy::new(ExSampleConfig::default(), inputs.dataset.chunking());
    engine
        .push(QuerySpec::new("probe", Box::new(policy), &detector))
        .map_err(|e| e.to_string())?;
    if workload == Workload::Checkpointed {
        let dir = scratch.join("probe");
        open_store(&dir, None, 0)?;
        remove_dir(&dir)?;
    }
    Ok(())
}

fn engine_for<'a>(workload: Workload, chunking: &Chunking) -> Result<QueryEngine<'a>, String> {
    match workload {
        Workload::DetectBound => QueryEngine::new()
            .sharded(ShardRouter::contiguous(chunking, DETECT_SHARDS))
            .execution(ExecutionMode::Parallel(DETECT_SHARDS as usize))
            .map(|engine| engine.cache_capacity(DETECT_CACHE))
            .map_err(|e| e.to_string()),
        Workload::PickBound | Workload::Checkpointed => Ok(QueryEngine::new()),
    }
}

/// Counts from the engine, cache and store over one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Engine stages.
    pub stages: u64,
    /// Frames the queries demanded.
    pub demanded_frames: u64,
    /// Frames run through detectors after coalescing and cache.
    pub detector_frames: u64,
    /// Logical detector invocations.
    pub detector_calls: u64,
    /// Physical (per-shard) detector invocations.
    pub physical_calls: u64,
    /// Stages that dispatched work to the worker pool.
    pub pooled_dispatches: u64,
    /// Threads the engine ran detection on.
    pub threads: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Store stage commits.
    pub commits: u64,
    /// Observations persisted by those commits.
    pub observations: u64,
    /// Store snapshot compactions.
    pub compactions: u64,
    /// Log records replayed by store recovery.
    pub records_replayed: u64,
}

impl Counters {
    fn absorb_engine(&mut self, engine: &QueryEngine<'_>, report: &EngineReport) {
        self.stages += report.stages;
        self.demanded_frames += report.demanded_frames;
        self.detector_frames += report.detector_frames;
        self.detector_calls += report.detector_calls;
        self.physical_calls += engine.report_sharded().physical_detector_calls;
        self.pooled_dispatches += engine.pooled_stage_dispatches();
        let threads = engine
            .execution_mode()
            .effective_threads(engine.shard_count()) as u64;
        self.threads = self.threads.max(threads);
        if let Some(cache) = engine.cache_stats() {
            self.cache_hits += cache.hits;
            self.cache_misses += cache.misses;
            self.cache_evictions += cache.evictions;
        }
    }
}

/// One query's result: its deterministic fingerprint and, if it failed the
/// output check, why.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Label, for messages.
    pub label: String,
    /// Counts that must repeat exactly across repetitions and between
    /// traced and untraced runs.
    pub fingerprint: Vec<u64>,
    /// The output-check failure, if any.
    pub problem: Option<String>,
}

/// One repetition of a workload's query set.
#[derive(Debug)]
pub struct Rep {
    /// Wall time of the whole query set.
    pub wall_s: f64,
    /// Per-query time from submission to stop.
    pub query_s: Vec<f64>,
    /// Engine, cache and store counts.
    pub counters: Counters,
    /// Per-query results.
    pub queries: Vec<QueryResult>,
}

/// Run one repetition of `workload`'s query set.  With a tracer, every
/// layer is wrapped by its observer; without one, the engine sees the bare
/// layers.  `scratch` holds the `checkpointed` store directories.
pub fn run_rep(
    workload: Workload,
    inputs: &Inputs,
    tracer: Option<&Arc<Tracer>>,
    scratch: &Path,
) -> Result<Rep, String> {
    match workload {
        Workload::PickBound => pick_bound(inputs, tracer),
        Workload::DetectBound => detect_bound(inputs, tracer),
        Workload::Checkpointed => checkpointed(inputs, tracer, scratch),
    }
}

fn recall_target(instances: usize, recall: f64) -> usize {
    ((recall * instances as f64).ceil() as usize).max(1)
}

/// The engine-facing pieces of one query, wrapped when tracing.
fn policy_box<'a>(
    policy: ExSamplePolicy,
    tracer: Option<&Arc<Tracer>>,
    query: u32,
) -> Box<dyn SamplingPolicy + 'a> {
    match tracer {
        Some(t) => Box::new(TimedPolicy::new(policy, Arc::clone(t), query)),
        None => Box::new(policy),
    }
}

fn discriminator_box<'a, D: Discriminator + 'a>(
    discriminator: D,
    tracer: Option<&Arc<Tracer>>,
    query: u32,
) -> Box<dyn Discriminator + 'a> {
    match tracer {
        Some(t) => Box::new(TimedDiscriminator::new(discriminator, Arc::clone(t), query)),
        None => Box::new(discriminator),
    }
}

/// Wrap `detector` in a spin detector of the given latency when it has
/// one or when tracing; otherwise hand the engine the bare detector.
fn detector_box<D: Detector + 'static>(
    detector: D,
    latency_ns: BatchCostModel,
    tracer: Option<&Arc<Tracer>>,
) -> Box<dyn Detector> {
    if tracer.is_none() && latency_ns.call_cost(1) == 0 {
        Box::new(detector)
    } else {
        Box::new(SpinDetector::new(detector, latency_ns, tracer.cloned()))
    }
}

/// What a run's stage callback saw.
struct Driven {
    report: EngineReport,
    /// Seconds from run start to each stage's end, and its active queries.
    stages: Vec<(f64, usize)>,
}

/// Run `engine` to completion.  When `timestamps` is set or tracing, the
/// stage callback records each stage's end; when tracing, it also records
/// `stage` spans and the run's `run` span.
fn drive(
    engine: &mut QueryEngine<'_>,
    tracer: Option<&Arc<Tracer>>,
    query: u32,
    timestamps: bool,
) -> Result<Driven, String> {
    let start = Instant::now();
    let run_start_ns = tracer.map(|t| {
        t.set_stage(0);
        t.now_ns()
    });
    let mut stages = Vec::new();
    let mut stage_start_ns = run_start_ns.unwrap_or(0);
    let report = engine
        .run_with(|stats| {
            if let Some(t) = tracer {
                let now = t.now_ns();
                t.push("stage", stage_start_ns, now, query, stats.demanded_frames);
                t.set_stage(stats.stage + 1);
                stage_start_ns = now;
            }
            if timestamps || tracer.is_some() {
                stages.push((start.elapsed().as_secs_f64(), stats.active_queries));
            }
        })
        .map_err(|e| e.to_string())?;
    if let (Some(t), Some(run_start)) = (tracer, run_start_ns) {
        t.record("run", run_start, query, report.demanded_frames);
    }
    Ok(Driven { report, stages })
}

/// The output check of one query: it stopped on its target, found at least
/// that many ground-truth instances, and every one is a real instance of
/// its class.
fn check_query(
    report: &QueryReport,
    class: &ObjectClass,
    target: usize,
    truth: &GroundTruth,
) -> Option<String> {
    if report.stop_reason != Some(StopReason::ResultLimitReached) {
        return Some(format!(
            "stopped by {:?} before its target of {target}",
            report.stop_reason
        ));
    }
    if report.true_found < target || report.found_instances.len() != report.true_found {
        return Some(format!(
            "found {} ({} listed) of a target of {target}",
            report.true_found,
            report.found_instances.len()
        ));
    }
    for &id in &report.found_instances {
        match truth.get(id) {
            Some(instance) if instance.class() == class => {}
            Some(instance) => {
                return Some(format!(
                    "instance {id:?} is a {}, not a {}",
                    instance.class().name(),
                    class.name()
                ))
            }
            None => return Some(format!("instance {id:?} is not in the ground truth")),
        }
    }
    None
}

fn query_fingerprint(report: &QueryReport) -> Vec<u64> {
    let mut fingerprint = vec![
        report.frames_processed,
        report.true_found as u64,
        report.distinct_found as u64,
        report.stop_reason.map_or(0, |r| r as u64 + 1),
    ];
    fingerprint.extend(report.found_instances.iter().map(|id| id.0));
    fingerprint
}

fn counters_fingerprint(c: &Counters) -> [u64; 6] {
    [
        c.demanded_frames,
        c.detector_frames,
        c.stages,
        c.cache_hits,
        c.cache_misses,
        c.commits,
    ]
}

fn result_of(
    report: &QueryReport,
    input: &QueryInput,
    target: usize,
    truth: &GroundTruth,
    scope: &Counters,
) -> QueryResult {
    let mut fingerprint = query_fingerprint(report);
    fingerprint.extend(counters_fingerprint(scope));
    QueryResult {
        label: report.label.clone(),
        fingerprint,
        problem: check_query(report, &input.class, target, truth),
    }
}

fn pick_bound(inputs: &Inputs, tracer: Option<&Arc<Tracer>>) -> Result<Rep, String> {
    let dataset = &inputs.dataset;
    let truth = dataset.ground_truth();
    let rep_start = Instant::now();
    let mut rep = Rep {
        wall_s: 0.0,
        query_s: Vec::new(),
        counters: Counters::default(),
        queries: Vec::new(),
    };
    for (i, input) in inputs.queries.iter().enumerate() {
        let query_start = Instant::now();
        let target = recall_target(input.instances, PICK_RECALL);
        let detector = detector_box(
            PerfectDetector::new(Arc::clone(truth), input.class.clone()),
            BatchCostModel::new(0, 0),
            tracer,
        );
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
        let spec = QuerySpec::new(
            format!("{}#{i}", input.class.name()),
            policy_box(policy, tracer, i as u32),
            detector.as_ref(),
        )
        .discriminator(discriminator_box(
            OracleDiscriminator::new(),
            tracer,
            i as u32,
        ))
        .seed(input.seed)
        .batch(1)
        .true_limit(target);
        let mut engine = QueryEngine::new();
        engine.push(spec).map_err(|e| e.to_string())?;
        let driven = drive(&mut engine, tracer, i as u32, false)?;
        rep.query_s.push(query_start.elapsed().as_secs_f64());
        let mut scope = Counters::default();
        scope.absorb_engine(&engine, &driven.report);
        rep.queries.push(result_of(
            &driven.report.outcomes[0],
            input,
            target,
            truth,
            &scope,
        ));
        rep.counters.absorb_engine(&engine, &driven.report);
    }
    rep.wall_s = rep_start.elapsed().as_secs_f64();
    Ok(rep)
}

fn detect_bound(inputs: &Inputs, tracer: Option<&Arc<Tracer>>) -> Result<Rep, String> {
    let dataset = &inputs.dataset;
    let truth = dataset.ground_truth();
    let rep_start = Instant::now();
    let latency = BatchCostModel::new(DETECT_LATENCY_NS.0, DETECT_LATENCY_NS.1);
    // One detector per class, shared by that class's queries so the engine
    // coalesces and caches across them.
    let mut classes: Vec<&ObjectClass> = inputs.queries.iter().map(|q| &q.class).collect();
    classes.sort_by_key(|c| c.name());
    classes.dedup();
    let detectors: Vec<Box<dyn Detector>> = classes
        .iter()
        .map(|&class| {
            detector_box(
                PerfectDetector::new(Arc::clone(truth), class.clone()),
                latency,
                tracer,
            )
        })
        .collect();
    let detector_of = |class: &ObjectClass| -> &dyn Detector {
        let slot = classes
            .iter()
            .position(|&c| c == class)
            .expect("class has a detector");
        detectors[slot].as_ref()
    };

    let mut engine = engine_for(Workload::DetectBound, dataset.chunking())?;
    let mut query_s = Vec::new();
    let mut targets = Vec::new();
    let mut report = None;
    for (wave, &recall) in DETECT_RECALL.iter().enumerate() {
        for (i, input) in inputs.queries.iter().enumerate() {
            let query = (wave * inputs.queries.len() + i) as u32;
            let target = recall_target(input.instances, recall);
            let policy = ExSamplePolicy::new(ExSampleConfig::default(), dataset.chunking());
            let spec = QuerySpec::new(
                format!("{}#{i}/wave{}", input.class.name(), wave + 1),
                policy_box(policy, tracer, query),
                detector_of(&input.class),
            )
            .discriminator(discriminator_box(OracleDiscriminator::new(), tracer, query))
            .seed(input.seed)
            .batch(DETECT_BATCH)
            .true_limit(target);
            engine.push(spec).map_err(|e| e.to_string())?;
            targets.push((input, target));
        }
        let driven = drive(&mut engine, tracer, SHARED, true)?;
        query_s.extend(crate::stats::latencies_from_active_drops(
            0.0,
            &driven.stages,
        ));
        report = Some(driven.report);
    }
    let report = report.expect("at least one wave ran");
    let mut counters = Counters::default();
    counters.absorb_engine(&engine, &report);
    let queries = report
        .outcomes
        .iter()
        .zip(&targets)
        .map(|(outcome, &(input, target))| result_of(outcome, input, target, truth, &counters))
        .collect();
    Ok(Rep {
        wall_s: rep_start.elapsed().as_secs_f64(),
        query_s,
        counters,
        queries,
    })
}

/// Persists each committed stage into a [`BeliefStore`], the shape of the
/// query runner's `--checkpoint`.  Times each commit when tracing.
struct StoreSink<'a> {
    store: Rc<RefCell<BeliefStore>>,
    class: u32,
    chunking: &'a Chunking,
    tracer: Option<Arc<Tracer>>,
    query: u32,
    commits: Rc<Cell<(u64, u64)>>,
}

impl StageSink for StoreSink<'_> {
    fn stage_committed(
        &mut self,
        stage: u64,
        observations: &[StageObservation],
    ) -> Result<(), String> {
        let start = self.tracer.as_ref().map(|t| t.now_ns());
        let mut store = self.store.borrow_mut();
        let result = (|| -> Result<(), StoreError> {
            for obs in observations {
                let chunk = self.chunking.chunk_of_frame(obs.frame).0;
                store.append_delta(self.class, chunk, obs.n1_delta, 1, stage)?;
                for id in &obs.new_instances {
                    store.append_result(self.class, obs.frame, id.0, stage)?;
                }
            }
            store.commit_stage(stage)
        })();
        if let (Some(t), Some(start)) = (&self.tracer, start) {
            t.record("commit", start, self.query, observations.len() as u64);
        }
        let (commits, observed) = self.commits.get();
        self.commits
            .set((commits + 1, observed + observations.len() as u64));
        result.map_err(|e| e.to_string())
    }
}

fn open_store(
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
    query: u32,
) -> Result<(BeliefStore, u64), String> {
    let start = tracer.map(|t| t.now_ns());
    let storage = FsStorage::open(dir).map_err(|e| e.to_string())?;
    let storage = SpinSyncStorage::new(storage, CHECKPOINT_SYNC_NS, tracer.cloned(), query);
    let (store, recovery) = BeliefStore::open(storage).map_err(|e| e.to_string())?;
    if let (Some(t), Some(start)) = (tracer, start) {
        t.record("open", start, query, recovery.records_replayed);
    }
    Ok((store, recovery.records_replayed))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

fn checkpointed(
    inputs: &Inputs,
    tracer: Option<&Arc<Tracer>>,
    scratch: &Path,
) -> Result<Rep, String> {
    let dataset = &inputs.dataset;
    let truth = dataset.ground_truth();
    let rep_start = Instant::now();
    let mut rep = Rep {
        wall_s: 0.0,
        query_s: Vec::new(),
        counters: Counters::default(),
        queries: Vec::new(),
    };
    for (i, input) in inputs.queries.iter().enumerate() {
        // The store is single-writer: each class gets a fresh directory
        // that only this query pair writes.
        let dir: PathBuf = scratch.join(format!("store-{i}"));
        if dir.exists() {
            remove_dir(&dir)?;
        }
        let target = recall_target(input.instances, CHECKPOINT_RECALL);
        for warm in [false, true] {
            let query = (2 * i + usize::from(warm)) as u32;
            let query_start = Instant::now();
            let mut scope = Counters::default();
            let (mut store, replayed) = open_store(&dir, tracer, query)?;
            scope.records_replayed += replayed;
            let mut sampler = ExSample::new(ExSampleConfig::default(), &dataset.chunk_lengths());
            if warm {
                let class_id = store
                    .state()
                    .class_id(input.class.name())
                    .ok_or("the cold query's store lost its class")?;
                for (chunk, cell) in store.state().beliefs_for(class_id) {
                    sampler.apply_prior(chunk as usize, cell.n1, cell.samples);
                }
            }
            let class_id = store.intern_class(input.class.name());
            let store = Rc::new(RefCell::new(store));
            let commits = Rc::new(Cell::new((0, 0)));
            let detector = detector_box(
                SimulatedDetector::new(
                    Arc::clone(truth),
                    input.class.clone(),
                    DetectorNoise::default(),
                    input.seed,
                ),
                BatchCostModel::new(0, 0),
                tracer,
            );
            let policy = ExSamplePolicy::from_sampler(sampler, dataset.chunking())
                .map_err(|e| e.to_string())?;
            let spec = QuerySpec::new(
                format!(
                    "{}/{}",
                    input.class.name(),
                    if warm { "warm" } else { "cold" }
                ),
                policy_box(policy, tracer, query),
                detector.as_ref(),
            )
            .discriminator(discriminator_box(
                TrackingDiscriminator::with_defaults(Arc::clone(truth)),
                tracer,
                query,
            ))
            .seed(input.seed)
            .batch(1)
            .true_limit(target);
            let mut engine = QueryEngine::new().stage_sink(Box::new(StoreSink {
                store: Rc::clone(&store),
                class: class_id,
                chunking: dataset.chunking(),
                tracer: tracer.cloned(),
                query,
                commits: Rc::clone(&commits),
            }));
            engine.push(spec).map_err(|e| e.to_string())?;
            let driven = drive(&mut engine, tracer, query, false)?;
            rep.query_s.push(query_start.elapsed().as_secs_f64());
            let store = store.borrow();
            scope.absorb_engine(&engine, &driven.report);
            (scope.commits, scope.observations) = commits.get();
            scope.compactions = store.health().snapshot_compactions;
            rep.queries.push(result_of(
                &driven.report.outcomes[0],
                input,
                target,
                truth,
                &scope,
            ));
            let c = &mut rep.counters;
            c.absorb_engine(&engine, &driven.report);
            c.commits += scope.commits;
            c.observations += scope.observations;
            c.compactions += scope.compactions;
            c.records_replayed += scope.records_replayed;
        }
        remove_dir(&dir)?;
    }
    rep.wall_s = rep_start.elapsed().as_secs_f64();
    Ok(rep)
}
