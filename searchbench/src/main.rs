//! # searchbench — the end-to-end search benchmark
//!
//! One command runs seeded, closed-loop "find N objects of class X"
//! workloads through the public `QueryEngine` API, checks every query's
//! output, and prints the end-to-end metrics a user of the system sees.  A
//! separate traced run gives per-layer numbers, timed from outside each
//! layer at its public boundary.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path searchbench/Cargo.toml -- \
//!     --workload <pick_bound|detect_bound|checkpointed|all> --seed <n> \
//!     --seconds <s> [--trace <0|1>] [--trace-file <path>]
//! ```
//!
//! `--trace 0` measures with no timing wrappers installed and prints the
//! end-to-end metrics; `--trace 1` runs the same query set untraced and then
//! traced, checks that both made the same calls, and prints the per-layer
//! metrics.  Without `--trace`, or with `--workload all`, the command runs
//! every requested (workload, mode) pair as a child process of its own, so
//! each reports its own peak memory.  The last line of a single run's
//! standard output is one JSON object with keys `correct`, `attempted`,
//! `failed` and `metrics`.  The benchmark exits nonzero when any output
//! check fails.
//!
//! ## Workloads
//!
//! All are closed loops: a client issues its next query only after the
//! previous one stopped.  Inputs (dataset analog and query seeds) come from
//! `--seed`; the engine receives only the generated inputs.  One process
//! uses at most two threads.  A run repeats the workload's fixed query set
//! until `--seconds` have passed and reports medians over repetitions.
//!
//! | name | inputs and loop | why |
//! |---|---|---|
//! | `pick_bound` | BDD-1k analog at scale 0.5 (1000 one-clip chunks, 8 classes). One client runs 24 ExSample queries one after another, three seeds per class, each to 50% recall. Batch 1, serial engine, zero-latency `PerfectDetector`, oracle discriminator, no cache, no store. | The paper's M≈1000 regime: detections are cheap, so the sampler sets wall time. Exercises the `exsample-core` / `exsample-rand` pick; bypasses the pool, cache, detector latency and store. |
//! | `detect_bound` | Dashcam analog at scale 1 (30 chunks, 7 classes). 16 clients run as 16 concurrent queries in one engine: batch 16, 2 contiguous shards, `ExecutionMode::Parallel(2)`, detections cache on, spin-wait detector costing 200 µs per call + 20 µs per frame. Three waves: each client's query runs to 20% recall, then is re-issued with the same seed to 35% and again to 50% ("give me more"), so the first part of each re-issue is served from the cache. | The detector, worker pool and cache do the work; the pick over 30 chunks is cheap. |
//! | `checkpointed` | Dashcam analog at scale 1 (30 chunks), 7 classes. One client runs, per class, a cold query that commits every stage into a fresh on-disk `BeliefStore`, then a warm re-query that recovers the store (replaying the log since the last compaction), seeds the posterior with `ExSample::apply_prior` and commits again. Both run to 50% recall. Batch 1, noisy `SimulatedDetector`, `TrackingDiscriminator`. | The `exsample-store` write path (a commit per stage, compaction) next to its read path (recovery, replay), plus the `exsample-track` layer. The other workloads never touch the store. |
//!
//! `checkpointed` writes real files through `FsStorage`, but models each
//! fsync as a 65 µs busy-wait (the median measured on a 2-vCPU virtual
//! machine's disk): the real flush's latency swung by 2× between
//! half-minute windows there, which no run length averages out.  Every
//! commit still pays one sync, so the cost of syncing per stage shows in
//! full.
//!
//! The store is single-writer: nothing in it stops two writers from racing
//! on its temporary snapshot file.  Each `checkpointed` query pair therefore
//! writes its own fresh directory under `.searchbench-tmp/` in the working
//! directory, and the directory is removed when the pair ends.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! * `wall_s` (s): median wall time of the query set reaching its stops.
//! * `query_s_p50` (s): median per-query time from submission to stop, over
//!   every query of every repetition (the sample count is printed).  In
//!   `detect_bound` the per-query stop times come from the `run_with` stage
//!   callback's timestamps and the drops in `active_queries`.
//! * `demanded_frames` (frames): frames the queries paid, summed — the
//!   paper's cost metric.  Fixed for one seed and one sampler, but it moves
//!   when a sampler is replaced by a distributionally equivalent one that
//!   consumes its random numbers differently.  The query sets are sized so
//!   that such a change moves the median over seeds by less than the bound.
//! * `detector_frames` (frames): frames actually run through detectors,
//!   after coalescing and cache hits.
//! * `setup_s` (s): dataset generation plus engine/store construction,
//!   median of several set-ups.
//! * `peak_rss_mb` (MB): peak resident memory of the process.
//!
//! `failed_ratio` (queries that errored or failed the output check, over
//! queries attempted) is printed on its own line and carried by the JSON
//! `failed` / `attempted` keys; it is 0 on a correct run.
//!
//! ## Output check
//!
//! * Every query must stop on its target, having found at least that many
//!   ground-truth instances, each a real instance of its class.
//! * Every repetition must repeat the first one's deterministic counts per
//!   query: demanded and detector frames, stages, cache hits and misses,
//!   store commits, and the instances found.  Traced repetitions are held
//!   to the same counts, which shows the wrappers are pure observers.
//!
//! A query failing either check counts in `failed`, and the command exits 1.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Layer → metrics → the end-to-end metric they should move, and where.
//!
//! * `exsample-core` / `exsample-rand`, timed by a `SamplingPolicy` wrapper
//!   around `ExSamplePolicy::next_batch_into` / `record`:
//!   `core.pick_calls`, `core.pick_s`, `core.pick_ns_per_frame`,
//!   `core.pick_us_p50`, `core.pick_us_p99`, `core.record_s`.  They move
//!   `wall_s` and `query_s_p50` on `pick_bound`; no change predicted on
//!   `detect_bound`, where they are under a tenth of wall time.
//! * `exsample-detect`, timed by the bench's spin `Detector` wrapper
//!   (`try_detect_batch`): `detect.calls`, `detect.frames`,
//!   `detect.frames_per_call`, `detect.busy_s`, `detect.caller_thread_s`
//!   (busy on the thread that called `run_with`), `detect.helper_thread_s`
//!   (`busy_s − caller_thread_s`, the pool helpers' share),
//!   `detect.call_us_p50`, `detect.call_us_p99`.  They move `wall_s` on
//!   `detect_bound`; the detector has zero latency in `pick_bound`.
//! * `exsample-engine`, from the `run_with` stage callback and the engine's
//!   reports: `engine.stages`, `engine.self_s` (run wall time minus the
//!   child spans that ran on the calling thread), `engine.detector_calls`
//!   (logical), `engine.physical_calls`, `engine.coalesced_frames`,
//!   `engine.pooled_dispatches`, `engine.pool_utilisation` (`detect.busy_s`
//!   over threads × run wall time).  They move `wall_s` and
//!   `detector_frames` on `detect_bound`; `engine.self_s` also bounds what
//!   orchestration can save on `pick_bound`.
//! * engine cache, from `cache_stats()`: `cache.hits`, `cache.misses`,
//!   `cache.hit_ratio`, `cache.evictions`.  They move `detector_frames` and
//!   `wall_s` on `detect_bound`'s re-issued waves; the cache is off elsewhere.
//! * `exsample-track`, timed by a `Discriminator::observe` wrapper:
//!   `track.observe_calls`, `track.observe_s`.  They move `wall_s` on
//!   `checkpointed`.
//! * `exsample-store`, timed by the bench's `StageSink` (which calls
//!   `BeliefStore::append_delta` / `append_result` / `commit_stage`) over a
//!   `Storage` wrapper around `FsStorage`: `store.commits`,
//!   `store.commit_s`, `store.commit_us_p50`, `store.commit_us_p99`,
//!   `store.fsyncs`, `store.fsync_s`, `store.bytes_written`,
//!   `store.bytes_per_observation`, `store.compactions`, `store.open_s`,
//!   `store.records_replayed`.  They move `wall_s` and `query_s_p50` on
//!   `checkpointed`; no change predicted on the other two workloads.
//! * `exsample-data`: `data.generate_s`, which moves `setup_s` everywhere.
//! * trace: `trace.overhead_s`, the traced repetitions' median `wall_s`
//!   minus the untraced ones' (noise can make it slightly negative).
//!
//! Timings use the tail rule: a `_p99` figure is the highest of p99, p90
//! and p50 that leaves at least ten samples beyond it, and the text output
//! names the percentile used.  Spans (name, start, end, parent — the
//! enclosing call, else the stage, whose parent is the query run — and
//! query id) stay in memory; `--trace-file` writes the last traced
//! repetition's spans as JSON lines when the run ends.
//!
//! ## Measured shares
//!
//! Traced runs (`--trace 1 --seconds 30 --seed 1`) on a 2-vCPU x86-64
//! virtual machine; each share is of the traced repetitions' median
//! `wall_s`:
//!
//! * `pick_bound` (1.46 s): `core.pick_s` 1.33 s (91%), `engine.self_s`
//!   4%, `detect.busy_s` 3%, `core.record_s` 1%.
//! * `detect_bound` (1.89 s): `detect.caller_thread_s` 1.38 s (73%), plus
//!   1.37 s on the pool helper (`detect.busy_s` 2.75 s,
//!   `engine.pool_utilisation` 0.73); `engine.self_s` 16% (it includes
//!   waiting for the helper), `core.pick_s` 8%, `cache.hit_ratio` 0.40.
//! * `checkpointed` (5.85 s): `store.commit_s` 5.57 s (95%), of which
//!   `store.fsync_s` 4.96 s; `core.pick_s` 2%, `track.observe_s` 0.2%.
//!
//! Ten runs per workload (seeds 2000–2009, `--seconds 30`) spread, as the
//! interquartile range over the median: `wall_s` 18% / 10% / 12%
//! (`pick_bound` / `detect_bound` / `checkpointed`), `query_s_p50`
//! 12% / 10% / 12%, `demanded_frames` 6% / 12% / 10%.  The frame counts
//! spread with the seed's dataset and queries; `pick_bound`'s times also
//! move with the host's CPU contention (19–29 µs per frame between runs).
//!
//! ## Earlier snapshots
//!
//! The repository root's `BENCH_hot_path.json`, `BENCH_sharded.json` and
//! `BENCH_multi_query.json` are microbenchmark snapshots from a 1-vCPU
//! host.  This benchmark supersedes them as the measure of end-to-end and
//! per-layer performance; they are left in place for now.

mod stats;
mod trace;
mod workloads;

use stats::{median, tail, Tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workloads::{Counters, Inputs, Rep, Workload};

const USAGE: &str = "usage: searchbench --workload <pick_bound|detect_bound|checkpointed|all> \
--seed <n> --seconds <s> [--trace <0|1>] [--trace-file <path>]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Fewest repetitions per measured phase, however short `--seconds` is.
const MIN_REPS: usize = 2;
/// Where the benchmark keeps store directories, under the working directory.
const SCRATCH: &str = ".searchbench-tmp";

/// The end-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("query_s_p50", "s"),
    ("demanded_frames", "frames"),
    ("detector_frames", "frames"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics and their units, in output order.
const PER_LAYER: [(&str, &str); 40] = [
    ("core.pick_calls", "count"),
    ("core.pick_s", "s"),
    ("core.pick_ns_per_frame", "ns/frame"),
    ("core.pick_us_p50", "us"),
    ("core.pick_us_p99", "us"),
    ("core.record_s", "s"),
    ("detect.calls", "count"),
    ("detect.frames", "frames"),
    ("detect.frames_per_call", "frames/call"),
    ("detect.busy_s", "s"),
    ("detect.caller_thread_s", "s"),
    ("detect.helper_thread_s", "s"),
    ("detect.call_us_p50", "us"),
    ("detect.call_us_p99", "us"),
    ("engine.stages", "count"),
    ("engine.self_s", "s"),
    ("engine.detector_calls", "count"),
    ("engine.physical_calls", "count"),
    ("engine.coalesced_frames", "frames"),
    ("engine.pooled_dispatches", "count"),
    ("engine.pool_utilisation", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("track.observe_calls", "count"),
    ("track.observe_s", "s"),
    ("store.commits", "count"),
    ("store.commit_s", "s"),
    ("store.commit_us_p50", "us"),
    ("store.commit_us_p99", "us"),
    ("store.fsyncs", "count"),
    ("store.fsync_s", "s"),
    ("store.bytes_written", "B"),
    ("store.bytes_per_observation", "B/obs"),
    ("store.compactions", "count"),
    ("store.open_s", "s"),
    ("store.records_replayed", "count"),
    ("data.generate_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    trace_file: Option<PathBuf>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut trace_file) =
            (None, None, None, None, None);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    })
                }
                "--trace-file" => trace_file = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if workload != "all" && Workload::parse(&workload).is_none() {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            trace_file,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("searchbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (Workload::parse(&args.workload), args.trace) {
        (Some(workload), Some(traced)) => run_workload(workload, traced, &args),
        _ => run_children(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("searchbench: {error}");
            ExitCode::from(1)
        }
    }
}

/// Run each requested (workload, mode) pair as a child process and wait
/// for it.  Returns whether every child passed.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(workload) => vec![workload],
        None => Workload::ALL.to_vec(),
    };
    let modes: Vec<&str> = match args.trace {
        Some(false) => vec!["0"],
        Some(true) => vec!["1"],
        None => vec!["0", "1"],
    };
    let mut passed = true;
    for workload in workloads {
        for &mode in &modes {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", mode])
                .status()
                .map_err(|e| format!("running {}: {e}", workload.name()))?;
            passed &= status.success();
        }
    }
    println!("# all runs {}", if passed { "passed" } else { "FAILED" });
    Ok(passed)
}

/// Measure one workload in one mode, print its metrics, and return whether
/// the output check passed.
fn run_workload(workload: Workload, traced: bool, args: &Args) -> Result<bool, String> {
    let scratch = Path::new(SCRATCH).join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let result = measure(workload, traced, args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    result
}

/// What the output check found over every repetition.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Check {
    /// Check `rep`'s queries against their output rules and against the
    /// first repetition's fingerprints.
    fn rep(&mut self, rep: &Rep, baseline: &Rep, phase: &str) {
        for (query, expected) in rep.queries.iter().zip(&baseline.queries) {
            self.attempted += 1;
            let problem = query.problem.clone().or_else(|| {
                (query.fingerprint != expected.fingerprint)
                    .then(|| format!("counts differ from the first untraced repetition ({phase})"))
            });
            if let Some(problem) = problem {
                self.failed += 1;
                if self.messages.len() < 8 {
                    self.messages.push(format!("{}: {problem}", query.label));
                }
            }
        }
    }
}

fn measure(workload: Workload, traced: bool, args: &Args, scratch: &Path) -> Result<bool, String> {
    println!(
        "# searchbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    println!("# why: {}", workload.why());

    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let generated = Inputs::generate(workload, args.seed);
        generate_s.push(start.elapsed().as_secs_f64());
        workloads::construct_probe(workload, &generated, scratch)?;
        setup_s.push(start.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");
    println!(
        "# inputs: dataset={:?} frames={} chunks={} queries={}",
        inputs.dataset.name(),
        inputs.dataset.total_frames(),
        inputs.dataset.chunking().len(),
        inputs.queries.len()
    );

    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if traced { budget / 2 } else { budget };
    let untraced = repeat(untraced_budget, || {
        workloads::run_rep(workload, &inputs, None, scratch)
    })?;
    let mut check = Check::default();
    for rep in &untraced {
        check.rep(rep, &untraced[0], "untraced");
    }

    let metrics = if traced {
        let mut last_tracer = None;
        let mut samples: Vec<Vec<f64>> = Vec::new();
        let traced_reps = repeat(budget - untraced_budget, || {
            let tracer = Tracer::new();
            let rep = workloads::run_rep(workload, &inputs, Some(&tracer), scratch)?;
            samples.push(layer_metrics(&tracer, &rep, median(&generate_s)));
            last_tracer = Some(tracer);
            Ok(rep)
        })?;
        for rep in &traced_reps {
            check.rep(rep, &untraced[0], "traced");
        }
        if let (Some(path), Some(tracer)) = (&args.trace_file, &last_tracer) {
            write_trace(path, tracer)?;
        }
        let overhead = median(&walls(&traced_reps)) - median(&walls(&untraced));
        println!(
            "# reps: untraced={} (wall_s median {} s) traced={} (wall_s median {} s)",
            untraced.len(),
            median(&walls(&untraced)),
            traced_reps.len(),
            median(&walls(&traced_reps))
        );
        PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| {
                let value = if name == "trace.overhead_s" {
                    overhead
                } else {
                    median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>())
                };
                (name, value, unit)
            })
            .collect::<Vec<_>>()
    } else {
        println!("# reps: untraced={}", untraced.len());
        let query_s: Vec<f64> = untraced.iter().flat_map(|r| r.query_s.clone()).collect();
        let Tail { per_mille, value } = tail(&query_s, 990);
        println!(
            "# query_s: p50={} s, p{}={} s, n={}",
            median(&query_s),
            per_mille as f64 / 10.0,
            value,
            query_s.len()
        );
        let first = &untraced[0].counters;
        let values = [
            median(&walls(&untraced)),
            median(&query_s),
            first.demanded_frames as f64,
            first.detector_frames as f64,
            median(&setup_s),
            peak_rss_mb()?,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    for message in &check.messages {
        println!("# CHECK FAILED {message}");
    }
    println!(
        "# failed_ratio={} ({} of {} queries)",
        check.failed as f64 / check.attempted.max(1) as f64,
        check.failed,
        check.attempted
    );
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    let correct = check.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted,
        check.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Run `rep` until `budget` has passed, at least [`MIN_REPS`] times.
fn repeat(
    budget: Duration,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(rep()?);
    }
    Ok(reps)
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// Per-layer metrics of one traced repetition, in [`PER_LAYER`] order
/// (`trace.overhead_s` is filled in later from the phase medians).
fn layer_metrics(tracer: &Tracer, rep: &Rep, generate_s: f64) -> Vec<f64> {
    let spans = tracer.spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let secs = |name: &'static str| named(name).map(Span::ns).sum::<u64>() as f64 * 1e-9;
    let count = |name: &'static str| named(name).count() as f64;
    let frames = |name: &'static str| named(name).map(|s| s.frames).sum::<u64>() as f64;
    let micros =
        |name: &'static str| -> Vec<f64> { named(name).map(|s| s.ns() as f64 * 1e-3).collect() };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let c: &Counters = &rep.counters;
    let pick_us = micros("pick");
    let detect_us = micros("detect");
    let commit_us = micros("commit");
    let detect_busy = secs("detect");
    let detect_caller = named("detect")
        .filter(|s| s.on_caller)
        .map(Span::ns)
        .sum::<u64>() as f64
        * 1e-9;
    let runs: Vec<&Span> = named("run").collect();
    let run_s = runs.iter().map(|s| s.ns()).sum::<u64>() as f64 * 1e-9;
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.on_caller && s.name != "run" && s.name != "stage")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let engine_self = runs
        .iter()
        .map(|run| stats::self_time((run.start_ns, run.end_ns), &children))
        .sum::<u64>() as f64
        * 1e-9;
    let bytes = tracer.bytes_written() as f64;
    let cache_probes = (c.cache_hits + c.cache_misses) as f64;
    vec![
        count("pick"),
        secs("pick"),
        ratio(secs("pick") * 1e9, frames("pick")),
        median(&pick_us),
        tail(&pick_us, 990).value,
        secs("record"),
        count("detect"),
        frames("detect"),
        ratio(frames("detect"), count("detect")),
        detect_busy,
        detect_caller,
        detect_busy - detect_caller,
        median(&detect_us),
        tail(&detect_us, 990).value,
        c.stages as f64,
        engine_self,
        c.detector_calls as f64,
        c.physical_calls as f64,
        c.demanded_frames
            .saturating_sub(c.detector_frames + c.cache_hits) as f64,
        c.pooled_dispatches as f64,
        ratio(detect_busy, c.threads.max(1) as f64 * run_s),
        c.cache_hits as f64,
        c.cache_misses as f64,
        ratio(c.cache_hits as f64, cache_probes),
        c.cache_evictions as f64,
        count("observe"),
        secs("observe"),
        c.commits as f64,
        secs("commit"),
        median(&commit_us),
        tail(&commit_us, 990).value,
        count("fsync"),
        secs("fsync"),
        bytes,
        ratio(bytes, c.observations as f64),
        c.compactions as f64,
        secs("open"),
        c.records_replayed as f64,
        generate_s,
        0.0,
    ]
}

fn write_trace(path: &Path, tracer: &Tracer) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_jsonl(&mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Peak resident memory of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak memory: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
