//! One round: set-up, client phase, load bursts and statements,
//! drop and restart — the sequence every run repeats for its length.
//!
//! Load is closed-loop from this one thread: it prefilters, enqueues,
//! drains and issues each statement only after the previous call has
//! returned. With 1 ingest worker and the per-query shard threads, at
//! most two threads are runnable at once.

use crate::oracle::Answer;
use crate::spec::{build_plan, Inputs, Step, Via};
use ciao::LoadStats;
use ciao_client::ChunkFilterResult;
use ciao_columnar::Schema;
use ciao_service::{Service, ServiceConfig, StorageConfig, SyncPolicy};
use ciao_telemetry::{SpanId, SpanTree};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per round; `setup_s` reports the median over all of them.
pub const SETUP_REPEATS: usize = 3;

/// The WAL sync policy of every workload: one `fsync` per 16 appends
/// (and at rotation and checkpoint), so the log's cost shows without
/// per-chunk device latency dominating the ingest figures.
pub const SYNC: SyncPolicy = SyncPolicy::EveryN(16);

/// The service configuration every workload runs under.
pub fn service_config(shards: usize, dir: &Path) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(shards)
        .with_workers(1)
        .with_storage(StorageConfig::new(dir).with_sync(SYNC))
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCount {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl OpCount {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another count.
    pub fn add(&mut self, other: OpCount) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Counters the property checks compare after the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed {
    /// Cumulative load stats just before the drop.
    pub load: LoadStats,
    /// `ServiceMetrics::ingested_records` just before the drop.
    pub ingested_records: u64,
    /// Chunks whose `enqueue_wait` acked.
    pub acked_chunks: u64,
    /// `durability().wal_appends` just before the drop.
    pub wal_appends: u64,
    /// `durability().wal_syncs` just before the drop.
    pub wal_syncs: u64,
    /// `durability().wal_replayed` of the restarted service.
    pub replayed: u64,
    /// Producer time blocked in `enqueue_wait` (`metrics().blocked`).
    pub blocked: Duration,
    /// Rows the compaction ticks promoted.
    pub promoted: u64,
}

/// Everything one round measured and recorded.
#[derive(Debug, Default)]
pub struct Round {
    /// Each set-up: plan + schema + `try_start` on an empty directory.
    pub setup_s: Vec<f64>,
    /// `PushdownPlan::build` alone, per set-up.
    pub plan_s: Vec<f64>,
    /// The client phase.
    pub client_s: f64,
    /// Per chunk: its `Prefilter::run_chunk` time.
    pub chunk_s: Vec<f64>,
    /// Per script step: a burst's `enqueue_wait` calls plus its
    /// `drain`, a statement call, a compaction tick or a checkpoint.
    pub step_s: Vec<f64>,
    /// Client phase + load-and-query phase.
    pub e2e_s: f64,
    /// `try_start` on the dropped service's directory.
    pub recovery_s: f64,
    /// Bytes in the storage directory just before the drop.
    pub storage_bytes: u64,
    /// Bytes the WAL grew by over the round (traced rounds only).
    pub wal_bytes: u64,
    /// Snapshot bytes just before the drop (traced rounds only).
    pub snapshot_bytes: u64,
    /// Answer of each script step (`None` for other steps, or when the
    /// call failed or returned a malformed result).
    pub answers: Vec<Option<Answer>>,
    /// Answers of the post-restart statements.
    pub restart_answers: Vec<Option<Answer>>,
    /// The client's filter results, kept when asked for.
    pub filters: Option<Vec<ChunkFilterResult>>,
    /// `enqueue_wait` calls.
    pub enqueue: OpCount,
    /// Statement calls (during the run and after the restart).
    pub statement: OpCount,
    /// Counters for the property checks.
    pub observed: Observed,
}

/// Times calls and, in a traced round, wraps each in a span.
struct Clock<'a> {
    tree: Option<&'a mut SpanTree>,
}

impl Clock<'_> {
    fn open(&mut self, name: &str) -> Option<SpanId> {
        self.tree.as_deref_mut().map(|t| t.begin(name))
    }

    fn close(&mut self, span: Option<SpanId>) {
        if let (Some(t), Some(s)) = (self.tree.as_deref_mut(), span) {
            t.end(s);
        }
    }

    fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.open(name);
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.close(span);
        (out, took)
    }
}

/// Sum of the sizes of the regular files under `dir` whose name starts
/// with `prefix` (all files for an empty prefix).
pub fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| {
            let meta = e.metadata().ok();
            if meta.as_ref().is_some_and(|m| m.is_dir()) {
                dir_bytes(&e.path(), prefix)
            } else if e.file_name().to_string_lossy().starts_with(prefix) {
                meta.map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_statement(service: &Service, inputs: &Inputs, index: usize) -> Option<Answer> {
    let stmt = &inputs.statements[index];
    match stmt.via {
        Via::Sql => service
            .query_sql(&stmt.sql)
            .ok()
            .and_then(|r| Answer::from_result(stmt.shape, &r)),
        Via::Count => Some(Answer::Count(service.query(&stmt.query).count as i64)),
    }
}

/// Runs one round. `tree` records spans around every call the round
/// makes (a traced round); `keep_filters` keeps the client's results
/// for the false-negative check.
pub fn run_round(
    inputs: &Inputs,
    shards: usize,
    base: &Path,
    tree: Option<&mut SpanTree>,
    keep_filters: bool,
) -> Round {
    let mut clock = Clock { tree };
    let traced = clock.tree.is_some();
    let mut round = Round {
        answers: vec![None; inputs.script.len()],
        ..Round::default()
    };

    // 1. Set-up, several times on empty directories; the last stays.
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        let dir = fresh_dir(base, &format!("setup{k}"));
        let span = clock.open("setup");
        let (plan, plan_t) = clock.call("optimizer.plan", || {
            build_plan(&inputs.queries, &inputs.sample, inputs.budget)
        });
        let (schema, schema_t) = clock.call("columnar.schema", || {
            Arc::new(Schema::infer_lenient(&inputs.sample).expect("sample has a schema"))
        });
        let for_restart = plan.clone();
        let (service, start_t) = clock.call("service.start", || {
            Service::try_start(plan, Arc::clone(&schema), service_config(shards, &dir))
                .expect("start on an empty directory")
        });
        clock.close(span);
        round.plan_s.push(plan_t.as_secs_f64());
        round
            .setup_s
            .push((plan_t + schema_t + start_t).as_secs_f64());
        if let Some((old, old_dir, _, _)) = kept.replace((service, dir, for_restart, schema)) {
            drop::<Service>(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (service, dir, plan, schema) = kept.expect("at least one set-up");

    // 2. Client phase over every chunk.
    let chunks = inputs.chunks.clone();
    let prefilter = service.prefilter();
    let client = clock.open("client");
    let started = Instant::now();
    let mut filters = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let (filter, took) = clock.call("client.prefilter", || prefilter.run_chunk(chunk));
        filters.push(filter);
        round.chunk_s.push(took.as_secs_f64());
    }
    round.client_s = started.elapsed().as_secs_f64();
    clock.close(client);
    if keep_filters {
        round.filters = Some(filters.clone());
    }

    // 3. Bursts, statements, compaction ticks and checkpoints.
    let load = clock.open("load");
    let started = Instant::now();
    let mut pending = chunks.into_iter().zip(filters);
    let mut wal_mark = 0;
    for (i, step) in inputs.script.iter().enumerate() {
        let took = match *step {
            Step::Burst(n) => {
                let mut burst = Duration::ZERO;
                for _ in 0..n {
                    let (chunk, filter) = pending.next().expect("script covers the chunks");
                    let (result, took) = clock.call("service.enqueue_wait", || {
                        service.enqueue_wait(chunk, filter)
                    });
                    burst += took;
                    round.enqueue.record(result.is_enqueued());
                    round.observed.acked_chunks += u64::from(result.is_enqueued());
                }
                burst + clock.call("service.drain", || service.drain()).1
            }
            Step::Run { index, .. } => {
                let name = match inputs.statements[index].via {
                    Via::Sql => "service.query_sql",
                    Via::Count => "service.query",
                };
                let (answer, took) = clock.call(name, || run_statement(&service, inputs, index));
                round.statement.record(answer.is_some());
                round.answers[i] = answer;
                took
            }
            Step::Compact => {
                let (stats, took) = clock.call("service.compact", || service.compact());
                round.observed.promoted += stats.promoted as u64;
                took
            }
            Step::Checkpoint => {
                if traced {
                    round.wal_bytes += dir_bytes(&dir, "wal-").saturating_sub(wal_mark);
                }
                let took = clock.call("storage.checkpoint", || service.checkpoint()).1;
                if traced {
                    wal_mark = dir_bytes(&dir, "wal-");
                }
                took
            }
        };
        round.step_s.push(took.as_secs_f64());
    }
    round.e2e_s = round.client_s + started.elapsed().as_secs_f64();
    clock.close(load);

    // 4. Record what the checks need, drop without shutdown, restart.
    let metrics = service.metrics();
    let durability = service.durability().expect("storage is on");
    round.observed.load = metrics.load();
    round.observed.ingested_records = metrics.ingested_records;
    round.observed.wal_appends = durability.wal_appends;
    round.observed.wal_syncs = durability.wal_syncs;
    round.observed.blocked = metrics.blocked;
    round.storage_bytes = dir_bytes(&dir, "");
    if traced {
        round.wal_bytes += dir_bytes(&dir, "wal-").saturating_sub(wal_mark);
        round.snapshot_bytes = dir_bytes(&dir, "snap-");
    }
    drop(service);

    let (restarted, took) = clock.call("storage.recover", || {
        Service::try_start(plan, schema, service_config(shards, &dir))
    });
    round.recovery_s = took.as_secs_f64();
    match restarted {
        Ok(service) => {
            round.observed.replayed = service.durability().map_or(0, |d| d.wal_replayed);
            for &index in &inputs.restart {
                let answer = clock
                    .call("restart.statement", || {
                        run_statement(&service, inputs, index)
                    })
                    .0;
                round.statement.record(answer.is_some());
                round.restart_answers.push(answer);
            }
        }
        Err(_) => round.restart_answers = vec![None; inputs.restart.len()],
    }
    let _ = std::fs::remove_dir_all(&dir);
    round
}
