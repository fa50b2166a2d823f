//! The traced run's decomposition pass and span accounting.
//!
//! The traced round wraps every service call in a span, which gives the
//! service-level figures. What happens *inside* those calls is measured
//! by replaying the same chunks and statements through the layers'
//! public functions on two standalone [`Shard`]s that mirror the
//! service's (round-robin routing, same plan, schema, block size and
//! compaction policy): `Prefilter::run_chunk`, `ciao_json::parse`,
//! `Shard::ingest`, `seal_epoch`, `execute_plan` / `execute`,
//! `compact`, SQL parse and plan, `PartialResult::merge` and
//! `finalize`. Every call gets a span in the same tree.

use crate::spec::{Inputs, Step, Via};
use ciao::{AdmissionPolicy, LoadStats, PushdownPlan};
use ciao_columnar::Schema;
use ciao_engine::{PartialResult, QueryMetrics, QueryOutcome};
use ciao_service::{CompactionPolicy, ServiceConfig, Shard};
use ciao_telemetry::SpanTree;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layer-internal parts of one statement.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatementParts {
    /// SQL parse + plan (0 for the count entry point).
    pub frontend: Duration,
    /// The slowest shard's seal + execution.
    pub slowest_shard: Duration,
    /// Partial merge and finalize.
    pub merge: Duration,
}

/// What the decomposition pass measured.
#[derive(Debug, Default)]
pub struct Decomposition {
    /// Per script step, the parts of a `Run` step.
    pub parts: Vec<Option<StatementParts>>,
    /// Time in `Shard::ingest`.
    pub ingest: Duration,
    /// Records through `Shard::ingest`.
    pub ingested: u64,
    /// Cumulative load stats over both shards at the end.
    pub load: LoadStats,
    /// `seal_epoch` calls that sealed an open epoch, µs.
    pub seal_us: Vec<f64>,
    /// Bytes `ciao_json::parse` consumed (admitted records at ingest,
    /// the parked store once at the end).
    pub parse_bytes: u64,
    /// Time in `ciao_json::parse`.
    pub parse: Duration,
    /// `ciao_sql::parse` per SQL statement, µs.
    pub sql_parse_us: Vec<f64>,
    /// `ciao_sql::plan` per SQL statement, µs.
    pub sql_plan_us: Vec<f64>,
    /// Shard execution summed over shards, per statement, µs.
    pub exec_us: Vec<f64>,
    /// Merge + finalize per statement, µs.
    pub merge_us: Vec<f64>,
    /// Merged scan counters over every statement.
    pub metrics: QueryMetrics,
    /// Statements replayed.
    pub statements: u64,
    /// `Shard::compact` per tick (both shards), ms.
    pub compact_ms: Vec<f64>,
}

fn timed<T>(tree: &mut SpanTree, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let span = tree.begin(name);
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    tree.end(span);
    (out, took)
}

/// Seals every shard (as a statement or checkpoint does), returning
/// each shard's seal time; seals of an open epoch enter `seal_us`.
fn seal_all(
    shards: &mut [Shard],
    open_epoch: &mut [bool],
    d: &mut Decomposition,
    tree: &mut SpanTree,
) -> Vec<Duration> {
    let mut took = vec![Duration::ZERO; shards.len()];
    for (i, shard) in shards.iter_mut().enumerate() {
        let t = timed(tree, "core.seal", || shard.seal_epoch()).1;
        if std::mem::take(&mut open_epoch[i]) {
            d.seal_us.push(t.as_secs_f64() * 1e6);
        }
        took[i] = t;
    }
    took
}

/// Replays a round's chunks and statements layer by layer.
pub fn decompose(
    inputs: &Inputs,
    plan: PushdownPlan,
    schema: Arc<Schema>,
    shards: usize,
    tree: &mut SpanTree,
) -> Decomposition {
    let top = tree.begin("decomposition");
    let defaults = ServiceConfig::default();
    let policy: CompactionPolicy = defaults.compaction;
    let admission = if plan.is_empty() {
        AdmissionPolicy::LoadAll
    } else {
        AdmissionPolicy::from_coverage(&plan.query_coverage)
    };
    let prefilter = plan.prefilter();
    let plan = Arc::new(plan);
    let mut shard_set: Vec<Shard> = (0..shards)
        .map(|_| Shard::new(Arc::clone(&plan), Arc::clone(&schema), defaults.block_size))
        .collect();
    let mut open_epoch = vec![false; shards];
    let mut d = Decomposition {
        parts: vec![None; inputs.script.len()],
        ..Decomposition::default()
    };
    let mut chunks = inputs.chunks.iter();
    let mut seq = 0usize;

    for (i, step) in inputs.script.iter().enumerate() {
        match *step {
            Step::Burst(n) => {
                for _ in 0..n {
                    let chunk = chunks.next().expect("script covers the chunks");
                    let filter = timed(tree, "client.prefilter", || prefilter.run_chunk(chunk)).0;
                    let mask = admission.admission_mask(&filter);
                    let (bytes, took) = timed(tree, "json.parse", || {
                        let mut bytes = 0u64;
                        for (r, record) in chunk.iter().enumerate() {
                            if mask.as_ref().is_none_or(|m| m.bit(r)) {
                                bytes += record.len() as u64;
                                std::hint::black_box(ciao_json::parse(record).ok());
                            }
                        }
                        bytes
                    });
                    d.parse_bytes += bytes;
                    d.parse += took;
                    let target = seq % shards;
                    seq += 1;
                    let shard = &mut shard_set[target];
                    d.ingest += timed(tree, "core.ingest", || shard.ingest(chunk, &filter)).1;
                    d.ingested += chunk.len() as u64;
                    open_epoch[target] = true;
                }
            }
            Step::Run { index, .. } => {
                let stmt = &inputs.statements[index];
                let span = tree.begin("statement");
                let seals = seal_all(&mut shard_set, &mut open_epoch, &mut d, tree);
                let mut parts = StatementParts::default();
                let mut exec = vec![Duration::ZERO; shards];
                match stmt.via {
                    Via::Sql => {
                        let (parsed, p) = timed(tree, "sql.parse", || {
                            ciao_sql::parse(&stmt.sql).expect("parses")
                        });
                        let (physical, q) = timed(tree, "sql.plan", || {
                            ciao_sql::plan(&parsed, &schema).expect("plans")
                        });
                        d.sql_parse_us.push(p.as_secs_f64() * 1e6);
                        d.sql_plan_us.push(q.as_secs_f64() * 1e6);
                        parts.frontend = p + q;
                        let mut partials = Vec::with_capacity(shards);
                        for (s, shard) in shard_set.iter_mut().enumerate() {
                            let (partial, t) =
                                timed(tree, "engine.exec", || shard.execute_plan(&physical));
                            exec[s] = t;
                            partials.push(partial);
                        }
                        let (result, m) = timed(tree, "engine.merge", || {
                            let mut merged = PartialResult::empty(&physical);
                            for partial in partials {
                                merged.merge(partial);
                            }
                            ciao_engine::finalize(&physical, merged)
                        });
                        parts.merge = m;
                        d.metrics.merge(&result.metrics);
                    }
                    Via::Count => {
                        let mut outcomes = Vec::with_capacity(shards);
                        for (s, shard) in shard_set.iter_mut().enumerate() {
                            let (outcome, t) =
                                timed(tree, "engine.exec", || shard.execute(&stmt.query));
                            exec[s] = t;
                            outcomes.push(outcome);
                        }
                        let (merged, m) = timed(tree, "engine.merge", || {
                            let mut merged = QueryOutcome::default();
                            for outcome in &outcomes {
                                merged.merge(outcome);
                            }
                            merged
                        });
                        parts.merge = m;
                        d.metrics.merge(&merged.metrics);
                    }
                }
                tree.end(span);
                parts.slowest_shard = seals
                    .iter()
                    .zip(&exec)
                    .map(|(s, e)| *s + *e)
                    .max()
                    .unwrap_or_default();
                d.exec_us
                    .push(exec.iter().sum::<Duration>().as_secs_f64() * 1e6);
                d.merge_us.push(parts.merge.as_secs_f64() * 1e6);
                d.statements += 1;
                d.parts[i] = Some(parts);
            }
            Step::Compact => {
                let took = timed(tree, "compactor.compact", || {
                    for shard in shard_set.iter_mut() {
                        shard.compact(&policy);
                    }
                })
                .1;
                open_epoch.iter_mut().for_each(|o| *o = false);
                d.compact_ms.push(took.as_secs_f64() * 1e3);
            }
            Step::Checkpoint => {
                seal_all(&mut shard_set, &mut open_epoch, &mut d, tree);
            }
        }
    }

    // What an uncovered statement parses: the parked store, once.
    let (bytes, took) = timed(tree, "json.parse", || {
        let mut bytes = 0u64;
        for shard in &shard_set {
            for row in shard.parked_rows() {
                bytes += row.len() as u64;
                std::hint::black_box(ciao_json::parse(row).ok());
            }
        }
        bytes
    });
    d.parse_bytes += bytes;
    d.parse += took;
    for shard in &shard_set {
        d.load.merge(&shard.snapshot().load);
    }
    tree.end(top);
    d
}

/// Self time per span name over the subtree of the first span called
/// `root`: each span's duration minus its children's.
pub fn self_times_under(tree: &SpanTree, root: &str) -> BTreeMap<String, Duration> {
    let spans = tree.spans();
    let mut out: BTreeMap<String, Duration> = BTreeMap::new();
    let Some(top) = spans.iter().position(|s| s.name() == root) else {
        return out;
    };
    let mut child_ns = vec![0u64; spans.len()];
    let mut inside = vec![false; spans.len()];
    inside[top] = true;
    // Parents precede children in creation order.
    for (i, span) in spans.iter().enumerate().skip(top + 1) {
        if let Some(p) = span.parent() {
            inside[i] = inside[p];
            child_ns[p] += span.dur_ns();
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if inside[i] {
            let own = span.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(span.name().to_owned()).or_default() += Duration::from_nanos(own);
        }
    }
    out
}

/// Durations of every span with this name, µs.
pub fn span_us(tree: &SpanTree, name: &str) -> Vec<f64> {
    tree.spans()
        .iter()
        .filter(|s| s.name() == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Durations of the `Run`-step spans of a traced round, in script
/// order (statement spans are the direct children of `load` named
/// `service.query_sql` or `service.query`).
pub fn statement_us(tree: &SpanTree) -> Vec<f64> {
    tree.spans()
        .iter()
        .filter(|s| matches!(s.name(), "service.query_sql" | "service.query"))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Share (%) of the `load` and `client` spans' wall clock that none of
/// their child spans covers: time the benchmark spent between calls.
pub fn unattributed_pct(tree: &SpanTree) -> f64 {
    let spans = tree.spans();
    let phases: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.name(), "client" | "load"))
        .map(|(i, _)| i)
        .collect();
    let wall: u64 = phases.iter().map(|&i| spans[i].dur_ns()).sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent().is_some_and(|p| phases.contains(&p)))
        .map(|s| s.dur_ns())
        .sum();
    100.0 * wall.saturating_sub(covered) as f64 / wall.max(1) as f64
}
