//! The CIAO repository benchmark.
//!
//! One run = one workload in its own process: generate the inputs from
//! the seed, repeat whole [rounds](round) for the requested length,
//! read the peak RSS, then check every recorded answer against the
//! independent [oracle] and the property checks. `--trace 1` instead
//! reports per-layer figures from a traced round and a decomposition
//! pass ([trace]) and writes a Chrome trace. See README.md.

pub mod env;
pub mod oracle;
pub mod round;
pub mod spec;
pub mod trace;

use crate::env::{CpuSample, Environment};
use crate::round::{run_round, OpCount, Round};
use crate::spec::{build_plan, Inputs, Scale, Step, Workload};
use crate::trace::Decomposition;
use ciao_telemetry::SpanTree;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured length: rounds start until this many seconds passed.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Service shards (2 for every reported figure).
    pub shards: usize,
    /// Where storage directories and Chrome traces go.
    pub out_dir: PathBuf,
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// A run's outcome.
#[derive(Debug)]
pub struct Report {
    /// Every answer matched the oracle and every property held.
    pub correct: bool,
    /// Attempted/failed per operation kind.
    pub ops: Vec<(&'static str, OpCount)>,
    /// Figures: end-to-end, or per-layer for a traced run.
    pub metrics: Vec<Metric>,
    /// Machine state over the run.
    pub env: Environment,
    /// Descriptions of the first failed checks.
    pub failures: Vec<String>,
    /// Input description (records, bytes, plan, statements).
    pub inputs: Vec<(&'static str, f64)>,
    /// Rounds measured.
    pub rounds: usize,
    /// Chrome trace written by a traced run.
    pub trace_file: Option<PathBuf>,
}

/// Linear-interpolated quantile (`q` in 0..=1); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn pooled(rounds: &[&Round], f: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// Per position of a per-round series, the `q`-quantile over the
/// rounds. Every round replays the same script, so position `i` is the
/// same operation in each.
fn per_op(rounds: &[&Round], q: f64, f: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    (0..f(rounds[0]).len())
        .map(|i| quantile(&rounds.iter().map(|r| f(r)[i]).collect::<Vec<_>>(), q))
        .collect()
}

/// The quantile over the rounds that stands for an operation that
/// hands work to other threads (bursts, statements, ticks). Interference
/// from the rest of the machine only ever adds time, and on a shared
/// 2-vCPU host it adds the most to cross-thread hand-offs: run medians
/// of these operations moved by up to 4x as steal time went from 1% to
/// 25%, while their 10th percentile over the rounds kept the run-to-run
/// spread at 2-13%. Single-threaded work (the client phase, recovery) is
/// reported by its median, which was the steadier of the two there.
const HANDOFF_QUANTILE: f64 = 0.1;

/// The ten end-to-end figures over untraced rounds.
fn end_to_end(inputs: &Inputs, rounds: &[&Round], rss_mb: f64) -> Vec<Metric> {
    let chunks = per_op(rounds, 0.5, |r| &r.chunk_s);
    let steps = per_op(rounds, HANDOFF_QUANTILE, |r| &r.step_s);
    let records = inputs.records as f64;
    let of = |keep: &dyn Fn(&Step) -> bool| -> Vec<f64> {
        inputs
            .script
            .iter()
            .zip(&steps)
            .filter(|(s, _)| keep(s))
            .map(|(_, t)| *t)
            .collect()
    };
    let bursts = of(&|s| matches!(s, Step::Burst(_)));
    let fresh = of(&|s| matches!(s, Step::Run { fresh: true, .. }));
    let other = of(&|s| matches!(s, Step::Run { fresh: false, .. }));
    let statements: f64 = fresh.iter().chain(&other).sum();
    let client: f64 = chunks.iter().sum();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(&pooled(rounds, |r| &r.setup_s))),
        m("client_ns_per_record", "ns", client * 1e9 / records),
        m("ingest_rps", "1/s", records / bursts.iter().sum::<f64>()),
        m("fresh_query_p50_us", "us", median(&fresh) * 1e6),
        m("query_p50_us", "us", median(&other) * 1e6),
        m(
            "query_qps",
            "1/s",
            (fresh.len() + other.len()) as f64 / statements,
        ),
        m("end_to_end_s", "s", client + steps.iter().sum::<f64>()),
        m("recovery_s", "s", per_round(rounds, |r| r.recovery_s)),
        m(
            "storage_bytes_per_input_byte",
            "B/B",
            per_round(rounds, |r| {
                r.storage_bytes as f64 / inputs.input_bytes as f64
            }),
        ),
        m("peak_rss_mb", "MiB", rss_mb),
    ]
}

/// The per-layer figures of a traced round and its decomposition.
fn per_layer(
    inputs: &Inputs,
    traced: &Round,
    tree: &SpanTree,
    d: &Decomposition,
    overhead_pct: f64,
) -> Vec<Metric> {
    let plan = build_plan(&inputs.queries, &inputs.sample, inputs.budget);
    let records = inputs.records as f64;
    let enqueue = trace::span_us(tree, "service.enqueue_wait");
    let statements = trace::statement_us(tree);
    let fanout: Vec<f64> = statements
        .iter()
        .zip(d.parts.iter().flatten())
        .map(|(us, p)| us - (p.frontend + p.slowest_shard + p.merge).as_secs_f64() * 1e6)
        .collect();
    let per_query = |n: usize| n as f64 / d.statements.max(1) as f64;
    let scan = &d.metrics.table_scan;
    let raw = &d.metrics.raw_scan;
    let mut own = trace::self_times_under(tree, "round");
    own.append(&mut trace::self_times_under(tree, "decomposition"));
    let self_ms = |layer: &str| {
        own.iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .sum::<f64>()
    };
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("optimizer.plan_ms", "ms", median(&traced.plan_s) * 1e3),
        m("optimizer.pushed_predicates", "count", plan.len() as f64),
        m("optimizer.predicted_cost_us", "us", plan.total_cost),
        m(
            "client.prefilter_mb_s",
            "MB/s",
            inputs.input_bytes as f64 / traced.client_s / 1e6,
        ),
        m(
            "core.ingest_ns_per_record",
            "ns",
            d.ingest.as_secs_f64() * 1e9 / d.ingested.max(1) as f64,
        ),
        m(
            "core.ingest_ns_per_loaded_record",
            "ns",
            d.ingest.as_secs_f64() * 1e9 / d.load.loaded_records.max(1) as f64,
        ),
        m("core.loading_ratio", "ratio", d.load.loading_ratio()),
        m("core.parked_records", "count", d.load.parked_records as f64),
        m("core.seal_us", "us", median(&d.seal_us)),
        m(
            "json.parse_mb_s",
            "MB/s",
            d.parse_bytes as f64 / d.parse.as_secs_f64().max(1e-9) / 1e6,
        ),
        m("service.enqueue_p50_us", "us", quantile(&enqueue, 0.5)),
        m("service.enqueue_p99_us", "us", quantile(&enqueue, 0.99)),
        m(
            "service.drain_ms",
            "ms",
            median(&trace::span_us(tree, "service.drain")) / 1e3,
        ),
        m(
            "service.blocked_ms",
            "ms",
            traced.observed.blocked.as_secs_f64() * 1e3,
        ),
        m(
            "service.query_sql_p50_us",
            "us",
            median(&trace::span_us(tree, "service.query_sql")),
        ),
        m(
            "service.query_count_p50_us",
            "us",
            median(&trace::span_us(tree, "service.query")),
        ),
        m("service.query_p99_us", "us", quantile(&statements, 0.99)),
        m("service.fanout_us", "us", median(&fanout)),
        m("sql.parse_us", "us", median(&d.sql_parse_us)),
        m("sql.plan_us", "us", median(&d.sql_plan_us)),
        m("engine.exec_us", "us", median(&d.exec_us)),
        m("engine.merge_us", "us", median(&d.merge_us)),
        m(
            "engine.rows_scanned_per_query",
            "rows",
            per_query(scan.rows_scanned),
        ),
        m(
            "engine.rows_skipped_per_query",
            "rows",
            per_query(scan.rows_skipped),
        ),
        m(
            "engine.blocks_pruned_share",
            "ratio",
            scan.blocks_pruned as f64 / (scan.blocks_visited + scan.blocks_pruned).max(1) as f64,
        ),
        m(
            "engine.rows_examined_per_result",
            "rows",
            (scan.rows_scanned + raw.records_parsed) as f64
                / d.metrics.total_matched().max(1) as f64,
        ),
        m(
            "engine.parked_parsed_per_query",
            "rows",
            per_query(raw.records_parsed),
        ),
        m(
            "service.compact_ms",
            "ms",
            median(&trace::span_us(tree, "service.compact")) / 1e3,
        ),
        m(
            "service.promoted_rows",
            "count",
            traced.observed.promoted as f64,
        ),
        m(
            "storage.wal_bytes_per_record",
            "B",
            traced.wal_bytes as f64 / records,
        ),
        m(
            "storage.wal_syncs",
            "count",
            traced.observed.wal_syncs as f64,
        ),
        m(
            "storage.checkpoint_ms",
            "ms",
            median(&trace::span_us(tree, "storage.checkpoint")) / 1e3,
        ),
        m(
            "storage.snapshot_bytes_per_input_byte",
            "B/B",
            traced.snapshot_bytes as f64 / inputs.input_bytes as f64,
        ),
        m(
            "storage.replayed_chunks",
            "count",
            traced.observed.replayed as f64,
        ),
        m("storage.recovery_ms", "ms", traced.recovery_s * 1e3),
        m("client.self_ms", "ms", self_ms("client")),
        m("service.self_ms", "ms", self_ms("service")),
        m("storage.self_ms", "ms", self_ms("storage")),
        m("core.self_ms", "ms", self_ms("core")),
        m("json.self_ms", "ms", self_ms("json")),
        m("sql.self_ms", "ms", self_ms("sql")),
        m("engine.self_ms", "ms", self_ms("engine")),
        m("compactor.self_ms", "ms", self_ms("compactor")),
        m("trace.unattributed_pct", "%", trace::unattributed_pct(tree)),
        m("trace.overhead_pct", "%", overhead_pct),
    ]
}

/// Compares what the rounds recorded against the oracle and the
/// property checks, counting each comparison as one operation.
fn check(
    inputs: &Inputs,
    rounds: &[&Round],
    oracle_ops: &mut OpCount,
    restart_ops: &mut OpCount,
    failures: &mut Vec<String>,
) {
    let plan = build_plan(&inputs.queries, &inputs.sample, inputs.budget);
    let pushed: Vec<_> = plan
        .predicates
        .iter()
        .map(|p| (p.id, p.clause.clone()))
        .collect();
    let filters = rounds.iter().find_map(|r| r.filters.as_deref());
    let expected = oracle::expected(inputs, &pushed, filters);
    let mut fail = |ops: &mut OpCount, ok: bool, what: String| {
        ops.record(ok);
        if !ok && failures.len() < 8 {
            failures.push(what);
        }
    };
    fail(
        oracle_ops,
        filters.is_some() && expected.false_negatives == 0,
        format!(
            "{} records have a 0 client bit for a clause they satisfy",
            expected.false_negatives
        ),
    );
    let records = inputs.records as u64;
    let chunks = inputs.chunks.len() as u64;
    let checkpoints = inputs.script.contains(&Step::Checkpoint);
    for (k, r) in rounds.iter().enumerate() {
        for (i, want) in expected.steps.iter().enumerate() {
            if let Some(want) = want {
                let got = &r.answers[i];
                fail(
                    oracle_ops,
                    got.as_ref() == Some(want),
                    format!("round {k} step {i}: got {got:?}, oracle {want:?}"),
                );
            }
        }
        let o = &r.observed;
        let load = o.load.loaded_records as u64 + o.load.parked_records as u64;
        fail(
            oracle_ops,
            load == records,
            format!("round {k}: loaded + parked = {load}, ingested {records}"),
        );
        fail(
            oracle_ops,
            o.ingested_records == records,
            format!(
                "round {k}: service ingested {} of {records} records",
                o.ingested_records
            ),
        );
        fail(
            oracle_ops,
            o.acked_chunks == chunks && o.wal_appends == o.acked_chunks,
            format!(
                "round {k}: {} WAL appends for {} acked chunks",
                o.wal_appends, o.acked_chunks
            ),
        );
        // Without a checkpoint the whole log replays; with one, only
        // the tail the script leaves after the last checkpoint.
        let replay_ok = if checkpoints {
            o.replayed > 0 && o.replayed < chunks
        } else {
            o.replayed == chunks
        };
        fail(
            restart_ops,
            replay_ok,
            format!("round {k}: restart replayed {} chunks", o.replayed),
        );
        for (j, want) in expected.restart.iter().enumerate() {
            let got = &r.restart_answers[j];
            fail(
                restart_ops,
                got.as_ref() == Some(want),
                format!("round {k} restart statement {j}: got {got:?}, oracle {want:?}"),
            );
        }
    }
}

/// Runs one workload for the requested length and checks it.
pub fn run(opts: &Options) -> Report {
    let cpu_start = CpuSample::now();
    let inputs = Inputs::generate(opts.workload, opts.seed, opts.scale);
    let base = opts.out_dir.join(format!(
        "data-{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    let started = Instant::now();
    let more = |n: usize| n == 0 || started.elapsed().as_secs_f64() < opts.seconds;

    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut layers = None;
    // The peak after the first round covers one service lifetime (set-up,
    // load, drop, restart); later rounds only add what the allocator
    // kept from earlier services, which varied by 40 MiB between runs.
    let mut rss_mb = None;
    if opts.trace {
        // Untraced and traced rounds alternate, so the overhead figure
        // compares rounds under the same conditions; the first traced
        // round is followed at once by the decomposition pass.
        while more(traced.len()) {
            rounds.push(run_round(
                &inputs,
                opts.shards,
                &base,
                None,
                rounds.is_empty(),
            ));
            rss_mb.get_or_insert_with(env::peak_rss_mb);
            let mut tree = SpanTree::new(opts.workload.name());
            let span = tree.begin("round");
            let round = run_round(&inputs, opts.shards, &base, Some(&mut tree), false);
            tree.end(span);
            if layers.is_none() {
                let plan = build_plan(&inputs.queries, &inputs.sample, inputs.budget);
                let schema = std::sync::Arc::new(
                    ciao_columnar::Schema::infer_lenient(&inputs.sample).expect("schema"),
                );
                let d = trace::decompose(&inputs, plan, schema, opts.shards, &mut tree);
                tree.finish();
                layers = Some((tree, d));
            }
            traced.push(round);
        }
    } else {
        while more(rounds.len()) {
            rounds.push(run_round(
                &inputs,
                opts.shards,
                &base,
                None,
                rounds.is_empty(),
            ));
            rss_mb.get_or_insert_with(env::peak_rss_mb);
        }
    }
    let cpu_end = CpuSample::now();
    let rss_mb = rss_mb.expect("at least one round");
    let _ = std::fs::remove_dir_all(&base);

    let (mut enqueue, mut statement) = (OpCount::default(), OpCount::default());
    for r in rounds.iter().chain(&traced) {
        enqueue.add(r.enqueue);
        statement.add(r.statement);
    }
    let (mut oracle_ops, mut restart_ops) = (OpCount::default(), OpCount::default());
    let mut failures = Vec::new();
    let all: Vec<&Round> = rounds.iter().chain(&traced).collect();
    check(
        &inputs,
        &all,
        &mut oracle_ops,
        &mut restart_ops,
        &mut failures,
    );

    let untraced: Vec<&Round> = rounds.iter().collect();
    let mut trace_file = None;
    let metrics = match layers {
        None => end_to_end(&inputs, &untraced, rss_mb),
        Some((tree, d)) => {
            let traced_e2e = median(&traced.iter().map(|r| r.e2e_s).collect::<Vec<_>>());
            let untraced_e2e = per_round(&untraced, |r| r.e2e_s);
            let overhead = 100.0 * (traced_e2e / untraced_e2e - 1.0);
            let path = opts.out_dir.join(format!(
                "trace-{}-seed{}.json",
                opts.workload.name(),
                opts.seed
            ));
            if std::fs::create_dir_all(&opts.out_dir).is_ok()
                && std::fs::write(&path, tree.to_chrome_trace()).is_ok()
            {
                trace_file = Some(path);
            }
            per_layer(&inputs, &traced[0], &tree, &d, overhead)
        }
    };

    let ops = vec![
        ("enqueue", enqueue),
        ("statement", statement),
        ("oracle", oracle_ops),
        ("restart", restart_ops),
    ];
    let plan = build_plan(&inputs.queries, &inputs.sample, inputs.budget);
    let load = all[0].observed.load;
    let count =
        |keep: &dyn Fn(&Step) -> bool| inputs.script.iter().filter(|s| keep(s)).count() as f64;
    let describe = vec![
        ("records", inputs.records as f64),
        ("input_bytes", inputs.input_bytes as f64),
        ("chunks", inputs.chunks.len() as f64),
        ("budget_us", inputs.budget),
        ("pushed_predicates", plan.len() as f64),
        ("loading_ratio", load.loading_ratio()),
        (
            "statements_per_round",
            count(&|s| matches!(s, Step::Run { .. })),
        ),
        ("bursts_per_round", count(&|s| matches!(s, Step::Burst(_)))),
    ];
    Report {
        correct: ops.iter().all(|(_, c)| c.failed == 0),
        ops,
        metrics,
        env: Environment::between(cpu_start, cpu_end),
        failures,
        inputs: describe,
        rounds: all.len(),
        trace_file,
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    /// Total attempted operations.
    pub fn attempted(&self) -> u64 {
        self.ops.iter().map(|(_, c)| c.attempted).sum()
    }

    /// Total failed operations.
    pub fn failed(&self) -> u64 {
        self.ops.iter().map(|(_, c)| c.failed).sum()
    }

    /// The context lines printed before the result: environment,
    /// inputs, and per-kind operation counts.
    pub fn context_json(&self) -> String {
        let env = &self.env;
        let inputs: Vec<String> = self
            .inputs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), number(*v)))
            .collect();
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|(k, c)| {
                format!(
                    "{}: {{\"attempted\": {}, \"failed\": {}}}",
                    json_str(k),
                    c.attempted,
                    c.failed
                )
            })
            .collect();
        format!(
            "{{\"env\": {{\"nproc\": {}, \"cpu_model\": {}, \"steal_pct\": {}, \"cpu_pressure_pct\": {}}}, \
             \"rounds\": {}, \"inputs\": {{{}}}, \"ops\": {{{}}}}}",
            env.nproc,
            json_str(&env.cpu_model),
            number(env.steal_pct),
            number(env.cpu_pressure_pct),
            self.rounds,
            inputs.join(", "),
            ops.join(", ")
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    number(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}
