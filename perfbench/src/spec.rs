//! Workload definitions and the inputs each one derives from its seed.
//!
//! A workload is a dataset, a planning preset, a budget rule and a
//! *script*: the fixed sequence of bursts, statements, compaction ticks
//! and checkpoints every round of a run replays. Everything here is a
//! pure function of `(workload, seed, scale)`; the program under test
//! only ever sees the generated chunks and statement texts.

use ciao::PushdownPlan;
use ciao_datagen::{Dataset, WinLogGenerator, YcsbGenerator, YelpGenerator};
use ciao_json::{JsonValue, RecordChunk};
use ciao_optimizer::CostModel;
use ciao_predicate::Query;
use ciao_workload::{build_pool, WorkloadConfig};

/// The three benchmark workloads, one per paper dataset and preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB records, preset B at the smallest covering budget: partial
    /// loading, many bursts, few statements. Stresses the ingest path.
    YcsbLoad,
    /// Yelp records, preset C at a budget that leaves queries
    /// uncovered: everything loads, then a long query phase.
    YelpQuery,
    /// WinLog records, preset A: nearly everything parks; bursts,
    /// covered and uncovered statements, compaction and checkpoints
    /// interleave.
    WinlogDrift,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::YcsbLoad,
        Workload::YelpQuery,
        Workload::WinlogDrift,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbLoad => "ycsb_load",
            Workload::YelpQuery => "yelp_query",
            Workload::WinlogDrift => "winlog_drift",
        }
    }

    /// Looks a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn dataset(self) -> Dataset {
        match self {
            Workload::YcsbLoad => Dataset::Ycsb,
            Workload::YelpQuery => Dataset::Yelp,
            Workload::WinlogDrift => Dataset::WinLog,
        }
    }
}

/// Input sizes. `full` is what the benchmark measures; `tiny` is the
/// smoke scale the package's own tests run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records in the stream.
    pub records: usize,
    /// Records per client chunk.
    pub chunk_records: usize,
    /// Leading records the planner samples.
    pub sample: usize,
    /// Queries in the planning workload.
    pub queries: usize,
    /// Statements in `yelp_query`'s query phase.
    pub query_phase: usize,
}

impl Scale {
    /// The measured scale for a workload.
    pub fn full(workload: Workload) -> Scale {
        match workload {
            Workload::YcsbLoad => Scale {
                records: 32_000,
                chunk_records: 500,
                sample: 2_000,
                queries: 100,
                query_phase: 0,
            },
            Workload::YelpQuery => Scale {
                records: 24_000,
                chunk_records: 500,
                sample: 2_000,
                queries: 100,
                query_phase: 400,
            },
            Workload::WinlogDrift => Scale {
                records: 32_000,
                chunk_records: 250,
                sample: 2_000,
                queries: 100,
                query_phase: 0,
            },
        }
    }

    /// The smoke scale: same script shape, a few hundred records.
    pub fn tiny() -> Scale {
        Scale {
            records: 1_200,
            chunk_records: 50,
            sample: 400,
            queries: 20,
            query_phase: 24,
        }
    }
}

/// Which service entry point runs a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `Service::query_sql` on the statement text.
    Sql,
    /// `Service::query` on the parsed `COUNT(*)` query.
    Count,
}

/// What a statement computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `COUNT(*)` under the WHERE clauses.
    Count,
    /// `stars, COUNT(*), SUM(useful), AVG(useful)` grouped and ordered
    /// by `stars` under the WHERE clauses.
    StarsAggregate,
}

/// One statement of a workload.
#[derive(Debug, Clone)]
pub struct Statement {
    /// The WHERE clauses (a conjunction), as the planner sees them.
    pub query: Query,
    /// SQL text sent to `query_sql` (unused for [`Via::Count`]).
    pub sql: String,
    /// Entry point.
    pub via: Via,
    /// Result shape.
    pub shape: Shape,
}

impl Statement {
    fn new(query: Query, via: Via, shape: Shape) -> Statement {
        let filter = query
            .clauses
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" AND ");
        let sql = match shape {
            Shape::Count => format!("SELECT COUNT(*) FROM t WHERE {filter}"),
            Shape::StarsAggregate => format!(
                "SELECT stars, COUNT(*), SUM(useful), AVG(useful) FROM t WHERE {filter} \
                 GROUP BY stars ORDER BY stars"
            ),
        };
        Statement {
            query,
            sql,
            via,
            shape,
        }
    }
}

/// One step of a round's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Enqueue the next `n` chunks with `enqueue_wait`, then `drain`.
    Burst(usize),
    /// Run statement `index`; `fresh` marks the first after a burst.
    Run {
        /// Index into [`Inputs::statements`].
        index: usize,
        /// First statement after a burst.
        fresh: bool,
    },
    /// `Service::compact`.
    Compact,
    /// `Service::checkpoint`.
    Checkpoint,
}

/// Everything a run needs, derived from `(workload, seed, scale)`.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// The scale.
    pub scale: Scale,
    /// Planning sample: the stream's leading records.
    pub sample: Vec<JsonValue>,
    /// Planning workload (the paper preset).
    pub queries: Vec<Query>,
    /// Client budget the plan is built at (µs per record).
    pub budget: f64,
    /// The record stream, chunked.
    pub chunks: Vec<RecordChunk>,
    /// Total records.
    pub records: usize,
    /// NDJSON bytes of the stream (one newline per record).
    pub input_bytes: usize,
    /// Every statement the script runs.
    pub statements: Vec<Statement>,
    /// The round script.
    pub script: Vec<Step>,
    /// Statements run again after the restart (over every record).
    pub restart: Vec<usize>,
}

/// A deterministic record stream, one record at a time, so a run never
/// has to hold the parsed records in memory.
pub enum RecordStream {
    /// YCSB.
    Ycsb(YcsbGenerator),
    /// Yelp.
    Yelp(YelpGenerator),
    /// WinLog.
    WinLog(WinLogGenerator),
}

impl RecordStream {
    /// The stream a workload draws its records from.
    pub fn new(workload: Workload, seed: u64) -> RecordStream {
        let seed = data_seed(seed);
        match workload.dataset() {
            Dataset::Ycsb => RecordStream::Ycsb(YcsbGenerator::new(seed)),
            Dataset::Yelp => RecordStream::Yelp(YelpGenerator::new(seed)),
            Dataset::WinLog => RecordStream::WinLog(WinLogGenerator::new(seed)),
        }
    }

    /// The next record.
    pub fn next_record(&mut self) -> JsonValue {
        match self {
            RecordStream::Ycsb(g) => g.record(),
            RecordStream::Yelp(g) => g.record(),
            RecordStream::WinLog(g) => g.record(),
        }
    }
}

/// Seed of the planning workloads (paper presets) and of `winlog_drift`'s
/// uncovered statements.
pub const WORKLOAD_SEED: u64 = 99;

fn data_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0da7a
}

/// Builds the pushdown plan a run uses (what set-up times), with the
/// uncalibrated cost model.
pub fn build_plan(queries: &[Query], sample: &[JsonValue], budget: f64) -> PushdownPlan {
    PushdownPlan::build(queries, sample, &CostModel::default_uncalibrated(), budget)
        .expect("workload is not empty")
}

/// The smallest budget (to 1%) at which every planned query has a
/// pushed clause. Coverage grows with the budget, so bisect.
fn min_covering_budget(queries: &[Query], sample: &[JsonValue]) -> f64 {
    let covers = |b: f64| build_plan(queries, sample, b).is_fully_covering();
    let mut hi = 1.0;
    while !covers(hi) {
        hi *= 2.0;
        assert!(hi < 1e7, "no budget covers the workload");
    }
    let mut lo = 0.0;
    while hi - lo > hi * 0.01 {
        let mid = (lo + hi) / 2.0;
        if covers(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

impl Inputs {
    /// Generates a workload's inputs from a seed.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let dataset = workload.dataset();
        let mut stream = RecordStream::new(workload, seed);
        let mut sample = Vec::with_capacity(scale.sample);
        let mut chunks = Vec::with_capacity(scale.records.div_ceil(scale.chunk_records));
        let mut lines = Vec::with_capacity(scale.chunk_records);
        let mut input_bytes = 0;
        for i in 0..scale.records {
            let record = stream.next_record();
            let line = ciao_json::to_string(&record);
            input_bytes += line.len() + 1;
            lines.push(line);
            if i < scale.sample {
                sample.push(record);
            }
            if lines.len() == scale.chunk_records || i + 1 == scale.records {
                chunks.push(
                    RecordChunk::from_records(&lines).expect("generated records hold no newline"),
                );
                lines.clear();
            }
        }

        let pool = build_pool(dataset);
        let preset = |mut cfg: WorkloadConfig, queries: usize| {
            cfg.queries = queries;
            cfg.generate(&pool)
        };
        // The statement workloads are fixed per workload; the seed
        // draws the records. A seed-drawn workload would move the
        // plan, and with it the loading ratio, from seed to seed
        // (0.12 to 0.56 on `ycsb_load`), swamping what a change does.
        let queries = match workload {
            Workload::YcsbLoad => preset(
                WorkloadConfig::workload_b(dataset, WORKLOAD_SEED),
                scale.queries,
            ),
            Workload::YelpQuery => preset(
                WorkloadConfig::workload_c(dataset, WORKLOAD_SEED),
                scale.queries,
            ),
            Workload::WinlogDrift => preset(
                WorkloadConfig::workload_a(dataset, WORKLOAD_SEED),
                scale.queries,
            ),
        };
        let covering = min_covering_budget(&queries, &sample);
        let budget = match workload {
            // Half the covering budget leaves some queries uncovered,
            // which switches admission to load-everything.
            Workload::YelpQuery => covering / 2.0,
            Workload::YcsbLoad | Workload::WinlogDrift => covering,
        };

        let mut inputs = Inputs {
            workload,
            seed,
            scale,
            sample,
            queries,
            budget,
            records: scale.records,
            input_bytes,
            chunks,
            statements: Vec::new(),
            script: Vec::new(),
            restart: Vec::new(),
        };
        match workload {
            Workload::YcsbLoad => inputs.ycsb_script(),
            Workload::YelpQuery => inputs.yelp_script(),
            Workload::WinlogDrift => inputs.winlog_script(&pool),
        }
        inputs
    }

    fn push_statement(&mut self, query: Query, via: Via, shape: Shape) -> usize {
        self.statements.push(Statement::new(query, via, shape));
        self.statements.len() - 1
    }

    /// Many bursts of 4 chunks, each followed by a fresh planned
    /// `COUNT(*)` and 3 more.
    fn ycsb_script(&mut self) {
        let planned: Vec<usize> = (0..self.queries.len())
            .map(|i| self.push_statement(self.queries[i].clone(), Via::Sql, Shape::Count))
            .collect();
        let mut next = planned.iter().copied().cycle();
        for burst in bursts(self.chunks.len(), 4) {
            self.script.push(Step::Burst(burst));
            for k in 0..4 {
                let index = next.next().expect("cycle");
                self.script.push(Step::Run {
                    index,
                    fresh: k == 0,
                });
            }
        }
        self.restart = planned[..planned.len().min(6)].to_vec();
    }

    /// A short load (8 bursts, each followed by a fresh statement and 2
    /// more), then a long query phase: every fourth statement is a
    /// grouped aggregate, the rest `COUNT(*)` alternating between the
    /// SQL and the count entry point.
    fn yelp_script(&mut self) {
        let n = self.queries.len();
        let count_sql: Vec<usize> = (0..n)
            .map(|i| self.push_statement(self.queries[i].clone(), Via::Sql, Shape::Count))
            .collect();
        let count_api: Vec<usize> = (0..n)
            .map(|i| self.push_statement(self.queries[i].clone(), Via::Count, Shape::Count))
            .collect();
        let aggregate: Vec<usize> = (0..n)
            .map(|i| self.push_statement(self.queries[i].clone(), Via::Sql, Shape::StarsAggregate))
            .collect();
        let burst_chunks = self.chunks.len().div_ceil(8);
        let mut q = 0;
        for burst in bursts(self.chunks.len(), burst_chunks) {
            self.script.push(Step::Burst(burst));
            for k in 0..3 {
                let index = if q % 2 == 0 {
                    count_sql[q % n]
                } else {
                    count_api[q % n]
                };
                self.script.push(Step::Run {
                    index,
                    fresh: k == 0,
                });
                q += 1;
            }
        }
        for i in 0..self.scale.query_phase {
            let index = match i % 4 {
                3 => aggregate[i % n],
                1 => count_api[i % n],
                _ => count_sql[i % n],
            };
            self.script.push(Step::Run {
                index,
                fresh: false,
            });
        }
        self.restart = vec![
            count_sql[0],
            count_sql[1],
            count_api[2],
            aggregate[3],
            aggregate[4],
        ];
    }

    /// Cycles of a 2-chunk burst, a fresh uncovered statement (preset C
    /// under another seed), one planned and two more uncovered ones; a
    /// compaction tick every 3 cycles and a checkpoint every sixth of
    /// the run, none in the last sixth, so the restart replays a WAL
    /// tail. The fresh statement is uncovered so that it parses the
    /// burst it follows: a fresh planned one ran for about 250 µs, most
    /// of it the fan-out's thread hand-offs, and spread 15-31% between
    /// runs with the host's load, against 9-11% for the uncovered ones.
    fn winlog_script(&mut self, pool: &ciao_workload::PredicatePool) {
        let plan = build_plan(&self.queries, &self.sample, self.budget);
        let pushed: Vec<_> = plan.predicates.iter().map(|p| p.clause.clone()).collect();
        let mut other = WorkloadConfig::workload_c(Dataset::WinLog, WORKLOAD_SEED ^ 0xd1f7);
        other.queries = self.scale.queries * 4;
        let uncovered_queries: Vec<Query> = other
            .generate(pool)
            .into_iter()
            .filter(|q| q.clauses.iter().all(|c| !pushed.contains(c)))
            .take(self.scale.queries)
            .collect();
        assert!(
            !uncovered_queries.is_empty(),
            "preset C drew no uncovered query"
        );
        let planned: Vec<usize> = (0..self.queries.len())
            .map(|i| self.push_statement(self.queries[i].clone(), Via::Sql, Shape::Count))
            .collect();
        let uncovered: Vec<usize> = uncovered_queries
            .into_iter()
            .map(|q| self.push_statement(q, Via::Sql, Shape::Count))
            .collect();
        let mut next_planned = planned.iter().copied().cycle();
        let mut next_uncovered = uncovered.iter().copied().cycle();
        let cycles = bursts(self.chunks.len(), 2);
        let every = (cycles.len() / 6).max(2);
        let last_checkpoint = cycles.len().saturating_sub(every);
        for (cycle, burst) in cycles.into_iter().enumerate() {
            self.script.push(Step::Burst(burst));
            for (k, planned) in [false, true, false, false].into_iter().enumerate() {
                let index = if planned {
                    next_planned.next()
                } else {
                    next_uncovered.next()
                };
                self.script.push(Step::Run {
                    index: index.expect("cycle"),
                    fresh: k == 0,
                });
            }
            if (cycle + 1) % 3 == 0 {
                self.script.push(Step::Compact);
            }
            if (cycle + 1) % every == 0 && cycle < last_checkpoint {
                self.script.push(Step::Checkpoint);
            }
        }
        self.restart = vec![
            planned[0],
            planned[1],
            planned[2],
            uncovered[0],
            uncovered[1],
        ];
    }

    /// Chunks acked when each script step runs (burst steps included,
    /// counted after the burst).
    pub fn acked_before_each_step(&self) -> Vec<usize> {
        let mut acked = 0;
        self.script
            .iter()
            .map(|step| {
                if let Step::Burst(n) = step {
                    acked += n;
                }
                acked
            })
            .collect()
    }
}

/// Splits `chunks` into bursts of `size` (the last may be shorter).
fn bursts(chunks: usize, size: usize) -> Vec<usize> {
    let size = size.max(1);
    (0..chunks.div_ceil(size))
        .map(|i| size.min(chunks - i * size))
        .collect()
}
