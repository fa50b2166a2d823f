//! The independent oracle.
//!
//! Answers are recomputed from the generated `JsonValue` records with a
//! deliberately small evaluator that shares no code with the program's
//! parser, prefilter, loader or engine: top-level field lookup, `=` on
//! int, bool and string values, substring match for `LIKE '%x%'`, and
//! COUNT / SUM / AVG per `stars` group. The records are regenerated
//! from the seed after the timed phases, one at a time, so the oracle
//! never shares memory with — or inflates the peak of — the run.

use crate::spec::{Inputs, RecordStream, Shape, Step};
use ciao_client::ChunkFilterResult;
use ciao_engine::QueryResult;
use ciao_json::JsonValue;
use ciao_predicate::{Clause, Query, SimplePredicate};
use ciao_sql::SqlValue;
use std::collections::BTreeMap;

/// One `stars` group of a [`Shape::StarsAggregate`] answer.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// The group key (`None` for NULL).
    pub stars: Option<i64>,
    /// `COUNT(*)`.
    pub count: i64,
    /// `SUM(useful)`.
    pub sum: Option<i64>,
    /// `AVG(useful)`, compared exactly against the oracle's SUM / COUNT.
    pub avg: Option<f64>,
}

/// A statement's answer, as recorded during a run or computed here.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A `COUNT(*)`.
    Count(i64),
    /// Grouped aggregate rows in output order.
    Groups(Vec<GroupRow>),
}

impl Answer {
    /// Reads the program's SQL result into an answer; `None` when the
    /// result does not have the statement's shape.
    pub fn from_result(shape: Shape, result: &QueryResult) -> Option<Answer> {
        let int = |v: &SqlValue| match v {
            SqlValue::Int(i) => Some(Some(*i)),
            SqlValue::Null => Some(None),
            _ => None,
        };
        match shape {
            Shape::Count => match result.rows.as_slice() {
                [row] if row.len() == 1 => int(&row[0]).flatten().map(Answer::Count),
                _ => None,
            },
            Shape::StarsAggregate => {
                let mut groups = Vec::with_capacity(result.rows.len());
                for row in &result.rows {
                    let [stars, count, sum, avg] = row.as_slice() else {
                        return None;
                    };
                    let avg = match avg {
                        SqlValue::Float(x) => Some(*x),
                        SqlValue::Null => None,
                        _ => return None,
                    };
                    groups.push(GroupRow {
                        stars: int(stars)?,
                        count: int(count)??,
                        sum: int(sum)?,
                        avg,
                    });
                }
                Some(Answer::Groups(groups))
            }
        }
    }
}

fn matches_simple(record: &JsonValue, p: &SimplePredicate) -> bool {
    let field = record.get(p.key());
    match p {
        SimplePredicate::StrEq { value, .. } => field.and_then(JsonValue::as_str) == Some(value),
        SimplePredicate::StrContains { needle, .. } => field
            .and_then(JsonValue::as_str)
            .is_some_and(|s| s.contains(needle.as_str())),
        SimplePredicate::IntEq { value, .. } => field.and_then(JsonValue::as_i64) == Some(*value),
        SimplePredicate::BoolEq { value, .. } => field.and_then(JsonValue::as_bool) == Some(*value),
        SimplePredicate::NotNull { .. } => field.is_some_and(|v| !v.is_null()),
        other => unreachable!("no workload draws the predicate {other}"),
    }
}

/// Whether a record satisfies a clause (a disjunction).
pub fn matches_clause(record: &JsonValue, clause: &Clause) -> bool {
    clause.disjuncts().iter().any(|p| matches_simple(record, p))
}

fn matches_query(record: &JsonValue, query: &Query) -> bool {
    query.clauses.iter().all(|c| matches_clause(record, c))
}

/// A running aggregate for one statement over a record prefix.
#[derive(Clone)]
enum Acc {
    Count(i64),
    Groups(BTreeMap<Option<i64>, (i64, i128, i64)>),
}

impl Acc {
    fn new(shape: Shape) -> Acc {
        match shape {
            Shape::Count => Acc::Count(0),
            Shape::StarsAggregate => Acc::Groups(BTreeMap::new()),
        }
    }

    fn add(&mut self, record: &JsonValue) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Groups(groups) => {
                let stars = record.get("stars").and_then(JsonValue::as_i64);
                let useful = record.get("useful").and_then(JsonValue::as_i64);
                let (count, sum, n) = groups.entry(stars).or_insert((0, 0, 0));
                *count += 1;
                if let Some(u) = useful {
                    *sum += i128::from(u);
                    *n += 1;
                }
            }
        }
    }

    fn answer(&self) -> Answer {
        match self {
            Acc::Count(n) => Answer::Count(*n),
            Acc::Groups(groups) => Answer::Groups(
                groups
                    .iter()
                    .map(|(stars, &(count, sum, n))| GroupRow {
                        stars: *stars,
                        count,
                        sum: (n > 0).then(|| i64::try_from(sum).expect("sum fits i64")),
                        avg: (n > 0).then(|| sum as f64 / n as f64),
                    })
                    .collect(),
            ),
        }
    }
}

/// What the oracle expects of one round.
#[derive(Debug)]
pub struct Expected {
    /// Per script step: the answer a `Run` step must return.
    pub steps: Vec<Option<Answer>>,
    /// Answers of the post-restart statements (over every record).
    pub restart: Vec<Answer>,
    /// Records whose client bit was 0 for a pushed clause they satisfy.
    pub false_negatives: usize,
}

/// Computes the expected answers by streaming the regenerated records
/// in order, snapshotting every statement's aggregate at the prefix
/// each script step ran over. `filters`, when given, are the client's
/// per-chunk results, checked for false negatives on `pushed`.
pub fn expected(
    inputs: &Inputs,
    pushed: &[(u32, Clause)],
    filters: Option<&[ChunkFilterResult]>,
) -> Expected {
    let acked = inputs.acked_before_each_step();
    let mut accs: Vec<Acc> = inputs
        .statements
        .iter()
        .map(|s| Acc::new(s.shape))
        .collect();
    let mut steps: Vec<Option<Answer>> = vec![None; inputs.script.len()];
    let fill = |accs: &[Acc], chunks_done: usize, steps: &mut Vec<Option<Answer>>| {
        for (i, step) in inputs.script.iter().enumerate() {
            if let Step::Run { index, .. } = step {
                if acked[i] == chunks_done {
                    steps[i] = Some(accs[*index].answer());
                }
            }
        }
    };
    fill(&accs, 0, &mut steps);

    let mut stream = RecordStream::new(inputs.workload, inputs.seed);
    let mut false_negatives = 0;
    for (c, chunk) in inputs.chunks.iter().enumerate() {
        for i in 0..chunk.len() {
            let record = stream.next_record();
            for (s, acc) in inputs.statements.iter().zip(accs.iter_mut()) {
                if matches_query(&record, &s.query) {
                    acc.add(&record);
                }
            }
            if let Some(filters) = filters {
                for (id, clause) in pushed {
                    let bit = filters[c].bitvec_for(*id).is_some_and(|bv| bv.bit(i));
                    if !bit && matches_clause(&record, clause) {
                        false_negatives += 1;
                    }
                }
            }
        }
        fill(&accs, c + 1, &mut steps);
    }
    Expected {
        steps,
        restart: inputs.restart.iter().map(|&s| accs[s].answer()).collect(),
        false_negatives,
    }
}
