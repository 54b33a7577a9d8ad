//! The OLTP statement mix shared by `oltp_wire` and `point_local`, and the
//! closed-loop executor that runs it and checks every answer against the
//! model.

use crate::conn::{Conn, OpError};
use crate::model::{self, Model, Rng, Row};
use crate::stats::Samples;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Operation types, each counted and timed on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Unique-key point retrieve navigating two EVAs (advisor, major).
    Read,
    /// A prepared point retrieve re-executed verbatim.
    Hot,
    /// Autocommit DVA modify.
    Write,
    /// Autocommit EVA include or exclude.
    Link,
    /// Insert of a transient student followed by its delete.
    InsDel,
    /// Explicit write-first transaction: modify, retrieve, include,
    /// exclude, commit.
    Txn,
    /// One report query (report_scan).
    Report,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Hot => "hot_read",
            Kind::Write => "write",
            Kind::Link => "link",
            Kind::InsDel => "insert_delete",
            Kind::Txn => "txn",
            Kind::Report => "report_query",
        }
    }
}

/// One slot of the fixed round.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Read,
    Hot(usize),
    Write,
    Include(usize),
    Exclude(usize),
    InsDel,
    Txn,
}

/// Hot (prepared, verbatim-repeated) statements per connection.
pub const HOT: usize = 3;

/// Every connection runs this sequence again and again, so every run
/// attempts whole rounds of the same operations: 13 reads, 4 hot reads,
/// 4 writes, 2 include/exclude pairs, 1 insert/delete pair and 2
/// transactions — 35 statements, 4 of them verbatim repeats.
const ROUND: [Slot; 28] = [
    Slot::Read,
    Slot::Read,
    Slot::Write,
    Slot::Read,
    Slot::Hot(0),
    Slot::Include(0),
    Slot::Read,
    Slot::Read,
    Slot::Txn,
    Slot::Write,
    Slot::Hot(1),
    Slot::Read,
    Slot::InsDel,
    Slot::Read,
    Slot::Exclude(0),
    Slot::Read,
    Slot::Write,
    Slot::Hot(2),
    Slot::Include(1),
    Slot::Read,
    Slot::Read,
    Slot::Txn,
    Slot::Read,
    Slot::Write,
    Slot::Hot(0),
    Slot::Exclude(1),
    Slot::Read,
    Slot::Read,
];

/// One step of an operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A retrieve and the single row it must return.
    Query(String, Row),
    /// A prepared retrieve and the single row it must return.
    Hot(usize, Row),
    /// An update that must touch exactly one entity.
    Exec(String),
    Begin,
    Commit,
}

/// What a successful operation changes in the model.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    None,
    Rename(usize, String),
    Link(usize, usize, bool),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: Kind,
    pub steps: Vec<Step>,
    pub effect: Effect,
}

impl Op {
    /// DML statements in the operation (begin/commit not counted).
    pub fn statements(&self) -> u64 {
        self.steps.iter().filter(|s| !matches!(s, Step::Begin | Step::Commit)).count() as u64
    }
}

pub fn apply(model: &mut Model, effect: &Effect) {
    match effect {
        Effect::None => {}
        Effect::Rename(s, name) => model.students[*s].name.clone_from(name),
        Effect::Link(s, c, true) => {
            model.students[*s].courses.insert(*c);
        }
        Effect::Link(s, c, false) => {
            model.students[*s].courses.remove(c);
        }
    }
}

/// The statement stream of one connection. It owns every student whose
/// index is `conn` modulo `conns`, and only ever writes those, so
/// connections never contend for a key and each stream depends only on
/// the seed.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    conn: usize,
    own: Vec<usize>,
    hot: [usize; HOT],
    pending: [(usize, usize); 2],
    renames: u64,
    transients: i64,
}

impl Gen {
    pub fn new(seed: u64, conn: usize, conns: usize, model: &Model) -> Gen {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1));
        let own: Vec<usize> = (conn..model.students.len()).step_by(conns).collect();
        let hot = [0; HOT].map(|_| own[rng.below(own.len())]);
        Gen { rng, conn, own, hot, pending: [(0, 0); 2], renames: 0, transients: 0 }
    }

    /// The texts of this connection's prepared statements.
    pub fn hot_texts(&self, model: &Model) -> Vec<String> {
        self.hot.iter().map(|&s| model::point_read_text(model.students[s].ssn)).collect()
    }

    fn pick(&mut self) -> usize {
        self.own[self.rng.below(self.own.len())]
    }

    fn fresh_name(&mut self, s: usize) -> String {
        self.renames += 1;
        format!("Stu-{s}-{}", self.renames)
    }

    /// A course student `s` is not enrolled in.
    fn free_course(&mut self, model: &Model, s: usize) -> usize {
        loop {
            let c = self.rng.below(model.courses.len());
            if !model.students[s].courses.contains(&c) {
                return c;
            }
        }
    }

    /// Operations per round.
    pub fn round_len() -> usize {
        ROUND.len()
    }

    /// Operation `index` of the round, generated against the model as it
    /// stands when the operation runs.
    pub fn op(&mut self, index: usize, model: &Model) -> Op {
        let read = |s: usize| {
            Step::Query(model::point_read_text(model.students[s].ssn), model.point_read_row(s))
        };
        match ROUND[index] {
            Slot::Read => {
                let s = self.pick();
                Op { kind: Kind::Read, steps: vec![read(s)], effect: Effect::None }
            }
            Slot::Hot(slot) => Op {
                kind: Kind::Hot,
                steps: vec![Step::Hot(slot, model.point_read_row(self.hot[slot]))],
                effect: Effect::None,
            },
            Slot::Write => {
                let s = self.pick();
                let name = self.fresh_name(s);
                Op {
                    kind: Kind::Write,
                    steps: vec![Step::Exec(model::rename_text(model.students[s].ssn, &name))],
                    effect: Effect::Rename(s, name),
                }
            }
            Slot::Include(k) => {
                let s = self.pick();
                let c = self.free_course(model, s);
                self.pending[k] = (s, c);
                let text = model::link_text(model.students[s].ssn, model.courses[c].no, true);
                Op {
                    kind: Kind::Link,
                    steps: vec![Step::Exec(text)],
                    effect: Effect::Link(s, c, true),
                }
            }
            Slot::Exclude(k) => {
                let (s, c) = self.pending[k];
                let text = model::link_text(model.students[s].ssn, model.courses[c].no, false);
                Op {
                    kind: Kind::Link,
                    steps: vec![Step::Exec(text)],
                    effect: Effect::Link(s, c, false),
                }
            }
            Slot::InsDel => {
                self.transients += 1;
                let ssn = 900_000_000 + self.conn as i64 * 10_000_000 + self.transients;
                let dept = model.depts[self.rng.below(model.depts.len())].nbr;
                let course = model.courses[self.rng.below(model.courses.len())].no;
                let insert = format!(
                    "Insert student(name := \"T-{ssn}\", soc-sec-no := {ssn}, student-nbr := 3001, \
                     major-department := department with (dept-nbr = {dept}), \
                     courses-enrolled := course with (course-no = {course}))."
                );
                let delete = format!("Delete person Where soc-sec-no = {ssn}.");
                Op {
                    kind: Kind::InsDel,
                    steps: vec![Step::Exec(insert), Step::Exec(delete)],
                    effect: Effect::None,
                }
            }
            Slot::Txn => {
                let s = self.pick();
                let name = self.fresh_name(s);
                let c = self.free_course(model, s);
                let ssn = model.students[s].ssn;
                let mut row = model.point_read_row(s);
                row[0] = model::Cell::Str(name.clone());
                let no = model.courses[c].no;
                Op {
                    kind: Kind::Txn,
                    steps: vec![
                        // Write first: the X lock on the UNIVERSITY family is
                        // taken before any read, so two transactions never
                        // deadlock on an S→X upgrade.
                        Step::Begin,
                        Step::Exec(model::rename_text(ssn, &name)),
                        Step::Query(model::point_read_text(ssn), row),
                        Step::Exec(model::link_text(ssn, no, true)),
                        Step::Exec(model::link_text(ssn, no, false)),
                        Step::Commit,
                    ],
                    effect: Effect::Rename(s, name),
                }
            }
        }
    }
}

/// Attempted/failed counts and latencies (µs) of one operation type.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    pub attempted: u64,
    pub failed: u64,
    pub latency_us: Samples,
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub kinds: BTreeMap<Kind, KindStats>,
    /// DML statements completed inside the timed window.
    pub statements: u64,
    /// Rows returned by retrieves inside the timed window.
    pub rows: u64,
    /// Round (pass) durations inside the timed window, seconds.
    pub round_s: Samples,
    /// Statements per second within each timed round.
    pub round_rate: Samples,
    /// `commit` call durations of explicit transactions, µs.
    pub commit_us: Samples,
    /// Model mismatches: any one makes the run incorrect.
    pub mismatches: Vec<String>,
    /// The first few failure messages, for the log.
    pub errors: Vec<String>,
}

impl LoopStats {
    pub fn merge(&mut self, other: LoopStats) {
        for (k, s) in other.kinds {
            let e = self.kinds.entry(k).or_default();
            e.attempted += s.attempted;
            e.failed += s.failed;
            e.latency_us.extend(&s.latency_us);
        }
        self.statements += other.statements;
        self.rows += other.rows;
        self.round_s.extend(&other.round_s);
        self.round_rate.extend(&other.round_rate);
        self.commit_us.extend(&other.commit_us);
        self.mismatches.extend(other.mismatches);
        self.errors.extend(other.errors);
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|k| k.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|k| k.failed).sum()
    }

    pub fn fail(&mut self, kind: Kind, e: &OpError) {
        self.kinds.entry(kind).or_default().failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(format!("{}: {e}", kind.name()));
        }
    }

    pub fn mismatch(&mut self, message: String) {
        if self.mismatches.len() < 8 {
            self.mismatches.push(message);
        } else if self.mismatches.len() == 8 {
            self.mismatches.push("(further mismatches not shown)".into());
        }
    }
}

fn single_row(what: &str, expected: &Row, out: &sim_core::QueryOutput) -> Result<(), String> {
    model::check_output(what, std::slice::from_ref(expected), out).map(|_| ())
}

/// Run one operation: count it, time it when `timed`, check its answers.
/// Returns whether it succeeded (its effect should then be applied).
pub fn run_op(
    conn: &mut dyn Conn,
    op: &Op,
    stats: &mut LoopStats,
    tracer: &mut Tracer,
    stmt_id: u64,
    timed: bool,
) -> bool {
    stats.kinds.entry(op.kind).or_default().attempted += 1;
    tracer.enter(op.kind.name(), stmt_id);
    let start = Instant::now();
    let mut in_txn = false;
    let mut rows = 0u64;
    let mut result: Result<(), OpError> = Ok(());
    for step in &op.steps {
        let r = match step {
            Step::Query(text, row) => {
                tracer.enter("client.query", stmt_id);
                let out = conn.query(text);
                tracer.exit();
                out.map(|out| {
                    rows += out.len() as u64;
                    if let Err(m) = single_row(text, row, &out) {
                        stats.mismatch(m);
                    }
                })
            }
            Step::Hot(slot, row) => {
                tracer.enter("client.exec_prepared", stmt_id);
                let out = conn.exec_prepared(*slot);
                tracer.exit();
                out.map(|out| {
                    rows += out.len() as u64;
                    if let Err(m) = single_row("prepared point retrieve", row, &out) {
                        stats.mismatch(m);
                    }
                })
            }
            Step::Exec(text) => {
                tracer.enter("client.execute", stmt_id);
                let n = conn.execute(text);
                tracer.exit();
                n.map(|n| {
                    if n != 1 {
                        stats.mismatch(format!("{text}: touched {n} entities, expected 1"));
                    }
                })
            }
            Step::Begin => {
                in_txn = true;
                conn.begin()
            }
            Step::Commit => {
                tracer.enter("client.commit", stmt_id);
                let t = Instant::now();
                let r = conn.commit();
                tracer.exit();
                if timed {
                    stats.commit_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                in_txn = false;
                r
            }
        };
        if let Err(e) = r {
            result = Err(e);
            break;
        }
    }
    let elapsed = start.elapsed();
    tracer.exit();
    match result {
        Ok(()) => {
            if timed {
                stats
                    .kinds
                    .entry(op.kind)
                    .or_default()
                    .latency_us
                    .push(elapsed.as_secs_f64() * 1e6);
                stats.statements += op.statements();
                stats.rows += rows;
            }
            true
        }
        Err(e) => {
            if in_txn {
                // A lock-timeout victim is already aborted; any other
                // failure leaves the transaction open. Neither is retried.
                let _ = conn.abort();
            }
            stats.fail(op.kind, &e);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Scale;

    /// Every statement text of `rounds` rounds, applying each operation's
    /// effect as if it succeeded.
    fn stream(seed: u64, rounds: usize) -> Vec<String> {
        let mut model = Model::generate(seed, Scale { students: 60, courses: 30, departments: 4 });
        let mut gens: Vec<Gen> = (0..2).map(|c| Gen::new(seed, c, 2, &model)).collect();
        let mut out = Vec::new();
        for g in &gens {
            out.extend(g.hot_texts(&model));
        }
        for _ in 0..rounds {
            for g in &mut gens {
                for i in 0..Gen::round_len() {
                    let op = g.op(i, &model);
                    out.push(format!("{:?}", op.steps));
                    apply(&mut model, &op.effect);
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_same_statement_stream() {
        let a = stream(42, 5);
        assert_eq!(a, stream(42, 5));
        assert_eq!(a.join("\n").as_bytes(), stream(42, 5).join("\n").as_bytes());
        assert_ne!(a, stream(43, 5));
    }

    #[test]
    fn round_composition_is_fixed() {
        let model = Model::generate(1, Scale { students: 60, courses: 30, departments: 4 });
        let mut g = Gen::new(1, 0, 1, &model);
        let mut counts: BTreeMap<Kind, usize> = BTreeMap::new();
        let mut statements = 0;
        for i in 0..Gen::round_len() {
            let op = g.op(i, &model);
            statements += op.statements();
            *counts.entry(op.kind).or_default() += 1;
        }
        assert_eq!(statements, 35);
        assert_eq!(counts[&Kind::Read], 13);
        assert_eq!(counts[&Kind::Hot], 4);
        assert_eq!(counts[&Kind::Txn], 2);
    }
}
