//! The `report_scan` pass: dictionary-style reports over data larger than
//! the buffer pool, plus a trickle of indexed point reads and salary
//! updates, every answer checked against the model.

use crate::conn::Conn;
use crate::model::{self, Cell, Model, Rng, Row};
use crate::oltp::{run_op, Effect, Kind, LoopStats, Op, Step};
use crate::trace::Tracer;
use std::time::Instant;

/// Point reads per pass (the indexed selective predicate).
pub const READS_PER_PASS: usize = 80;
/// Autocommit salary updates per pass.
pub const WRITES_PER_PASS: usize = 12;
/// Write-first transactions per pass.
pub const TXNS_PER_PASS: usize = 3;

/// Multi-attribute EVA navigation per student.
pub const Q_STUDENTS: &str = "From student Retrieve soc-sec-no, name of advisor, \
     name of major-department, title of courses-enrolled.";
/// Per-department aggregates over a multivalued EVA.
pub const Q_DEPARTMENTS: &str = "From department Retrieve dept-nbr, \
     count(instructors-employed), avg(salary of instructors-employed).";
/// Ordered output.
pub const Q_COURSES: &str = "From course Retrieve title, credits Order By credits, title.";
/// Transitive closure over the prerequisite DAG.
pub const Q_CLOSURE: &str =
    "From course Retrieve course-no, count distinct (transitive(prerequisites)).";
/// A value join across two perspectives: the instructor/department
/// pairing the `assigned-department` EVA already holds, found by
/// comparing values instead.
pub const Q_JOIN: &str = "From instructor, department \
     Retrieve employee-nbr of instructor, name of department \
     Where dept-nbr of assigned-department of instructor = dept-nbr of department.";

/// The answers that do not change during a run (the trickle only updates
/// salaries), computed once from the model.
pub struct Fixed {
    students: Vec<Row>,
    courses: Vec<Row>,
    closure: Vec<Row>,
    join: Vec<Row>,
}

impl Fixed {
    pub fn new(model: &Model) -> Fixed {
        Fixed {
            students: model.report_students(),
            courses: model.report_courses(),
            closure: model.report_closure(),
            join: model.report_department_join(),
        }
    }
}

fn salary_text(emp: i64, salary: i64) -> String {
    format!("Modify instructor (salary := {salary}.00) Where employee-nbr = {emp}.")
}

fn salary_read_text(emp: i64) -> String {
    format!("From instructor Retrieve salary Where employee-nbr = {emp}.")
}

type Check<'a> = (&'a str, &'a [Row], Option<&'a [usize]>);

/// Run one pass. Returns the report part's duration in seconds, or
/// `None` if a report query failed.
pub fn pass(
    conn: &mut dyn Conn,
    model: &mut Model,
    fixed: &Fixed,
    rng: &mut Rng,
    stats: &mut LoopStats,
    tracer: &mut Tracer,
    timed: bool,
) -> Option<f64> {
    tracer.enter("report.pass", 0);
    let departments = model.report_departments();
    // (text, expected rows, columns the output must be sorted by)
    let queries: [Check; 5] = [
        (Q_STUDENTS, &fixed.students, None),
        (Q_DEPARTMENTS, &departments, None),
        (Q_COURSES, &fixed.courses, Some(&[1, 0])),
        (Q_CLOSURE, &fixed.closure, None),
        (Q_JOIN, &fixed.join, None),
    ];
    let mut outputs = Vec::with_capacity(queries.len());
    let start = Instant::now();
    let mut ok = true;
    for (i, (text, _, _)) in queries.iter().enumerate() {
        stats.kinds.entry(Kind::Report).or_default().attempted += 1;
        tracer.enter("report.query", i as u64);
        let t = Instant::now();
        let out = conn.query(text);
        let us = t.elapsed().as_secs_f64() * 1e6;
        tracer.exit();
        match out {
            Ok(out) => {
                if timed {
                    stats.kinds.entry(Kind::Report).or_default().latency_us.push(us);
                }
                outputs.push(out);
            }
            Err(e) => {
                stats.fail(Kind::Report, &e);
                ok = false;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    tracer.exit();
    if !ok {
        return None;
    }
    for ((text, expected, order), out) in queries.iter().zip(&outputs) {
        match model::check_output(text, expected, out) {
            Ok(rows) => {
                if let Some(keys) = order {
                    if let Err(m) = model::check_sorted(text, &rows, keys) {
                        stats.mismatch(m);
                    }
                }
            }
            Err(m) => stats.mismatch(m),
        }
    }
    if timed {
        stats.statements += queries.len() as u64;
        stats.rows += outputs.iter().map(|o| o.len() as u64).sum::<u64>();
    }

    // The indexed point reads.
    for _ in 0..READS_PER_PASS {
        let s = rng.below(model.students.len());
        let op = Op {
            kind: Kind::Read,
            steps: vec![Step::Query(
                model::point_read_text(model.students[s].ssn),
                model.point_read_row(s),
            )],
            effect: Effect::None,
        };
        run_op(conn, &op, stats, tracer, s as u64, timed);
    }

    // The salary trickle: autocommit updates, then write-first
    // transactions that read their own write back.
    for _ in 0..WRITES_PER_PASS {
        let i = rng.below(model.instructors.len());
        let salary = 30_000 + rng.below(60_000) as i64;
        let op = Op {
            kind: Kind::Write,
            steps: vec![Step::Exec(salary_text(model.instructors[i].emp, salary))],
            effect: Effect::None,
        };
        if run_op(conn, &op, stats, tracer, i as u64, timed) {
            model.instructors[i].salary = salary;
        }
    }
    for _ in 0..TXNS_PER_PASS {
        let i = rng.below(model.instructors.len());
        let salary = 30_000 + rng.below(60_000) as i64;
        let emp = model.instructors[i].emp;
        let op = Op {
            kind: Kind::Txn,
            steps: vec![
                Step::Begin,
                Step::Exec(salary_text(emp, salary)),
                Step::Query(salary_read_text(emp), vec![Cell::Num(salary as f64)]),
                Step::Commit,
            ],
            effect: Effect::None,
        };
        if run_op(conn, &op, stats, tracer, i as u64, timed) {
            model.instructors[i].salary = salary;
        }
    }
    Some(elapsed)
}
