//! The synthetic UNIVERSITY population and the correctness model kept
//! apart from the program: plain Rust collections of everything the
//! benchmark inserted, linked or modified, and the answers to every
//! benchmark query computed from them (nested loops, BFS), never from the
//! engine.

use sim_core::{QueryOutput, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// splitmix64: small, seedable, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5349_4d5f_4245_4e43)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Population size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub students: usize,
    pub courses: usize,
    pub departments: usize,
}

impl Scale {
    /// Eight students per instructor keeps every advisor under the
    /// schema's `MAX 10` advisees.
    pub fn instructors(&self) -> usize {
        self.students / 8 + 1
    }
}

#[derive(Debug, Clone)]
pub struct Dept {
    pub nbr: i64,
    pub name: String,
}

#[derive(Debug, Clone)]
pub struct Course {
    pub no: i64,
    pub title: String,
    pub credits: i64,
    /// Indices of prerequisite courses (always lower indices: a DAG).
    pub prereqs: Vec<usize>,
}

#[derive(Debug, Clone)]
pub struct Instructor {
    pub ssn: i64,
    pub emp: i64,
    pub name: String,
    pub birth: String,
    /// Whole currency units (the schema stores number[9,2]).
    pub salary: i64,
    pub dept: usize,
}

#[derive(Debug, Clone)]
pub struct Student {
    pub ssn: i64,
    pub nbr: i64,
    pub name: String,
    pub birth: String,
    pub dept: usize,
    pub advisor: usize,
    pub courses: BTreeSet<usize>,
}

/// Everything the benchmark has put into the database, as it should read
/// back.
#[derive(Debug, Clone)]
pub struct Model {
    pub depts: Vec<Dept>,
    pub courses: Vec<Course>,
    pub instructors: Vec<Instructor>,
    pub students: Vec<Student>,
}

fn birthdate(rng: &mut Rng) -> String {
    format!("{}-{:02}-{:02}", 1950 + rng.below(50), 1 + rng.below(12), 1 + rng.below(28))
}

impl Model {
    /// The population for `seed`: the same seed gives the same model.
    pub fn generate(seed: u64, scale: Scale) -> Model {
        let mut rng = Rng::new(seed);
        let depts = (0..scale.departments)
            .map(|d| Dept { nbr: 100 + d as i64, name: format!("Dept-{d:03}") })
            .collect();
        let courses = (0..scale.courses)
            .map(|c| {
                let mut prereqs = BTreeSet::new();
                if c > 0 {
                    for _ in 0..rng.below(3) {
                        prereqs.insert(c - 1 - rng.below(c.min(20)));
                    }
                }
                Course {
                    no: c as i64 + 1,
                    title: format!("Course-{:04}", rng.below(10_000)),
                    credits: 1 + rng.below(6) as i64,
                    prereqs: prereqs.into_iter().collect(),
                }
            })
            .collect();
        let instructors = (0..scale.instructors())
            .map(|i| Instructor {
                ssn: 600_000_000 + i as i64,
                emp: 1001 + i as i64,
                name: format!("Ins-{i}"),
                birth: birthdate(&mut rng),
                salary: 30_000 + rng.below(60_000) as i64,
                dept: rng.below(scale.departments),
            })
            .collect();
        let n_instr = scale.instructors();
        let students = (0..scale.students)
            .map(|s| {
                let mut courses = BTreeSet::new();
                let want = 3 + rng.below(3);
                while courses.len() < want {
                    courses.insert(rng.below(scale.courses));
                }
                Student {
                    ssn: 700_000_000 + s as i64,
                    nbr: 2001 + s as i64,
                    name: format!("Stu-{s}"),
                    birth: birthdate(&mut rng),
                    dept: rng.below(scale.departments),
                    advisor: s % n_instr,
                    courses,
                }
            })
            .collect();
        Model { depts, courses, instructors, students }
    }

    /// The load, as DML statements in dependency order.
    pub fn load_statements(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in &self.depts {
            out.push(format!("Insert department(dept-nbr := {}, name := \"{}\").", d.nbr, d.name));
        }
        for c in &self.courses {
            out.push(format!(
                "Insert course(course-no := {}, title := \"{}\", credits := {}).",
                c.no, c.title, c.credits
            ));
        }
        for c in &self.courses {
            for &p in &c.prereqs {
                out.push(format!(
                    "Modify course (prerequisites := include course with (course-no = {})) \
                     Where course-no = {}.",
                    self.courses[p].no, c.no
                ));
            }
        }
        for i in &self.instructors {
            out.push(format!(
                "Insert instructor(name := \"{}\", soc-sec-no := {}, employee-nbr := {}, \
                 birthdate := \"{}\", salary := {}.00, \
                 assigned-department := department with (dept-nbr = {})).",
                i.name, i.ssn, i.emp, i.birth, i.salary, self.depts[i.dept].nbr
            ));
        }
        for s in &self.students {
            out.push(format!(
                "Insert student(name := \"{}\", soc-sec-no := {}, student-nbr := {}, \
                 birthdate := \"{}\", major-department := department with (dept-nbr = {}), \
                 advisor := instructor with (employee-nbr = {})).",
                s.name,
                s.ssn,
                s.nbr,
                s.birth,
                self.depts[s.dept].nbr,
                self.instructors[s.advisor].emp
            ));
            for &c in &s.courses {
                out.push(link_text(s.ssn, self.courses[c].no, true));
            }
        }
        out
    }

    /// Entities per class, as `Database::entity_count` reports them.
    pub fn entity_counts(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("person", self.students.len() + self.instructors.len()),
            ("student", self.students.len()),
            ("instructor", self.instructors.len()),
            ("course", self.courses.len()),
            ("department", self.depts.len()),
        ]
    }

    pub fn entities(&self) -> usize {
        self.students.len() + self.instructors.len() + self.courses.len() + self.depts.len()
    }

    // ----- the point retrieve shared by every workload ------------------

    /// Expected row of [`point_read_text`] for student `s`.
    pub fn point_read_row(&self, s: usize) -> Row {
        let st = &self.students[s];
        vec![
            Cell::Str(st.name.clone()),
            Cell::Int(st.nbr),
            Cell::Str(self.instructors[st.advisor].name.clone()),
            Cell::Int(self.depts[st.dept].nbr),
        ]
    }

    // ----- report pass answers ------------------------------------------

    /// Every student with advisor, major and each enrolled course.
    pub fn report_students(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for st in &self.students {
            for &c in &st.courses {
                rows.push(vec![
                    Cell::Int(st.ssn),
                    Cell::Str(self.instructors[st.advisor].name.clone()),
                    Cell::Str(self.depts[st.dept].name.clone()),
                    Cell::Str(self.courses[c].title.clone()),
                ]);
            }
        }
        rows
    }

    /// Per department: instructors employed and their average salary.
    pub fn report_departments(&self) -> Vec<Row> {
        self.depts
            .iter()
            .enumerate()
            .map(|(d, dept)| {
                let salaries: Vec<i64> =
                    self.instructors.iter().filter(|i| i.dept == d).map(|i| i.salary).collect();
                let avg = if salaries.is_empty() {
                    Cell::Null
                } else {
                    Cell::Num(salaries.iter().sum::<i64>() as f64 / salaries.len() as f64)
                };
                vec![Cell::Int(dept.nbr), Cell::Int(salaries.len() as i64), avg]
            })
            .collect()
    }

    /// Every course's title and credits (the engine must also sort them).
    pub fn report_courses(&self) -> Vec<Row> {
        self.courses
            .iter()
            .map(|c| vec![Cell::Str(c.title.clone()), Cell::Int(c.credits)])
            .collect()
    }

    /// Per course: the size of its transitive prerequisite closure, by
    /// breadth-first search over the generated DAG.
    pub fn report_closure(&self) -> Vec<Row> {
        self.courses
            .iter()
            .enumerate()
            .map(|(c, course)| {
                let mut seen = BTreeSet::new();
                let mut queue: VecDeque<usize> = self.courses[c].prereqs.iter().copied().collect();
                while let Some(p) = queue.pop_front() {
                    if seen.insert(p) {
                        queue.extend(self.courses[p].prereqs.iter().copied());
                    }
                }
                vec![Cell::Int(course.no), Cell::Int(seen.len() as i64)]
            })
            .collect()
    }

    /// Instructors paired with departments of equal number, by nested
    /// loops.
    pub fn report_department_join(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for ins in &self.instructors {
            for dept in &self.depts {
                if self.depts[ins.dept].nbr == dept.nbr {
                    rows.push(vec![Cell::Int(ins.emp), Cell::Str(dept.name.clone())]);
                }
            }
        }
        rows
    }
}

// ----- statement texts ----------------------------------------------------

/// The OLTP point retrieve: a unique-key lookup that navigates two EVAs.
pub fn point_read_text(ssn: i64) -> String {
    format!(
        "From student Retrieve name, student-nbr, name of advisor, \
         dept-nbr of major-department Where soc-sec-no = {ssn}."
    )
}

pub fn rename_text(ssn: i64, name: &str) -> String {
    format!("Modify student (name := \"{name}\") Where soc-sec-no = {ssn}.")
}

pub fn link_text(ssn: i64, course_no: i64, include: bool) -> String {
    if include {
        format!(
            "Modify student (courses-enrolled := include course with (course-no = {course_no})) \
             Where soc-sec-no = {ssn}."
        )
    } else {
        format!(
            "Modify student (courses-enrolled := exclude courses-enrolled with \
             (course-no = {course_no})) Where soc-sec-no = {ssn}."
        )
    }
}

// ----- rows and comparison ------------------------------------------------

/// One expected output value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    Int(i64),
    Str(String),
    /// A float or decimal, compared within a relative tolerance.
    Num(f64),
}

pub type Row = Vec<Cell>;

const TOLERANCE: f64 = 1e-6;

fn cell_of(v: &Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Int(i) => Cell::Int(*i),
        Value::Float(f) => Cell::Num(*f),
        Value::Decimal(d) => Cell::Num(d.to_f64()),
        Value::Str(s) => Cell::Str(s.clone()),
        other => Cell::Str(other.to_string()),
    }
}

fn numeric(c: &Cell) -> Option<f64> {
    match c {
        Cell::Int(i) => Some(*i as f64),
        Cell::Num(f) => Some(*f),
        _ => None,
    }
}

fn cell_eq(a: &Cell, b: &Cell) -> bool {
    match (numeric(a), numeric(b)) {
        (Some(x), Some(y)) => (x - y).abs() <= TOLERANCE * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

fn cell_cmp(a: &Cell, b: &Cell) -> Ordering {
    match (a, b) {
        (Cell::Null, Cell::Null) => Ordering::Equal,
        (Cell::Null, _) => Ordering::Less,
        (_, Cell::Null) => Ordering::Greater,
        (Cell::Str(x), Cell::Str(y)) => x.cmp(y),
        _ => match (numeric(a), numeric(b)) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            _ => format!("{a:?}").cmp(&format!("{b:?}")),
        },
    }
}

fn row_cmp(a: &Row, b: &Row) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| cell_cmp(x, y))
        .find(|o| o.is_ne())
        .unwrap_or(a.len().cmp(&b.len()))
}

/// The output's rows as cells.
pub fn rows_of(out: &QueryOutput) -> Result<Vec<Row>, String> {
    match out {
        QueryOutput::Table { rows, .. } => {
            Ok(rows.iter().map(|r| r.iter().map(cell_of).collect()).collect())
        }
        QueryOutput::Structure { .. } => Err("expected tabular output, got structured".into()),
    }
}

/// Compare `actual` with `expected` as multisets (float cells within a
/// tolerance).
pub fn check_multiset(what: &str, expected: &[Row], actual: &[Row]) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!("{what}: expected {} rows, got {}", expected.len(), actual.len()));
    }
    let mut e = expected.to_vec();
    let mut a = actual.to_vec();
    e.sort_by(row_cmp);
    a.sort_by(row_cmp);
    for (x, y) in e.iter().zip(&a) {
        if x.len() != y.len() || !x.iter().zip(y).all(|(p, q)| cell_eq(p, q)) {
            return Err(format!("{what}: expected row {x:?}, got {y:?}"));
        }
    }
    Ok(())
}

/// Check that `rows` are ordered by the columns `keys`.
pub fn check_sorted(what: &str, rows: &[Row], keys: &[usize]) -> Result<(), String> {
    for w in rows.windows(2) {
        let ord = keys
            .iter()
            .map(|&k| cell_cmp(&w[0][k], &w[1][k]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal);
        if ord == Ordering::Greater {
            return Err(format!("{what}: rows out of order: {:?} before {:?}", w[0], w[1]));
        }
    }
    Ok(())
}

/// Multiset check of a query output in one call.
pub fn check_output(what: &str, expected: &[Row], out: &QueryOutput) -> Result<Vec<Row>, String> {
    let rows = rows_of(out)?;
    check_multiset(what, expected, &rows)?;
    Ok(rows)
}

/// Per-student enrolled course numbers from the model, keyed by ssn.
pub fn enrollments(model: &Model) -> BTreeMap<i64, BTreeSet<i64>> {
    model
        .students
        .iter()
        .map(|s| (s.ssn, s.courses.iter().map(|&c| model.courses[c].no).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Model {
        Model::generate(7, Scale { students: 40, courses: 20, departments: 3 })
    }

    #[test]
    fn same_seed_same_population() {
        assert_eq!(small().load_statements(), small().load_statements());
        let other = Model::generate(8, Scale { students: 40, courses: 20, departments: 3 });
        assert_ne!(small().load_statements(), other.load_statements());
    }

    #[test]
    fn model_check_fails_on_a_planted_wrong_row() {
        let m = small();
        let expected = m.report_departments();
        let mut actual = expected.clone();
        actual.reverse();
        check_multiset("depts", &expected, &actual).expect("order does not matter");
        // A float within tolerance still matches.
        if let Some(Cell::Num(f)) = actual[0].get_mut(2) {
            *f += 1e-9;
        }
        check_multiset("depts", &expected, &actual).expect("within tolerance");
        // One planted wrong value fails the check.
        let mut planted = expected.clone();
        planted[1][1] = Cell::Int(999);
        assert!(check_multiset("depts", &expected, &planted).is_err());
        // A missing or an extra row fails it too.
        assert!(check_multiset("depts", &expected, &expected[1..]).is_err());
        let mut extra = expected.clone();
        extra.push(expected[0].clone());
        assert!(check_multiset("depts", &expected, &extra).is_err());
    }

    #[test]
    fn sortedness_check_catches_a_swap() {
        let mut rows = small().report_courses();
        rows.sort_by(|a, b| cell_cmp(&a[1], &b[1]).then(cell_cmp(&a[0], &b[0])));
        check_sorted("courses", &rows, &[1, 0]).expect("sorted");
        let last = rows.len() - 1;
        rows.swap(0, last);
        assert!(check_sorted("courses", &rows, &[1, 0]).is_err());
    }

    #[test]
    fn closure_is_computed_over_the_dag() {
        let m = small();
        for (row, c) in m.report_closure().iter().zip(&m.courses) {
            if c.prereqs.is_empty() {
                assert_eq!(row[1], Cell::Int(0));
            }
        }
    }
}
