//! simbench: the repository benchmark.
//!
//! ```text
//! simbench --workload <oltp_wire|point_local|report_scan> --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds a synthetic UNIVERSITY population from the seed, runs the
//! workload's closed loop for S seconds, checks every answer against a
//! model computed apart from the engine, prints one line per operation
//! type (attempted/failed) and, as the last line, a JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when an answer is wrong.

mod calib;
mod conn;
mod model;
mod oltp;
mod probe;
mod report;
mod stats;
mod trace;

use calib::Calibrator;
use conn::{Conn, Local, Wire};
use model::{Model, Rng, Scale};
use oltp::{Gen, Kind, LoopStats};
use sim_client::SimClient;
use sim_core::{Database, MetricsSnapshot};
use sim_server::{serve, ServerConfig};
use stats::Samples;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// OLTP population: fits the default 1024-frame pool.
const OLTP_SCALE: Scale = Scale { students: 1200, courses: 150, departments: 12 };
/// Report population and pool: the data is several times the pool.
const REPORT_SCALE: Scale = Scale { students: 800, courses: 200, departments: 10 };
const REPORT_POOL: usize = 32;
/// Client connections of `oltp_wire` (the machine's two cores).
const CONNS: usize = 2;
/// Traced single-threaded runs take their counter ratios over this many
/// rounds after the warm-up, so the ratios repeat exactly for a seed.
const FIXED_ROUNDS: usize = 20;
const FIXED_PASSES: usize = 3;
const LOAD_CHUNK: usize = 256;
/// How often the closed loops time the reference kernel.
const CAL_EVERY: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench --workload <oltp_wire|point_local|report_scan> --seed N \
         --seconds S --trace 0|1"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if args.seconds <= 0.0 {
        usage();
    }
    args
}

/// What a workload run produced.
#[derive(Default)]
struct Outcome {
    stats: LoopStats,
    /// Checks outside the loop (reopen, probes) that found a wrong answer.
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    tracer: Option<Tracer>,
    cal: Option<Calibrator>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// A scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn db(&self, i: usize) -> PathBuf {
        self.0.join(format!("db{i}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn sim(e: sim_core::SimError) -> String {
    e.to_string()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Peak resident set of this process, from the kernel's own accounting.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Three reference-kernel samples (before each set-up).
fn calibrate(out: &mut Outcome) {
    let cal = out.cal.get_or_insert_with(|| Calibrator::new(CAL_EVERY));
    for _ in 0..3 {
        cal.sample();
    }
}

fn merge_cal(out: &mut Outcome, cal: &Calibrator) {
    out.cal.get_or_insert_with(|| Calibrator::new(CAL_EVERY)).samples.extend(&cal.samples);
}

/// Pin the main thread, and so every thread started after it (server
/// workers included), to the CPU it is running on. On a 2-vCPU VM a wake-up that
/// crosses vCPUs costs more than a point retrieve and its cost changes
/// with thread placement from run to run; on one CPU the two `oltp_wire`
/// connections still interleave, but every run schedules alike. Returns
/// the CPU, or `None` if the kernel refused.
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of exactly the size
    // passed; pid 0 names the calling thread, whose affinity is the only
    // thing the call changes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// One set-up's measurements.
struct Setup {
    db: Database,
    seconds: f64,
    checkpoint_s: f64,
    analyze_s: f64,
    allocations_per_insert: f64,
}

/// Create the database (durable at `dir`, else in memory) and load the
/// model through DML. Durable loads batch fsyncs (group-commit window
/// 256) and restore the deployment window of 1 before the first timed
/// statement.
fn setup(
    model: &Model,
    dir: Option<&Path>,
    analyze: bool,
    reopen_pool: Option<usize>,
) -> Result<Setup, String> {
    let start = Instant::now();
    let mut db = match dir {
        Some(dir) => Database::create_at(sim_ddl::UNIVERSITY_DDL, dir).map_err(sim)?,
        None => Database::create(sim_ddl::UNIVERSITY_DDL).map_err(sim)?,
    };
    // Every benchmark writes partial students (enrolment arrives one
    // statement at a time), which the schema's VERIFY v1 would reject.
    db.set_enforce_verifies(false);
    if dir.is_some() {
        db.set_group_commit_window(LOAD_CHUNK).map_err(sim)?;
    }
    let before = db.io_snapshot();
    for chunk in model.load_statements().chunks(LOAD_CHUNK) {
        db.run(&chunk.join("\n")).map_err(sim)?;
    }
    let allocations = db.io_snapshot().allocations - before.allocations;
    if dir.is_some() {
        db.sync_wal().map_err(sim)?;
        db.set_group_commit_window(1).map_err(sim)?;
    }
    let mut analyze_s = 0.0;
    if analyze {
        let t = Instant::now();
        db.analyze().map_err(sim)?;
        analyze_s = secs(t);
    }
    let t = Instant::now();
    db.checkpoint().map_err(sim)?;
    let checkpoint_s = secs(t);
    if let (Some(dir), Some(pool)) = (dir, reopen_pool) {
        db.close().map_err(sim)?;
        db = Database::open_with_pool(dir, pool).map_err(sim)?;
    }
    Ok(Setup {
        db,
        seconds: secs(start),
        checkpoint_s,
        analyze_s,
        allocations_per_insert: allocations as f64 / model.entities() as f64,
    })
}

/// Run [`SETUPS`] set-ups and keep the last; report their median time.
fn setups(
    model: &Model,
    work: Option<&WorkDir>,
    analyze: bool,
    reopen_pool: Option<usize>,
    out: &mut Outcome,
) -> Result<(Setup, Option<PathBuf>), String> {
    let (mut times, mut checkpoints, mut analyzes) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut last: Option<(Setup, Option<PathBuf>)> = None;
    for i in 0..SETUPS {
        if let Some((old, old_dir)) = last.take() {
            drop(old);
            if let Some(d) = old_dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
        let dir = work.map(|w| w.db(i));
        calibrate(out);
        let s = setup(model, dir.as_deref(), analyze, reopen_pool)?;
        times.push(s.seconds);
        checkpoints.push(s.checkpoint_s);
        analyzes.push(s.analyze_s);
        last = Some((s, dir));
    }
    let (s, dir) = last.expect("at least one set-up");
    let stored = match &dir {
        Some(d) => dir_bytes(d),
        None => s.db.mapper().engine().meta().block_count * 4096,
    };
    let stored_per_entity = stored as f64 / model.entities() as f64;
    let setup_s = times.median().unwrap_or(0.0);
    out.notes.push(format!("setup_s {setup_s:.4} (median of {SETUPS}), stored bytes {stored}"));
    if out.tracer.is_none() {
        out.metric("setup_s", setup_s, "s");
        out.metric("stored_bytes_per_entity", stored_per_entity, "B");
    } else {
        out.metric("storage.checkpoint_s", checkpoints.median().unwrap_or(0.0), "s");
        out.metric("storage.block_allocations_per_insert", s.allocations_per_insert, "count");
        if analyze {
            out.metric("query.analyze_s", analyzes.median().unwrap_or(0.0), "s");
        }
    }
    Ok((s, dir))
}

/// Counter deltas over a span of the timed window.
struct Span {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    rows: u64,
    rounds: u64,
}

impl Span {
    fn delta(&self, name: &str) -> f64 {
        self.after.counter(name).saturating_sub(self.before.counter(name)) as f64
    }

    fn ratio(&self, num: &str, den: f64) -> f64 {
        if den > 0.0 {
            self.delta(num) / den
        } else {
            0.0
        }
    }
}

/// The per-layer metrics read from the engine's counters.
fn counter_metrics(out: &mut Outcome, span: &Span) {
    let rows = span.rows as f64;
    let rounds = span.rounds as f64;
    let commits = span.delta("storage.txn_commits");
    let hits = span.delta("storage.pool_hits");
    let plan_hits = span.delta("query.plan_cache_hits");
    let plan_total = plan_hits + span.delta("query.plan_cache_misses");
    out.metric("luc.entity_reads_per_row", span.ratio("luc.entity_reads", rows), "count");
    out.metric("luc.record_decodes_per_row", span.ratio("luc.record_decodes", rows), "count");
    out.metric("storage.pool_hits_per_row", span.ratio("storage.pool_hits", rows), "count");
    out.metric(
        "storage.pool_hit_ratio",
        if hits > 0.0 { hits / (hits + span.delta("storage.pool_misses")) } else { 0.0 },
        "fraction",
    );
    out.metric("storage.block_reads_per_pass", span.ratio("storage.block_reads", rounds), "count");
    out.metric(
        "storage.pool_evictions_per_pass",
        span.ratio("storage.pool_evictions", rounds),
        "count",
    );
    out.metric("storage.wal_bytes_per_commit", span.ratio("storage.wal_bytes", commits), "B");
    out.metric("storage.fsyncs_per_commit", span.ratio("storage.fsyncs", commits), "count");
    out.metric("session.lock_waits_per_txn", span.ratio("storage.lock_waits", commits), "count");
    out.metric(
        "query.plan_cache_hit_ratio",
        if plan_total > 0.0 { plan_hits / plan_total } else { 0.0 },
        "fraction",
    );
}

/// End-to-end metrics common to every workload.
fn loop_metrics(out: &mut Outcome, window_s: f64, conns: usize) {
    let st = &mut out.stats;
    // Each connection's median per-round rate, summed over connections: a
    // stall of a few rounds does not move it, unlike statements/window.
    let stmt_per_s = conns as f64 * st.round_rate.median().unwrap_or(0.0);
    let p50 = |k: Kind, st: &mut LoopStats| {
        st.kinds.get_mut(&k).and_then(|s| s.latency_us.median()).unwrap_or(0.0)
    };
    let read_p50 = p50(Kind::Read, st);
    let read_p99 = st
        .kinds
        .get_mut(&Kind::Read)
        .map(|s| s.latency_us.tail(0.99))
        .unwrap_or(Err(stats::PercentileError::Empty));
    let write_p50 = p50(Kind::Write, st);
    let txn_p50 = p50(Kind::Txn, st);
    let pass_s = st.round_s.median().unwrap_or(0.0);
    let commit_us = st.commit_us.median().unwrap_or(0.0);
    let rounds = st.round_s.count();
    let statements = st.statements;
    if out.tracer.is_some() {
        out.metric("trace.stmt_per_s", stmt_per_s, "1/s");
        out.metric("session.commit_us", commit_us, "us");
    } else {
        out.metric("stmt_per_s", stmt_per_s, "1/s");
        out.metric("read_p50_us", read_p50, "us");
        out.metric("write_p50_us", write_p50, "us");
        out.metric("txn_p50_us", txn_p50, "us");
        out.metric("pass_s", pass_s, "s");
        // Read before any reopen: WAL recovery holds the whole log in
        // memory, which would tie this figure to the window's length.
        out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    // The tail is printed, not gated: on a shared VM it does not hold
    // any bound from run to run (see README).
    out.notes.push(match read_p99 {
        Ok(v) => format!("read_p99_us {v:.1} (not gated)"),
        Err(e) => format!("read_p99_us not reported: {e}"),
    });
    out.notes.push(format!(
        "timed window {window_s:.3} s, {rounds} rounds, {statements} statements \
         ({:.1}/s over the window)",
        statements as f64 / window_s
    ));
}

/// Reopen a durable directory after a drop without a checkpoint (WAL
/// recovery) and check the model against it.
fn reopen(dir: &Path, model: &Model, out: &mut Outcome) -> Result<Database, String> {
    let t = Instant::now();
    let db = Database::open(dir).map_err(sim)?;
    let reopen_s = secs(t);
    let m = db.metrics();
    out.notes.push(format!(
        "reopen {reopen_s:.4} s, wal records replayed {}, recovery {} ms, peak rss after it {:.1} MiB",
        m.counter("storage.wal_replayed"),
        m.counter("storage.recovery_millis"),
        peak_rss_mib()
    ));
    for (class, n) in model.entity_counts() {
        let got = db.entity_count(class).map_err(sim)?;
        if got != n {
            out.failures.push(format!("after reopen: {got} {class} entities, model has {n}"));
        }
    }
    let enrolled: Vec<model::Row> = model::enrollments(model)
        .into_iter()
        .flat_map(|(ssn, courses)| {
            courses.into_iter().map(move |c| vec![model::Cell::Int(ssn), model::Cell::Int(c)])
        })
        .collect();
    let names: Vec<model::Row> = model
        .students
        .iter()
        .map(|s| vec![model::Cell::Int(s.ssn), model::Cell::Str(s.name.clone())])
        .collect();
    let salaries: Vec<model::Row> = model
        .instructors
        .iter()
        .map(|i| vec![model::Cell::Int(i.emp), model::Cell::Num(i.salary as f64)])
        .collect();
    for (text, expected) in [
        ("From student Retrieve soc-sec-no, course-no of courses-enrolled.", &enrolled),
        ("From student Retrieve soc-sec-no, name.", &names),
        ("From instructor Retrieve employee-nbr, salary.", &salaries),
    ] {
        let got = db.query(text).map_err(sim)?;
        if let Err(m) = model::check_output(text, expected, &got) {
            out.failures.push(format!("after reopen: {m}"));
        }
    }
    Ok(db)
}

/// The traced run's probes on the final database, then the server probe
/// (serving the same database in process).
fn probes(mut db: Database, model: &Model, seed: u64, out: &mut Outcome, server_window: bool) {
    let mut tracer = out.tracer.take().expect("traced run");
    match probe::database(&db, model, seed, &mut tracer) {
        Ok(ms) => ms.into_iter().for_each(|(n, v)| out.metric(n, v, "us")),
        Err(e) => out.failures.push(format!("probe: {e}")),
    }
    // Workloads that plan without statistics time `analyze` here, after
    // their timed window, on the data they ran on.
    if !out.metrics.iter().any(|m| m.0 == "query.analyze_s") {
        let t = Instant::now();
        match db.analyze() {
            Ok(_) => out.metric("query.analyze_s", secs(t), "s"),
            Err(e) => out.failures.push(format!("analyze: {e}")),
        }
    }
    serve_probe(db, model, seed, out, &mut tracer, server_window);
    out.tracer = Some(tracer);
}

fn serve_probe(
    db: Database,
    model: &Model,
    seed: u64,
    out: &mut Outcome,
    tracer: &mut Tracer,
    bytes_known: bool,
) {
    let cdb = db.into_concurrent();
    cdb.set_enforce_verifies(false);
    match serve(cdb, ServerConfig::default()) {
        Ok(server) => match probe::server(&server, model, seed, tracer) {
            Ok((overhead, bytes)) => {
                out.metric("server.overhead_us", overhead, "us");
                if !bytes_known {
                    out.metric("server.bytes_per_request", bytes, "B");
                }
            }
            Err(e) => out.failures.push(format!("server probe: {e}")),
        },
        Err(e) => out.failures.push(format!("serve: {e}")),
    }
}

// ----- oltp_wire -------------------------------------------------------------

/// What one connection's closed loop measured.
struct LoopRun {
    stats: LoopStats,
    start: Instant,
    end: Instant,
    /// Counters over the first [`FIXED_ROUNDS`] rounds, when asked for.
    span: Option<Span>,
    cal: Calibrator,
}

/// One connection's closed loop: prepare the hot statements, run one
/// untimed warm-up round, wait for the other connections, then run whole
/// rounds until the deadline.
fn oltp_loop(
    conn: &mut dyn Conn,
    gen: &mut Gen,
    model: &Mutex<Model>,
    start_line: &Barrier,
    seconds: f64,
    tracer: &mut Tracer,
    fixed: Option<&dyn Fn() -> MetricsSnapshot>,
) -> LoopRun {
    let mut stats = LoopStats::default();
    let mut cal = Calibrator::new(CAL_EVERY);
    let hot = gen.hot_texts(&model.lock().expect("model lock"));
    for (slot, text) in hot.iter().enumerate() {
        if let Err(e) = conn.prepare(slot, text) {
            stats.fail(Kind::Hot, &e);
        }
    }
    let mut id = 0u64;
    let mut round = |stats: &mut LoopStats, tracer: &mut Tracer, timed: bool| {
        tracer.enter("round", id);
        for i in 0..Gen::round_len() {
            id += 1;
            let op = gen.op(i, &model.lock().expect("model lock"));
            if oltp::run_op(conn, &op, stats, tracer, id, timed) {
                oltp::apply(&mut model.lock().expect("model lock"), &op.effect);
            }
        }
        tracer.exit();
    };
    round(&mut stats, tracer, false);
    start_line.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut span = fixed.map(|f| Span { before: f(), after: f(), rows: 0, rounds: 0 });
    let mut rounds = 0;
    loop {
        let (t, done) = (Instant::now(), stats.statements);
        round(&mut stats, tracer, true);
        let round_s = secs(t);
        stats.round_s.push(round_s);
        stats.round_rate.push((stats.statements - done) as f64 / round_s);
        cal.tick();
        rounds += 1;
        if rounds == FIXED_ROUNDS {
            if let (Some(s), Some(f)) = (span.as_mut(), fixed) {
                s.after = f();
                s.rows = stats.rows;
                s.rounds = rounds as u64;
            }
        }
        if Instant::now() >= deadline && rounds >= FIXED_ROUNDS {
            break;
        }
    }
    LoopRun { stats, start, end: Instant::now(), span, cal }
}

fn oltp_wire(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let work = WorkDir::new("oltp_wire")?;
    let model = Model::generate(args.seed, OLTP_SCALE);
    let (setup, dir) = setups(&model, Some(&work), false, None, out)?;
    let dir = dir.expect("durable");
    let cdb = setup.db.into_concurrent();
    cdb.set_enforce_verifies(false);
    // The `sim-server --dir` defaults: group-commit window 1 (set above),
    // commit_delay 0, eight workers.
    let server = serve(cdb, ServerConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let before = server.db().metrics();
    let model = Mutex::new(model);
    let start_line = Barrier::new(CONNS);
    let traced = args.trace;
    let results: Vec<Result<(LoopRun, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (model, start_line) = (&model, &start_line);
                scope.spawn(move || {
                    let client = SimClient::connect(addr).map_err(|e| e.to_string())?;
                    let mut wire = Wire::new(client);
                    let mut gen = Gen::new(args.seed, c, CONNS, &model.lock().expect("lock"));
                    let mut tracer = Tracer::new(traced, Instant::now());
                    let run = oltp_loop(
                        &mut wire,
                        &mut gen,
                        model,
                        start_line,
                        args.seconds,
                        &mut tracer,
                        None,
                    );
                    let _ = wire.client.close();
                    Ok((run, tracer))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let after = server.db().metrics();
    let model = model.into_inner().expect("model lock");
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for r in results {
        let (run, tracer) = r?;
        out.stats.merge(run.stats);
        merge_cal(out, &run.cal);
        first = Some(first.map_or(run.start, |f| f.min(run.start)));
        last = Some(last.map_or(run.end, |l| l.max(run.end)));
        if let Some(t) = out.tracer.as_mut() {
            t.absorb(tracer);
        }
    }
    let window = last.expect("ran").duration_since(first.expect("ran")).as_secs_f64();
    loop_metrics(out, window, CONNS);
    let retries = after.counter("server.retries") - before.counter("server.retries");
    out.notes.push(format!("server retries {retries} (any retry would hide a failure)"));
    if retries > 0 {
        out.failures.push(format!("the server retried {retries} statements out of sight"));
    }
    let span =
        Span { before, after, rows: out.stats.rows, rounds: out.stats.round_s.count() as u64 };
    if args.trace {
        counter_metrics(out, &span);
        let requests = span.delta("server.requests").max(1.0);
        let bytes = span.delta("server.bytes_read") + span.delta("server.bytes_written");
        out.metric("server.bytes_per_request", bytes / requests, "B");
    }
    // Stop the server and drop the database without a checkpoint; the
    // reopen replays the WAL.
    drop(server);
    let db = reopen(&dir, &model, out)?;
    if args.trace {
        probes(db, &model, args.seed, out, true);
    }
    drop(work);
    Ok(())
}

// ----- point_local -------------------------------------------------------------

fn point_local(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let model = Model::generate(args.seed, OLTP_SCALE);
    let (setup, _) = setups(&model, None, false, None, out)?;
    let cdb = setup.db.into_concurrent();
    cdb.set_enforce_verifies(false);
    let mut local = Local::new(cdb.session());
    let mut gen = Gen::new(args.seed, 0, 1, &model);
    let model = Mutex::new(model);
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let metrics = || cdb.metrics();
    let fixed: Option<&dyn Fn() -> MetricsSnapshot> =
        if args.trace { Some(&metrics) } else { None };
    let run =
        oltp_loop(&mut local, &mut gen, &model, &Barrier::new(1), args.seconds, &mut tracer, fixed);
    out.stats.merge(run.stats);
    merge_cal(out, &run.cal);
    if let Some(t) = out.tracer.as_mut() {
        t.absorb(tracer);
    }
    loop_metrics(out, run.end.duration_since(run.start).as_secs_f64(), 1);
    let model = model.into_inner().expect("model lock");
    drop(local);
    if let Some(span) = run.span {
        counter_metrics(out, &span);
    }
    if args.trace {
        let db = cdb.into_database().map_err(|_| "sessions still open".to_string())?;
        probes(db, &model, args.seed, out, false);
    }
    Ok(())
}

// ----- report_scan -------------------------------------------------------------

fn report_scan(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let work = WorkDir::new("report_scan")?;
    let mut model = Model::generate(args.seed, REPORT_SCALE);
    let (setup, dir) = setups(&model, Some(&work), true, Some(REPORT_POOL), out)?;
    let (setup_db, dir) = (setup.db, dir.expect("durable"));
    out.notes.push(format!(
        "data {} blocks, pool {REPORT_POOL} frames",
        setup_db.mapper().engine().meta().block_count
    ));
    let cdb = setup_db.into_concurrent();
    cdb.set_enforce_verifies(false);
    let mut local = Local::new(cdb.session());
    let fixed = report::Fixed::new(&model);
    let mut rng = Rng::new(args.seed ^ 0x7265_706f_7274);
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut stats = LoopStats::default();
    report::pass(&mut local, &mut model, &fixed, &mut rng, &mut stats, &mut tracer, false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut span = Span { before: cdb.metrics(), after: cdb.metrics(), rows: 0, rounds: 0 };
    let mut passes = 0;
    let mut cal = Calibrator::new(CAL_EVERY);
    loop {
        let (t, done) = (Instant::now(), stats.statements);
        tracer.enter("round", passes as u64);
        let report_s =
            report::pass(&mut local, &mut model, &fixed, &mut rng, &mut stats, &mut tracer, true);
        tracer.exit();
        stats.round_rate.push((stats.statements - done) as f64 / secs(t));
        if let Some(r) = report_s {
            stats.round_s.push(r);
        }
        cal.tick();
        passes += 1;
        if passes == FIXED_PASSES {
            span.after = cdb.metrics();
            span.rows = stats.rows;
            span.rounds = passes as u64;
        }
        if Instant::now() >= deadline && passes >= FIXED_PASSES {
            break;
        }
    }
    let window = secs(start);
    out.stats.merge(stats);
    merge_cal(out, &cal);
    if let Some(t) = out.tracer.as_mut() {
        t.absorb(tracer);
    }
    loop_metrics(out, window, 1);
    if args.trace {
        counter_metrics(out, &span);
    }
    drop(local);
    drop(cdb);
    let db = reopen(&dir, &model, out)?;
    if args.trace {
        probes(db, &model, args.seed, out, false);
    }
    drop(work);
    Ok(())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = parse_args();
    let mut out = Outcome::default();
    match pin_to_current_cpu() {
        Some(cpu) => out.notes.push(format!("pinned to cpu {cpu}")),
        None => out.notes.push("not pinned: sched_setaffinity refused".into()),
    }
    if args.trace {
        out.tracer = Some(Tracer::new(true, Instant::now()));
    }
    let result = match args.workload.as_str() {
        "oltp_wire" => oltp_wire(&args, &mut out),
        "point_local" => point_local(&args, &mut out),
        "report_scan" => report_scan(&args, &mut out),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("simbench: {}: {e}", args.workload);
        exit(1);
    }
    if let Some(tracer) = &out.tracer {
        let _ = std::fs::create_dir_all(".bench_out");
        let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed);
        match std::fs::write(&path, tracer.to_jsonl()) {
            Ok(()) => println!("spans: {} written to {path}", tracer.spans().len()),
            Err(e) => println!("spans: cannot write {path}: {e}"),
        }
        for (name, (n, total, self_us)) in tracer.self_times() {
            println!("span {name}: count={n} total_us={total:.0} self_us={self_us:.0}");
        }
    }
    if let Some(cal) = out.cal.as_mut() {
        let n = cal.samples.count();
        if let Some((q1, med, q3)) = cal.samples.quartiles() {
            println!("note: reference kernel {med:.1} us [{q1:.1}, {q3:.1}] over {n} samples");
        }
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for (kind, s) in &out.stats.kinds {
        println!(
            "op {}: attempted={} failed={} timed_samples={}",
            kind.name(),
            s.attempted,
            s.failed,
            s.latency_us.count()
        );
    }
    for e in &out.stats.errors {
        println!("failure: {e}");
    }
    let wrong: Vec<&String> = out.stats.mismatches.iter().chain(&out.failures).collect();
    for m in &wrong {
        println!("WRONG: {m}");
    }
    let correct = wrong.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", json_escape(name), unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.stats.attempted().max(1),
        out.stats.failed(),
        metrics.join(", ")
    );
    if !correct {
        exit(1);
    }
}
