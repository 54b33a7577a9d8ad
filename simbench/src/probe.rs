//! Per-layer probes for traced runs: each one times a call into one
//! layer's public function from outside, on sampled inputs of the
//! workload's own data, and checks what the call returns.

use crate::model::{self, Model, Rng};
use crate::stats::Samples;
use crate::trace::Tracer;
use sim_client::SimClient;
use sim_core::{Database, Value};
use sim_luc::AttrOut;
use sim_server::Server;
use std::time::Instant;

/// Sampled inputs per probe.
const SAMPLES: usize = 300;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn median(s: &mut Samples) -> f64 {
    s.median().unwrap_or(0.0)
}

/// Probe results, by metric name.
pub type Probes = Vec<(&'static str, f64)>;

/// Front end (parse, plan, verify), executor and LUC mapper probes on a
/// `Database`. Returns the metrics, or the first wrong answer.
pub fn database(
    db: &Database,
    model: &Model,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Probes, String> {
    let mut rng = Rng::new(seed ^ 0x70_726f_6265);
    let sample: Vec<usize> = (0..SAMPLES).map(|_| rng.below(model.students.len())).collect();
    let texts: Vec<String> =
        sample.iter().map(|&s| model::point_read_text(model.students[s].ssn)).collect();
    let err = |e: sim_core::SimError| e.to_string();

    // Planning and verification are each the paired difference of two
    // calls on the same text: explain − parse, verify_plan − explain.
    let (mut parse, mut plan, mut verify, mut exec) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    for (i, (&s, text)) in sample.iter().zip(&texts).enumerate() {
        let id = i as u64;
        tracer.enter("probe.retrieve", id);
        tracer.enter("dml.parse_statement", id);
        let t = Instant::now();
        let parsed = sim_dml::parse_statement(text);
        let parse_us = micros(t);
        parse.push(parse_us);
        tracer.exit();
        parsed.map_err(|e| e.to_string())?;

        // EXPLAIN and verify_plan both plan afresh (the plan cache is
        // bypassed), so their difference is the verifier's share.
        tracer.enter("db.explain", id);
        let t = Instant::now();
        let explained = db.explain(text);
        let explain_us = micros(t);
        plan.push(explain_us - parse_us);
        tracer.exit();
        explained.map_err(err)?;
        tracer.enter("db.verify_plan", id);
        let t = Instant::now();
        let report = db.verify_plan(text);
        verify.push(micros(t) - explain_us);
        tracer.exit();
        if report.map_err(err)?.has_errors() {
            return Err(format!("{text}: plan verification failed"));
        }

        // Execution alone: the second run of a text is a plan-cache hit.
        db.query(text).map_err(err)?;
        tracer.enter("db.query_cached", id);
        let t = Instant::now();
        let out = db.query(text);
        exec.push(micros(t));
        tracer.exit();
        tracer.exit();
        model::check_output(text, &[model.point_read_row(s)], &out.map_err(err)?)?;
    }

    let cat = db.catalog();
    let class = |n: &str| cat.class_by_name(n).map(|c| c.id).ok_or(format!("no class {n}"));
    let (person, student) = (class("person")?, class("student")?);
    let attr = |c, n: &str| cat.attr_on_class(c, n).ok_or(format!("no attribute {n}"));
    let (ssn_attr, name_attr) = (attr(person, "soc-sec-no")?, attr(person, "name")?);
    let enrolled_attr = attr(student, "courses-enrolled")?;
    let mapper = db.mapper();
    let map_err = |e: sim_luc::MapperError| e.to_string();

    let (mut lookup, mut read, mut partners) =
        (Samples::default(), Samples::default(), Samples::default());
    for (i, &s) in sample.iter().enumerate() {
        let st = &model.students[s];
        tracer.enter("luc.lookup_unique", i as u64);
        let t = Instant::now();
        let surr = mapper.lookup_unique(ssn_attr, &Value::Int(st.ssn));
        lookup.push(micros(t));
        tracer.exit();
        let surr = surr.map_err(map_err)?.ok_or(format!("ssn {} not found", st.ssn))?;

        tracer.enter("luc.read_attr", i as u64);
        let t = Instant::now();
        let name = mapper.read_attr(surr, name_attr);
        read.push(micros(t));
        tracer.exit();
        if name.map_err(map_err)? != AttrOut::Single(Value::Str(st.name.clone())) {
            return Err(format!("read_attr: wrong name for ssn {}", st.ssn));
        }

        tracer.enter("luc.eva_partners", i as u64);
        let t = Instant::now();
        let courses = mapper.eva_partners(surr, enrolled_attr);
        partners.push(micros(t));
        tracer.exit();
        if courses.map_err(map_err)?.len() != st.courses.len() {
            return Err(format!("eva_partners: wrong course count for ssn {}", st.ssn));
        }
    }

    let mut scan = Samples::default();
    for i in 0..5 {
        tracer.enter("luc.entities_of", i);
        let t = Instant::now();
        let all = mapper.entities_of(student);
        let us = micros(t);
        tracer.exit();
        let n = all.map_err(map_err)?.len();
        if n != model.students.len() {
            return Err(format!(
                "entities_of(student): {n} entities, model has {}",
                model.students.len()
            ));
        }
        scan.push(us / n as f64);
    }

    Ok(vec![
        ("dml.parse_us", median(&mut parse)),
        ("query.plan_us", median(&mut plan)),
        ("check.verify_us", median(&mut verify)),
        ("query.exec_us", median(&mut exec)),
        ("luc.lookup_unique_us", median(&mut lookup)),
        ("luc.read_attr_us", median(&mut read)),
        ("luc.eva_partners_us", median(&mut partners)),
        ("luc.scan_us_per_entity", median(&mut scan)),
    ])
}

/// Server overhead: the same point retrieve through a `SimClient` and
/// through an in-process `Session` of the served database, interleaved.
/// Returns (overhead µs, bytes per request of the probe's own traffic).
pub fn server(
    server: &Server,
    model: &Model,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let mut rng = Rng::new(seed ^ 0x73_6572_7665);
    let mut client = SimClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut session = server.db().session();
    let before = server.db().metrics();
    let (mut wire, mut local) = (Samples::default(), Samples::default());
    for i in 0..SAMPLES {
        let s = rng.below(model.students.len());
        let text = model::point_read_text(model.students[s].ssn);
        let expected = [model.point_read_row(s)];
        tracer.enter("probe.server", i as u64);
        tracer.enter("client.query", i as u64);
        let t = Instant::now();
        let out = client.query(&text);
        wire.push(micros(t));
        tracer.exit();
        model::check_output(&text, &expected, &out.map_err(|e| e.to_string())?)?;
        tracer.enter("session.query", i as u64);
        let t = Instant::now();
        let out = session.query(&text);
        local.push(micros(t));
        tracer.exit();
        tracer.exit();
        model::check_output(&text, &expected, &out.map_err(|e| e.to_string())?)?;
    }
    let after = server.db().metrics();
    drop(session);
    client.close().map_err(|e| e.to_string())?;
    let delta = |n: &str| after.counter(n).saturating_sub(before.counter(n)) as f64;
    let bytes = delta("server.bytes_read") + delta("server.bytes_written");
    let requests = delta("server.requests").max(1.0);
    Ok((median(&mut wire) - median(&mut local), bytes / requests))
}
