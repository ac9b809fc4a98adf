//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Every traced run measures the same things whatever `--workload` names,
//! so per-layer figures compare across runs:
//!
//! 1. each workload's job stream, traced, for a quarter of the window
//!    (one set-up pass each);
//! 2. the named workload also untraced, for an eighth of the window just
//!    before and an eighth just after its traced stream — the tracing
//!    overhead is the traced p50 latency over the untraced one, so drift
//!    within the process cancels;
//! 3. probes of single layers: the serve pipeline call by call, `run_guest`,
//!    pool speed-up, `Tracer::recording` overhead, the event core's
//!    footprint and fault-plan parsing.
//!
//! Spans are written to `perfbench-spans-<workload>-<seed>.jsonl` next to
//! the benchmark's executable.

use std::time::{Duration, Instant};

use bsmp::serve_suite::{parse_job, result_line, run_guest, run_job, run_shape};
use bsmp::sim::event1::naive1_event_footprint;
use bsmp::trace::certify::certify;
use bsmp::workloads::{inputs, Eca, TokenShift};
use bsmp::{FaultPlan, MachineSpec, Simulation, Strategy, Tracer};

use crate::direct::{DirectRun, Shape, COLD, STAGE};
use crate::serve::{self, Kind, FAULTS_JSON, SHAPES};
use crate::spans::Spans;
use crate::stats::median;
use crate::{metric, run_stream, Checker, Metric, Segments};

/// Per-shape metrics of a traced direct stream.
fn sim_metrics(run: &DirectRun, out: &mut Vec<Metric>) {
    for (i, s) in run.shapes.iter().enumerate() {
        let ms = run.shape_ms(i);
        let first = run.first_ms(i);
        let p50 = median(&ms);
        let pts = s.points() as f64;
        let (ops, _) = run.counters(i).unwrap_or((0, 0));
        out.push(metric(
            format!("sim.{}.ms_p50", s.name),
            p50,
            "ms",
            ms.len(),
        ));
        out.push(metric(
            format!("sim.{}.us_per_point", s.name),
            p50 * 1e3 / pts,
            "us/point",
            ms.len(),
        ));
        out.push(metric(
            format!("sim.{}.ops_per_point", s.name),
            ops as f64 / pts,
            "ops/point",
            1,
        ));
        out.push(metric(
            format!("sim.{}.first_ms", s.name),
            median(&first),
            "ms",
            first.len(),
        ));
    }
}

/// Faulted over clean p50 of a faulted shape and its twin.
fn fault_overhead(run: &DirectRun, out: &mut Vec<Metric>) {
    let idx = |name: &str| run.shapes.iter().position(|s: &Shape| s.name == name);
    for (i, s) in run.shapes.iter().enumerate() {
        let Some(twin) = s.faulted_twin_of.and_then(idx) else {
            continue;
        };
        let (f, c) = (run.shape_ms(i), run.shape_ms(twin));
        out.push(metric(
            format!("faults.{}.host_overhead", s.name),
            median(&f) / median(&c),
            "ratio",
            f.len().min(c.len()),
        ));
    }
}

/// Median durations of alternating runs of `a` and `b`.
fn alternate(
    spans: &mut Spans,
    layer: &'static str,
    name: &'static str,
    cases: [&'static str; 2],
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, usize) {
    for _ in 0..reps {
        spans.time(layer, name, cases[0], 0, &mut a);
        spans.time(layer, name, cases[1], 0, &mut b);
    }
    (
        median(&spans.durations_ms(name, cases[0])),
        median(&spans.durations_ms(name, cases[1])),
        reps,
    )
}

/// Serial over `threads`-thread time of dense naive1 through the façade.
fn pool_probe(spans: &mut Spans, threads: usize, out: &mut Vec<Metric>) {
    for (label, cases, n, steps, reps) in [
        (
            "small",
            ["naive1_small.serial", "naive1_small.pool"],
            4096u64,
            512i64,
            9,
        ),
        (
            "large",
            ["naive1_large.serial", "naive1_large.pool"],
            16384,
            1024,
            5,
        ),
    ] {
        let init = inputs::random_bits(n, n as usize);
        let sim = Simulation::linear(n, 16, 1).strategy(Strategy::Naive);
        let (serial, pool) = (sim.threads(1), sim.threads(threads));
        let (s, p, k) = alternate(
            spans,
            "machine.pool",
            "Simulation::try_run",
            cases,
            reps,
            || {
                serial.run(&Eca::rule110(), &init, steps);
            },
            || {
                pool.run(&Eca::rule110(), &init, steps);
            },
        );
        out.push(metric(
            format!("pool.naive1_{label}.speedup"),
            s / p,
            "ratio",
            k,
        ));
    }
}

/// `Tracer::recording` over `Tracer::off` on one shape of each direct
/// workload.
fn recording_probe(spans: &mut Spans, out: &mut Vec<Metric>) {
    for (shape, cases, reps) in [
        (&COLD[0], ["dnc1.recording", "dnc1.off"], 3),
        (&STAGE[0], ["naive1.recording", "naive1.off"], 5),
    ] {
        let engine = shape.name;
        let go = |tracer: &mut Tracer| {
            let plan = FaultPlan::none();
            run_shape(
                engine,
                shape.d,
                shape.n,
                1,
                shape.p,
                shape.steps,
                7,
                &plan,
                tracer,
            )
            .expect("probe run");
        };
        let (rec, off, k) = alternate(
            spans,
            "trace",
            "serve_suite::run_shape",
            cases,
            reps,
            || go(&mut Tracer::recording()),
            || go(&mut Tracer::off()),
        );
        out.push(metric(
            format!("trace.{engine}.recording_overhead"),
            rec / off,
            "ratio",
            k,
        ));
    }
}

/// The event core's million-node footprint run.
fn event_probe(spans: &mut Spans, checker: &mut Checker, out: &mut Vec<Metric>) {
    let s = &STAGE[5];
    let spec = MachineSpec::new(1, s.n, s.p, 1);
    let hot = inputs::impulse(s.n as usize, 1);
    let mut bytes = f64::NAN;
    for _ in 0..5 {
        let res = spans.time(
            "machine.event",
            "naive1_event_footprint",
            "naive1ev",
            0,
            || naive1_event_footprint(&spec, &TokenShift::new(0), &hot, s.steps),
        );
        match res {
            Ok((_, st)) if st.used_event_core => bytes = st.bytes_per_node(),
            Ok(_) => checker.fail("naive1ev fell back to the dense core".into()),
            Err(e) => checker.fail(format!("naive1_event_footprint: {e}")),
        }
    }
    let ms = spans.durations_ms("naive1_event_footprint", "naive1ev");
    out.push(metric("event.naive1ev.ms_p50", median(&ms), "ms", ms.len()));
    out.push(metric("event.bytes_per_node", bytes, "B/node", 1));
}

/// The serve pipeline one call at a time on fresh traffic, single caller,
/// against the capsules the traced `serve_warm` stream left warm.
fn serve_probe(seed: u64, spans: &mut Spans, checker: &mut Checker, out: &mut Vec<Metric>) {
    const N: u64 = 400;
    let reqs = serve::generate(seed, 1 << 40, N);
    let mut guest: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for r in &reqs {
        let case = match r.kind {
            Kind::Plain => "warm",
            Kind::Faulted => "fault",
            Kind::Certify => "certify",
            _ => "malformed",
        };
        let line = r.line.trim_end();
        let parsed = spans.time("core.serve_suite", "parse_job", case, r.id, || {
            parse_job(line)
        });
        let job = match (parsed, r.kind) {
            (Ok(job), Kind::Plain | Kind::Faulted | Kind::Certify) => job,
            (Err(_), Kind::Malformed(_)) => continue,
            (res, kind) => {
                checker.fail(format!(
                    "probe id {}: {kind:?} parsed as {:?}",
                    r.id,
                    res.is_ok()
                ));
                continue;
            }
        };
        let outcome = spans.time("core.serve_suite", "run_job", case, r.id, || run_job(&job));
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                checker.fail(format!("probe id {}: {e}", r.id));
                continue;
            }
        };
        spans.time("core.serve_suite", "result_line", case, r.id, || {
            result_line(&job, &outcome)
        });
        if let Some(t) = &outcome.trace {
            spans.time("trace", "certify", case, r.id, || certify(t).is_ok());
            spans.time("trace", "RunTrace::to_json", case, r.id, || {
                t.to_json().len()
            });
        }
        let s = &SHAPES[r.shape];
        let t0 = Instant::now();
        let g = run_guest(s.d, s.n, s.m, s.steps, r.seed);
        let t1 = Instant::now();
        spans.record("machine.guest", "run_guest", s.name, r.id, t0, t1);
        if s.d <= 2 {
            guest[s.d as usize - 1].push((t1 - t0).as_secs_f64() * 1e3);
        }
        let mut problems = Vec::new();
        match g {
            Ok(g) if g.mem == outcome.report.mem && g.values == outcome.report.values => {}
            _ => problems.push(format!("probe id {}: outputs differ from run_guest", r.id)),
        }
        if !outcome.cache_hit {
            problems.push(format!("probe id {}: missed the capsule", r.id));
        }
        let stats = crate::golden::ModelStats::of(&outcome.report);
        if let Err(e) = checker.golden_check(&r.golden_key(), &stats) {
            problems.push(e);
        }
        checker.job(problems);
    }
    for _ in 0..200 {
        spans.time("faults", "FaultPlan::from_json", "jitter_loss", 0, || {
            FaultPlan::from_json(FAULTS_JSON).is_ok()
        });
    }
    let p50_us = |name: &str, case: &str| {
        let v = spans.durations_ms(name, case);
        (median(&v) * 1e3, v.len())
    };
    let all_cases = ["warm", "fault", "certify", "malformed"];
    let pooled = |name: &str| {
        let v: Vec<f64> = all_cases
            .iter()
            .flat_map(|c| spans.durations_ms(name, c))
            .collect();
        (median(&v) * 1e3, v.len())
    };
    let (parse_us, n) = pooled("parse_job");
    out.push(metric("serve.parse_us_p50", parse_us, "us", n));
    let (fmt_us, n) = pooled("result_line");
    out.push(metric("serve.format_us_p50", fmt_us, "us", n));
    for (name, case) in [
        ("serve.warm_job_ms_p50", "warm"),
        ("serve.fault_job_ms_p50", "fault"),
        ("serve.certify_job_ms_p50", "certify"),
    ] {
        let (us, n) = p50_us("run_job", case);
        out.push(metric(name, us / 1e3, "ms", n));
    }
    for (d, v) in guest.iter().enumerate() {
        out.push(metric(
            format!("guest.d{}_ms_p50", d + 1),
            median(v),
            "ms",
            v.len(),
        ));
    }
    let (cert_us, n) = p50_us("certify", "certify");
    out.push(metric("trace.certify_us_p50", cert_us, "us", n));
    let (json_us, n) = p50_us("RunTrace::to_json", "certify");
    out.push(metric("trace.to_json_us_p50", json_us, "us", n));
    let (plan_us, n) = p50_us("FaultPlan::from_json", "jitter_loss");
    out.push(metric("faults.plan_parse_us", plan_us, "us", n));
}

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 9] = [
    "bench",
    "sim",
    "machine.event",
    "machine.plan_cache",
    "machine.guest",
    "machine.pool",
    "core.serve_suite",
    "trace",
    "faults",
];

/// The traced run.  Returns every per-layer metric.
pub fn traced(
    workload: &str,
    seed: u64,
    window: Duration,
    threads: usize,
    checker: &mut Checker,
) -> Vec<Metric> {
    let mut spans = Spans::new(true);
    let mut out = Vec::new();
    let mut named = None;
    let segs = Segments {
        count: 1,
        length: window / 4,
    };
    let half = Segments {
        count: 1,
        length: window / 8,
    };
    let untraced = |seed, checker: &mut Checker| {
        run_stream(
            workload,
            seed,
            half,
            threads,
            &mut Spans::new(false),
            checker,
        )
        .out
        .job_ms
    };
    let mut plain = Vec::new();
    for w in crate::WORKLOADS {
        if w == workload {
            plain = untraced(seed ^ 1, checker);
        }
        let st = run_stream(w, seed, segs, threads, &mut spans, checker);
        if let Some(run) = &st.direct {
            sim_metrics(run, &mut out);
            fault_overhead(run, &mut out);
            if w == "cold_recursion" {
                for (i, s) in run.shapes.iter().enumerate() {
                    if s.faulted_twin_of.is_some() {
                        continue;
                    }
                    let (ops, hits) = run.counters(i).unwrap_or((0, 0));
                    out.push(metric(
                        format!("hram.{}.table_hit_ratio", s.name),
                        hits as f64 / ops.max(1) as f64,
                        "ratio",
                        1,
                    ));
                }
            }
        }
        if w == "serve_warm" {
            let c = st
                .out
                .cache
                .expect("serve_warm records plan-cache counters");
            let lookups = c.hits + c.misses;
            out.push(metric("plan_cache.hits", c.hits as f64, "count", 1));
            out.push(metric("plan_cache.misses", c.misses as f64, "count", 1));
            out.push(metric(
                "plan_cache.evictions",
                c.evictions as f64,
                "count",
                1,
            ));
            out.push(metric(
                "plan_cache.hit_ratio",
                c.hits as f64 / lookups.max(1) as f64,
                "ratio",
                lookups as usize,
            ));
            out.push(metric("plan_cache.bytes", c.bytes as f64, "B", 1));
            let errors = st
                .batches
                .iter()
                .filter(|b| !b.prefill)
                .flat_map(|b| b.answers.iter().map(|a| &b.reqs[a.req]))
                .filter(|r| matches!(r.kind, Kind::Malformed(_)))
                .count();
            out.push(metric("serve.error_lines", errors as f64, "count", 1));
            serve_probe(seed, &mut spans, checker, &mut out);
        }
        if w == workload {
            named = Some(st.out);
            plain.extend(untraced(seed ^ 2, checker));
        }
    }
    let named = named.expect("the named workload is one of WORKLOADS");
    pool_probe(&mut spans, threads, &mut out);
    recording_probe(&mut spans, &mut out);
    event_probe(&mut spans, checker, &mut out);
    out.push(metric(
        "proc.minflt_per_job",
        named.minflt as f64 / named.job_ms.len().max(1) as f64,
        "count",
        named.job_ms.len(),
    ));
    out.push(metric(
        "proc.tracing_overhead",
        median(&named.job_ms) / median(&plain),
        "ratio",
        named.job_ms.len().min(plain.len()),
    ));
    let self_ms = spans.self_ms();
    for layer in LAYERS {
        out.push(metric(
            format!("self_ms.{layer}"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
            spans.len(),
        ));
    }
    let path = std::env::current_exe().ok().and_then(|p| {
        p.parent()
            .map(|d| d.join(format!("perfbench-spans-{workload}-{seed}.jsonl")))
    });
    if let Some(path) = path {
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    out
}
