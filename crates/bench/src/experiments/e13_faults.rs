//! **E13 — fault-injection envelope**: under a uniform link slowdown ν
//! every engine's measured `T_p` stays inside `ν × T_p(1)` (comm is
//! only part of each stage's critical path), the functional output is
//! untouched, and lossy/crashy plans charge visible retry/recovery time
//! while remaining bit-reproducible from the plan seed.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::machine::MachineSpec;
use bsmp::sim::{run_linear, Engine, RunOpts};
use bsmp::workloads::{inputs, Eca};
use bsmp::FaultPlan;

pub fn run(scale: Scale) -> Vec<Table> {
    let (n, steps): (u64, i64) = match scale {
        Scale::Quick => (64, 32),
        Scale::Full => (256, 128),
    };
    let p = 8u64;
    let prog = Eca::rule110();
    let init = inputs::random_bits(13, n as usize);
    let spec = MachineSpec::new(1, n, p, 1);

    let mut t = Table::new(
        format!("E13 / fault envelope — uniform link slowdown ν (n = {n}, p = {p})"),
        &[
            "engine",
            "ν",
            "T_p(ν)",
            "T_p(ν)/T_p(1)",
            "≤ ν",
            "output = guest",
        ],
    );
    let run = |engine, plan| {
        let opts = RunOpts::default().plan(plan);
        run_linear(engine, &spec, &prog, &init, steps, opts).expect("valid parameters")
    };
    for engine in [Engine::Naive1, Engine::Multi1] {
        let base = run(engine, FaultPlan::none());
        for nu in [1.0f64, 2.0, 4.0] {
            let rep = run(engine, FaultPlan::uniform_slowdown(nu));
            let ratio = rep.host_time / base.host_time;
            let ok = rep.host_time <= nu * base.host_time + 1e-6;
            let matches = rep.check_matches(&base.mem, &base.values).is_ok();
            t.row(vec![
                engine.to_string(),
                fnum(nu),
                fnum(rep.host_time),
                fnum(ratio),
                ok.to_string(),
                matches.to_string(),
            ]);
        }
    }
    t.note(
        "T_p(ν)/T_p(1) sits between 1 and ν because the plan inflates only \
         the communication share of each stage; ν = 1 reproduces the \
         fault-free clock bit-for-bit. Functional equivalence holds for \
         every ν — faults cost time, never correctness.",
    );

    let mut t2 = Table::new(
        format!("E13b / loss & crash accounting (naive1, n = {n}, p = {p}, seed-deterministic)"),
        &[
            "plan",
            "retries",
            "recovered stages",
            "injected delay",
            "T_p/T_p(clean)",
        ],
    );
    let clean = run(Engine::Naive1, FaultPlan::none());
    for (label, plan) in [
        (
            "loss 100‰ (≤3 retries)",
            FaultPlan::none().seed(7).loss(100, 3),
        ),
        ("jitter ν∈[1,2]", FaultPlan::none().seed(7).jitter(1.0, 2.0)),
        ("crashes 20‰", FaultPlan::none().seed(7).random_crashes(20)),
        (
            "all of the above",
            FaultPlan::none()
                .seed(7)
                .jitter(1.0, 2.0)
                .loss(100, 3)
                .random_crashes(20),
        ),
    ] {
        let rep = run(Engine::Naive1, plan);
        t2.row(vec![
            label.to_string(),
            rep.faults.retries.to_string(),
            rep.faults.recovered_stages.to_string(),
            fnum(rep.faults.injected_delay),
            fnum(rep.host_time / clean.host_time),
        ]);
    }
    t2.note(
        "Every fault draw is a pure hash of (seed, kind, stage, processor): \
         re-running any row reproduces the identical costs, and the values \
         always match direct guest execution.",
    );
    vec![t, t2]
}
