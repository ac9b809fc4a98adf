//! **E15 — two-sided bound certificates**: every engine × regime cell of
//! the certification matrix is run with tracing on and the recorded
//! slowdown is sandwiched between the Gunther/Brent critical-path floor
//! `max(n/p, 1)` and the engine's own Theorem 1–5 upper form (times a
//! documented slack constant); the recorded communication total is
//! sandwiched between the Scquizzato–Silvestri-style distance-weighted
//! cut floor and the run's busy time.  A second table repeats the sweep
//! under a uniform link slowdown to show the fault-adjusted upper check
//! (`(T_p − injected)/T_guest`) keeps every verdict identical.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::certify_suite::{matrix, run_case};
use bsmp::FaultPlan;

fn sweep(title: String, plan: &FaultPlan) -> Table {
    let mut t = Table::new(
        title,
        &[
            "engine",
            "regime",
            "d",
            "n",
            "m",
            "p",
            "floor",
            "measured",
            "upper",
            "comm floor",
            "comm",
            "margin",
            "verdict",
        ],
    );
    for case in matrix() {
        match run_case(&case, plan) {
            Ok((_, cert)) => t.row(vec![
                case.engine.to_string(),
                case.regime.to_string(),
                case.engine.dim().to_string(),
                case.n.to_string(),
                case.m.to_string(),
                case.p.to_string(),
                fnum(cert.lower),
                fnum(cert.measured),
                fnum(cert.upper),
                fnum(cert.comm_lower),
                fnum(cert.comm_measured),
                fnum(cert.margin),
                cert.verdict.to_string(),
            ]),
            Err(e) => t.row(vec![
                case.engine.to_string(),
                case.regime.to_string(),
                case.engine.dim().to_string(),
                case.n.to_string(),
                case.m.to_string(),
                case.p.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                format!("error: {e}"),
            ]),
        }
    }
    t
}

pub fn run(scale: Scale) -> Vec<Table> {
    let mut tables = vec![sweep(
        "E15 / certified sandwich — clean runs, all engines × reachable regimes".to_string(),
        &FaultPlan::none(),
    )];
    tables[0].note(
        "floor = max(n/p, 1) (Gunther/Brent); upper = the engine's Theorem 1–5 \
         form × a calibrated slack constant; comm floor = per-step cut traffic × \
         inter-block hop distance (Scquizzato–Silvestri style), zero at p = 1 \
         where no cut exists. margin is the smallest headroom ratio across all \
         active checks — a margin below 1 is exactly a Violated verdict. \
         p > 1 engines reach R1/R2/R4; p = 1 engines reach R1/R3/R4 (R2 is \
         empty at p = 1: its boundaries coincide); the d = 3 volume engines \
         require m = 1, which always lands in R1.",
    );
    if scale == Scale::Full {
        let nu = 1.8f64;
        let mut t = sweep(
            format!("E15b / certificates under faults — uniform link slowdown ν = {nu}"),
            &FaultPlan::uniform_slowdown(nu).seed(11),
        );
        t.note(
            "The upper checks subtract the plan's recorded injected delay \
             (Σ per-stage (faulted − clean)⁺) before comparing, so verdicts and \
             upper-side margins match the clean table exactly; only the \
             raw-measured columns move. Faults cost time, never certificates.",
        );
        tables.push(t);
    }
    tables
}
