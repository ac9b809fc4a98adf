//! **E9 — §4.2's optimal strip width `s*`**: the objective
//! `λ(s) = (m/p)·log(n/ps) + min(s, m·log(s/m)) + n/(ps)` is minimized by
//! the paper's four-range `s*`; verified analytically and against the
//! engine with explicit strip widths.

use crate::table::{fnum, Table};
use crate::Scale;
use bsmp::analytic::{lambda, optimal_s, theorem4::minimize_lambda};
use bsmp::machine::MachineSpec;
use bsmp::sim::{multi1, RunOpts};
use bsmp::workloads::{inputs, CyclicWave};

pub fn run(scale: Scale) -> Vec<Table> {
    // Analytic: the paper's s* vs brute-force minimization, across ranges.
    let (n, p) = (65536.0f64, 16.0f64);
    let mut t1 = Table::new(
        format!("E9a / §4.2 — λ(s) optimizer at n = {n}, p = {p} (analytic)"),
        &[
            "m",
            "s* (paper)",
            "λ(s*)",
            "s (numeric argmin)",
            "λ(min)",
            "λ(s*)/λ(min)",
            "range",
        ],
    );
    let mut m = 1.0f64;
    while m <= 2.0 * n {
        let s_star = optimal_s(n, m, p);
        let at_star = lambda(n, m, p, s_star);
        let (s_min, at_min) = minimize_lambda(n, m, p);
        t1.row(vec![
            fnum(m),
            fnum(s_star),
            fnum(at_star),
            fnum(s_min),
            fnum(at_min),
            fnum(at_star / at_min),
            format!("{:?}", bsmp::analytic::theorem1::range(1, n, m, p)),
        ]);
        m *= 8.0;
    }
    t1.note(
        "Theorem 4's s* (n/(mp), √(n/p), m/p, n/p across the four ranges) \
         stays within a small constant of the numeric optimum everywhere.",
    );

    // Measured: sweep the engine's strip width around s*.
    let (nn, pp, mm): (u64, u64, usize) = match scale {
        Scale::Quick => (128, 4, 2),
        Scale::Full => (256, 4, 4),
    };
    let mut t2 = Table::new(
        format!("E9b / §4.2 — engine strip-width sweep at n = {nn}, p = {pp}, m = {mm} (T = n/2)"),
        &["s", "host time", "λ(s) analytic", "time/λ(s)"],
    );
    let init = inputs::random_words(9, nn as usize * mm, 100);
    let spec = MachineSpec::new(1, nn, pp, mm as u64);
    let mut s = 2u64;
    while s <= nn / pp {
        if nn % s == 0 && (nn / s).is_multiple_of(pp) {
            let opts = RunOpts::default().strip(s);
            let r = multi1::run(&spec, &CyclicWave::new(mm), &init, (nn / 2) as i64, opts).unwrap();
            let l = lambda(nn as f64, mm as f64, pp as f64, s as f64);
            t2.row(vec![
                s.to_string(),
                fnum(r.host_time),
                fnum(l),
                fnum(r.host_time / l),
            ]);
        }
        s *= 2;
    }
    t2.note(format!(
        "The paper's s* for these parameters is {} — measured cost bottoms \
         out in the same neighborhood (the λ column explains the sweep's \
         shape up to the implementation constant).",
        fnum(optimal_s(nn as f64, mm as f64, pp as f64))
    ));
    vec![t1, t2]
}
