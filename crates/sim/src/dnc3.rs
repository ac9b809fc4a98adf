//! **Section 6's conjecture, measured**: divide-and-conquer uniprocessor
//! simulation of the 3-D mesh `M_3(n, n, 1)` on `M_3(n, 1, 1)`, built on
//! the 4-D separator cells of [`crate::cellexec`].  The conjectured
//! slowdown — `O(n log n)`, the d = 3 analogue of Theorems 2/5 — is
//! verified in the tests and experiment E11c, against the naive
//! `O(n^{4/3})` (Proposition 1 with d = 3).

use bsmp_hram::{AccessFn, Word};
use bsmp_machine::{volume_guest_time, VolumeProgram};
use bsmp_trace::{Engine, RunMeta, Tracer};

use crate::cellexec::{CellExec, VolumeCells};
use crate::error::SimError;
use crate::report::SimReport;
use crate::RunOpts;

/// Simulate `steps` guest steps of `M_3(n, n, 1)` (side `n^{1/3}`) on
/// the uniprocessor `M_3(n, 1, 1)` via the 4-D separator recursion.
/// Reads the fault plan and tracer of `opts`: an active plan applies to
/// the run treated as one bulk stage (the uniprocessor view of
/// DESIGN.md §14), and [`FaultPlan::none`](bsmp_faults::FaultPlan::none)
/// takes the plain path bit-identically.
/// A negative `steps` is a zero-step run.
pub fn run(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
) -> Result<SimReport, SimError> {
    let steps = steps.max(0);
    let n = side * side * side;
    let meta = RunMeta {
        engine: Engine::Dnc3,
        n: n as u64,
        m: 1,
        p: 1,
        steps: steps as u64,
    };
    crate::uniprocessor_run(opts, meta, side as f64, n as u64, |tracer, meta| {
        run_clean(side, prog, init, steps, tracer, meta)
    })
}

/// The fault-free run, observed by `tracer` as a single bulk stage.
fn run_clean(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    tracer: &mut Tracer,
    meta: RunMeta,
) -> Result<SimReport, SimError> {
    let n = side * side * side;
    if prog.m() != 1 {
        return Err(SimError::DensityMismatch {
            spec_m: 1,
            prog_m: prog.m() as u64,
        });
    }
    if init.len() != n {
        return Err(SimError::InitLength {
            expected: n,
            got: init.len(),
        });
    }
    tracer.ensure_procs(1);
    tracer.begin_stage("run");
    let mut exec = CellExec::new(
        VolumeCells(prog),
        side as i64,
        AccessFn::new(3, 1),
        steps,
        1,
    );
    let (mem, values) = exec.run(init)?;
    let guest_time = volume_guest_time(side, 1, prog, steps);
    Ok(crate::bulk_report(
        tracer, meta, &exec.ram, mem, values, guest_time,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive3;
    use bsmp_machine::run_volume;
    use bsmp_workloads::{inputs, Parity3d};

    fn check_equiv(side: usize, steps: i64, seed: u64) -> (SimReport, SimReport) {
        let n = side * side * side;
        let init = inputs::random_bits(seed, n);
        let prog = Parity3d;
        let guest = run_volume(side, 1, &prog, &init, steps);
        let d = run(side, &prog, &init, steps, RunOpts::default()).unwrap();
        d.assert_matches(&guest.mem, &guest.values);
        let v = naive3::run(side, &prog, &init, steps, RunOpts::default()).unwrap();
        v.assert_matches(&guest.mem, &guest.values);
        (d, v)
    }

    #[test]
    fn equivalence_small_volumes() {
        for (side, steps) in [(2usize, 3i64), (3, 4), (4, 4), (4, 9)] {
            check_equiv(side, steps, side as u64);
        }
    }

    #[test]
    fn conjectured_growth_rate() {
        // d = 3 analogue of Theorem 2/5: slowdown O(n log n) vs naive
        // O(n^{4/3}): growth per side-doubling (n ×8): D&C ≈ ×8·(log
        // ratio) ≈ ×9–11; naive ≈ 8^{4/3} = 16.
        let (d4, v4) = check_equiv(4, 4, 10);
        let (d8, v8) = check_equiv(8, 8, 11);
        let dnc_growth = d8.slowdown() / d4.slowdown();
        let naive_growth = v8.slowdown() / v4.slowdown();
        assert!(
            dnc_growth < naive_growth,
            "D&C ×{dnc_growth} must undercut naive ×{naive_growth}"
        );
        assert!(naive_growth > 11.0, "naive ~n^{{4/3}}: ×{naive_growth}");
        assert!(dnc_growth < 14.0, "D&C ~n·log n: ×{dnc_growth}");
    }

    #[test]
    fn space_scales_like_k_three_quarters() {
        // Proposition 3 at (α, γ) = (1/3, 3/4): σ(k) = O(k^{3/4}).
        let (d4, _) = check_equiv(4, 4, 12);
        let (d8, _) = check_equiv(8, 8, 13);
        // k grows ×16 (side³·T: 256 → 4096); k^{3/4} growth = ×8.
        let ratio = d8.space as f64 / d4.space as f64;
        assert!(ratio < 12.0, "σ ~ k^{{3/4}}: expected ~8×, got ×{ratio}");
    }
}
