//! The naive step-by-step simulation on the 3-D-mesh uniprocessor host
//! `M_3(n, 1, 1)` — the Proposition-1 baseline for `d = 3` (slowdown
//! `O(n^{4/3})`) that experiment E11c sets against [`crate::dnc3`].

use bsmp_hram::{CostTable, Word};
use bsmp_machine::{volume_guest_time, VolumeProgram};
use bsmp_trace::{Engine, RunMeta, Tracer};

use crate::error::SimError;
use crate::report::SimReport;
use crate::RunOpts;

/// Simulate `steps` guest steps of `M_3(n, n, 1)` (side `n^{1/3}`)
/// naively on the uniprocessor `M_3(n, 1, 1)`.  Reads the fault plan and
/// tracer of `opts`: an active plan applies to the run treated as one
/// bulk stage (the uniprocessor view of DESIGN.md §14), and
/// [`FaultPlan::none`](bsmp_faults::FaultPlan::none) takes the plain
/// path bit-identically.
pub fn run(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
) -> Result<SimReport, SimError> {
    let n = side * side * side;
    crate::uniprocessor_run(
        opts,
        meta(side, steps),
        side as f64,
        n as u64,
        |tracer, _| try_simulate_naive3_impl(side, prog, init, steps, tracer, false),
    )
}

fn meta(side: usize, steps: i64) -> RunMeta {
    RunMeta {
        engine: Engine::Naive3,
        n: (side * side * side) as u64,
        m: 1,
        p: 1,
        steps: steps.max(0) as u64,
    }
}

/// The pre-tiling per-point reference loop, kept as the oracle for the
/// kernel bit-identity tests (`tests/kernels.rs`).  Reports 0
/// `table_hits`; every other field is bit-identical to the tiled path.
#[doc(hidden)]
pub fn try_simulate_naive3_scalar(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
) -> Result<SimReport, SimError> {
    try_simulate_naive3_impl(side, prog, init, steps, &mut Tracer::off(), true)
}

fn try_simulate_naive3_impl(
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    tracer: &mut Tracer,
    force_scalar: bool,
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
    let access = bsmp_hram::AccessFn::new(3, 1);
    let mut ram = bsmp_hram::Hram::new(access, 3 * n);
    // Layout: value row A at [0, n), row B at [n, 2n).
    for (v, w) in init.iter().enumerate() {
        ram.poke(v, *w);
    }
    let idx = |x: usize, y: usize, z: usize| (z * side + y) * side + x;
    let mut prev: Vec<Word> = init.to_vec();
    let mut next = vec![0 as Word; n];
    let (mut row_prev, mut row_next) = (0usize, n);

    // Plan-time cost table over both value rows.  The d = 3 charges are
    // irrational (cube roots), so the tiled kernel runs in chain mode:
    // a register replays the scalar loop's IEEE add order with table
    // lookups, bit-identical by construction.
    let table = CostTable::new(access, 2 * n);
    let ss = side * side;

    for t in 1..=steps {
        if force_scalar {
            for z in 0..side {
                for y in 0..side {
                    for x in 0..side {
                        let b = prog.boundary();
                        let mut rd =
                            |ok: bool, a: usize| if ok { ram.read(row_prev + a) } else { b };
                        let nb = [
                            rd(x > 0, idx(x.saturating_sub(1), y, z)),
                            rd(x + 1 < side, idx((x + 1).min(side - 1), y, z)),
                            rd(y > 0, idx(x, y.saturating_sub(1), z)),
                            rd(y + 1 < side, idx(x, (y + 1).min(side - 1), z)),
                            rd(z > 0, idx(x, y, z.saturating_sub(1))),
                            rd(z + 1 < side, idx(x, y, (z + 1).min(side - 1))),
                        ];
                        let mine = ram.read(row_prev + idx(x, y, z));
                        let out = prog.delta(x, y, z, t, mine, mine, nb);
                        ram.compute();
                        ram.write(row_next + idx(x, y, z), out);
                        next[idx(x, y, z)] = out;
                    }
                }
            }
        } else {
            // Tiled kernel: same scan order and same per-point charge
            // order (6 neighbors x±, y±, z±, then mine, then write),
            // metered through the table into a register chain.  Border
            // slabs keep gated reads; interior rows are branch-free.
            ram.reserve_table(&table);
            let mut acc = ram.meter.access;
            let cb = table.charges();
            let cbp = &cb[row_prev..row_prev + n];
            let cbn = &cb[row_next..row_next + n];
            let bd = prog.boundary();
            {
                let mem = ram.mem_table(&table);
                let (r0, r1) = mem.split_at_mut(n);
                let (rprev, rnext): (&[Word], &mut [Word]) = if row_prev == 0 {
                    (&*r0, r1)
                } else {
                    (&*r1, r0)
                };
                let point = |x: usize,
                             y: usize,
                             z: usize,
                             rnext: &mut [Word],
                             next: &mut [Word],
                             acc: &mut f64| {
                    let a = (z * side + y) * side + x;
                    let nb = [
                        if x > 0 {
                            *acc += cbp[a - 1];
                            rprev[a - 1]
                        } else {
                            bd
                        },
                        if x + 1 < side {
                            *acc += cbp[a + 1];
                            rprev[a + 1]
                        } else {
                            bd
                        },
                        if y > 0 {
                            *acc += cbp[a - side];
                            rprev[a - side]
                        } else {
                            bd
                        },
                        if y + 1 < side {
                            *acc += cbp[a + side];
                            rprev[a + side]
                        } else {
                            bd
                        },
                        if z > 0 {
                            *acc += cbp[a - ss];
                            rprev[a - ss]
                        } else {
                            bd
                        },
                        if z + 1 < side {
                            *acc += cbp[a + ss];
                            rprev[a + ss]
                        } else {
                            bd
                        },
                    ];
                    *acc += cbp[a];
                    let mine = rprev[a];
                    let out = prog.delta(x, y, z, t, mine, mine, nb);
                    *acc += cbn[a];
                    rnext[a] = out;
                    next[a] = out;
                };
                for z in 0..side {
                    for y in 0..side {
                        if z == 0 || z + 1 == side || y == 0 || y + 1 == side {
                            for x in 0..side {
                                point(x, y, z, rnext, &mut next, &mut acc);
                            }
                            continue;
                        }
                        point(0, y, z, rnext, &mut next, &mut acc);
                        for x in 1..side - 1 {
                            let a = (z * side + y) * side + x;
                            acc += cbp[a - 1];
                            acc += cbp[a + 1];
                            acc += cbp[a - side];
                            acc += cbp[a + side];
                            acc += cbp[a - ss];
                            acc += cbp[a + ss];
                            let nb = [
                                rprev[a - 1],
                                rprev[a + 1],
                                rprev[a - side],
                                rprev[a + side],
                                rprev[a - ss],
                                rprev[a + ss],
                            ];
                            acc += cbp[a];
                            let mine = rprev[a];
                            let out = prog.delta(x, y, z, t, mine, mine, nb);
                            acc += cbn[a];
                            rnext[a] = out;
                            next[a] = out;
                        }
                        point(side - 1, y, z, rnext, &mut next, &mut acc);
                    }
                }
            }
            ram.meter.access = acc;
            // n mine-reads + n writes + (6n − 6·side²) in-volume
            // neighbor reads (each face misses one direction).
            let accesses = 8 * n as u64 - 6 * ss as u64;
            ram.meter.ops += accesses;
            ram.meter.add_table_hits(accesses);
            ram.meter.add_compute(n as f64);
        }
        std::mem::swap(&mut prev, &mut next);
        std::mem::swap(&mut row_prev, &mut row_next);
    }

    let guest_time = volume_guest_time(side, 1, prog, steps);
    Ok(crate::bulk_report(
        tracer,
        meta(side, steps),
        &ram,
        prev.clone(),
        prev,
        guest_time,
    ))
}
