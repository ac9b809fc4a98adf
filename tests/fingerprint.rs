//! Bitwise model fingerprints for every engine: hex `f64::to_bits` of
//! each cost component, plus hashes of the final memory image and
//! values, over a deterministic configuration matrix.
//!
//! The expected output in `tests/fingerprint.expected` was recorded
//! before the engine entry points were unified; any host-side refactor
//! must reproduce it byte for byte.  On a mismatch the test prints the
//! full fresh output so the diff can be inspected.

use bsmp::machine::MachineSpec;
use bsmp::sim::{run_linear, run_mesh, run_volume, Engine, RunOpts, SimReport};
use bsmp::workloads::{inputs, Eca, FirPipeline, Parity3d, PlaneWave, VonNeumannLife};
use bsmp::{CoreKind, ExecPolicy, FaultPlan, LinearProgram, MeshProgram, Word};

fn hash(words: &[Word]) -> u64 {
    words.iter().fold(0u64, |h, w| {
        h.rotate_left(7) ^ w.wrapping_mul(0x9e3779b97f4a7c15)
    })
}

fn row(name: &str, r: &SimReport) -> String {
    let m = &r.meter;
    format!(
        "{name:<32} access={:016x} compute={:016x} transfer={:016x} comm={:016x} ops={} \
         host={:016x} guest={:016x} space={} stages={} mem={:016x} values={:016x} faults={:?}\n",
        m.access.to_bits(),
        m.compute.to_bits(),
        m.transfer.to_bits(),
        m.comm.to_bits(),
        m.ops,
        r.host_time.to_bits(),
        r.guest_time.to_bits(),
        r.space,
        r.stages,
        hash(&r.mem),
        hash(&r.values),
        r.faults,
    )
}

fn plan() -> FaultPlan {
    FaultPlan::none().seed(1995).jitter(1.0, 2.0).loss(50, 4)
}

/// `engine` on the linear array of `n` nodes over `p` processors.
fn line(
    engine: Engine,
    (n, p): (u64, u64),
    prog: &impl LinearProgram,
    init: &[Word],
    t: i64,
    opts: RunOpts,
) -> SimReport {
    let spec = MachineSpec::new(1, n, p, prog.m() as u64);
    run_linear(engine, &spec, prog, init, t, opts).unwrap()
}

/// `engine` on the `n`-node mesh over `p` processors.
fn mesh(
    engine: Engine,
    (n, p): (u64, u64),
    prog: &impl MeshProgram,
    init: &[Word],
    t: i64,
    opts: RunOpts,
) -> SimReport {
    let spec = MachineSpec::new(2, n, p, prog.m() as u64);
    run_mesh(engine, &spec, prog, init, t, opts).unwrap()
}

/// `engine` on the `side³` cube.
fn cube(engine: Engine, side: usize, init: &[Word], t: i64, opts: RunOpts) -> SimReport {
    run_volume(engine, side, &Parity3d, init, t, opts).unwrap()
}

fn fingerprints() -> String {
    let plain = RunOpts::default;
    let mut out = String::new();
    let rule110 = Eca::rule110();
    let life = VonNeumannLife::fredkin();
    for (n, p, t) in [(64u64, 4u64, 32i64), (256, 8, 64), (1024, 16, 64)] {
        let init = inputs::random_bits(17, n as usize);
        for e in [Engine::Naive1, Engine::Multi1, Engine::Pipelined1] {
            let r = line(e, (n, p), &rule110, &init, t, plain());
            out += &row(&format!("{e}_n{n}_p{p}_m1_T{t}"), &r);
        }
        if p == 4 {
            let r = line(Engine::Dnc1, (n, 1), &rule110, &init, t, plain());
            out += &row(&format!("dnc1_n{n}_m1_T{t}"), &r);
        }
    }
    // m > 1 (non-power-of-two density: exercises the reciprocal-exact
    // chain mode and exec1's column-state staging).
    let (n, p, m, t) = (128u64, 4u64, 3usize, 32i64);
    let fir = FirPipeline::new(m, (0..n).map(|i| (i * 7 + 1) % 1024).collect());
    let init = inputs::random_bits(23, n as usize * m);
    for e in [Engine::Naive1, Engine::Multi1] {
        let r = line(e, (n, p), &fir, &init, t, plain());
        out += &row(&format!("{e}_n{n}_p{p}_m{m}_T{t}"), &r);
    }
    for (side, p, t) in [(16u64, 16u64, 16i64), (32, 4, 32)] {
        let n = side * side;
        let init = inputs::random_bits(19, n as usize);
        let r = mesh(Engine::Naive2, (n, p), &life, &init, t, plain());
        out += &row(&format!("naive2_{side}x{side}_p{p}_T{t}"), &r);
        if side == 16 {
            let r = mesh(Engine::Dnc2, (n, 1), &life, &init, t, plain());
            out += &row(&format!("dnc2_{side}x{side}_T{t}"), &r);
        }
    }
    // multi2 at both densities, and the d = 3 engines.
    for (side, p, m, t) in [(16u64, 4u64, 1usize, 16i64), (16, 4, 2, 8)] {
        let n = side * side;
        let init = inputs::random_words(29, n as usize * m, 50);
        let r = if m == 1 {
            mesh(Engine::Multi2, (n, p), &life, &init, t, plain())
        } else {
            mesh(
                Engine::Multi2,
                (n, p),
                &PlaneWave::new(m),
                &init,
                t,
                plain(),
            )
        };
        out += &row(&format!("multi2_{side}x{side}_p{p}_m{m}_T{t}"), &r);
    }
    for (side, t) in [(4usize, 8i64), (8, 8)] {
        let init = inputs::random_bits(31, side * side * side);
        for e in [Engine::Naive3, Engine::Dnc3] {
            out += &row(
                &format!("{e}_{side}c_T{t}"),
                &cube(e, side, &init, t, plain()),
            );
        }
    }
    // Explicit leaf radius, strip width, execution core and thread
    // budget: the knobs the engines take beyond the fault plan.
    let (n, t) = (256u64, 64i64);
    let init = inputs::random_bits(37, n as usize);
    let r = line(Engine::Dnc1, (n, 1), &rule110, &init, t, plain().leaf(4));
    out += &row(&format!("dnc1_n{n}_m1_T{t}_leaf4"), &r);
    let r = line(Engine::Multi1, (n, 4), &rule110, &init, t, plain().strip(8));
    out += &row(&format!("multi1_n{n}_p4_m1_T{t}_s8"), &r);
    let event = plain().exec(ExecPolicy::threads(2)).core(CoreKind::Event);
    let r = line(Engine::Naive1, (n, 4), &rule110, &init, t, event);
    out += &row(&format!("naive1_n{n}_p4_m1_T{t}_event"), &r);
    let init2 = inputs::random_bits(41, 256);
    let r = mesh(Engine::Dnc2, (256, 1), &life, &init2, 16, plain().leaf(2));
    out += &row("dnc2_16x16_T16_leaf2", &r);
    // One faulted run per dimension.
    let init = inputs::random_bits(43, 256);
    let r = line(
        Engine::Naive1,
        (256, 8),
        &rule110,
        &init,
        64,
        plain().plan(plan()),
    );
    out += &row("naive1_n256_p8_m1_T64_faulted", &r);
    let r = mesh(
        Engine::Multi2,
        (256, 4),
        &life,
        &init,
        16,
        plain().plan(plan()),
    );
    out += &row("multi2_16x16_p4_m1_T16_faulted", &r);
    let init3 = inputs::random_bits(47, 64);
    let r = cube(
        Engine::Dnc3,
        4,
        &init3,
        8,
        plain().plan(plan().crash_at(0, 0)),
    );
    out += &row("dnc3_4c_T8_faulted", &r);
    out
}

#[test]
fn model_output_matches_the_recorded_fingerprint() {
    let got = fingerprints();
    let want = include_str!("fingerprint.expected");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "fingerprint differs from tests/fingerprint.expected (first at line {}); \
             fresh output:\n{got}",
            first + 1
        );
    }
}
