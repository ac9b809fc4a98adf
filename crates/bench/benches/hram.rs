//! Wall-clock microbenchmarks of the instrumented H-RAM.

use std::hint::black_box;

use bsmp::hram::{AccessFn, Hram};
use bsmp_bench::timing::bench;

fn main() {
    bench("hram/read_write_1k", 200, || {
        let mut h = Hram::new(AccessFn::new(1, 4), 1024);
        for i in 0..1024usize {
            h.write(i, i as u64);
        }
        let mut acc = 0u64;
        for i in 0..1024usize {
            acc ^= h.read(i);
        }
        black_box(acc)
    });

    {
        let mut h = Hram::new(AccessFn::new(2, 4), 4096);
        for i in 0..1024 {
            h.poke(i, i as u64);
        }
        bench("hram/relocate_block_1k", 200, || {
            h.relocate_block(0, 2048, 1024);
            h.relocate_block(2048, 0, 1024);
            black_box(h.time())
        });
    }

    {
        let a = AccessFn::new(2, 16);
        bench("hram/access_fn_d2", 200, || {
            let mut s = 0.0;
            for x in 0..4096usize {
                s += a.charge(x);
            }
            black_box(s)
        });
    }

    // The semantic floor under the recursion's host time: one metered
    // relocate / read per op at pseudo-random addresses below 2^14, on
    // the d = 1, m = 1 access function.  Each iteration is 2^16 ops, so
    // the per-op cost is the reported time / 65536.
    {
        const OPS: usize = 1 << 16;
        let mask = (1 << 14) - 1;
        let next = |a: usize| (a.wrapping_mul(1103515245).wrapping_add(12345)) & mask;
        let mut h = Hram::new(AccessFn::new(1, 1), 1 << 16);
        let mut a = 1usize;
        bench("hram/relocate_random_64k_ops", 50, || {
            for _ in 0..OPS {
                a = next(a);
                h.relocate(a, (a + 17) & mask);
            }
            black_box(h.time())
        });
        bench("hram/read_random_64k_ops", 50, || {
            let mut s = 0u64;
            for _ in 0..OPS {
                a = next(a);
                s = s.wrapping_add(h.read(a));
            }
            black_box(s)
        });
    }
}
