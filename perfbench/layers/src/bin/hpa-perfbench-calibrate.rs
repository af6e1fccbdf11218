//! The calibration operation of the benchmark's bracketed timing (see
//! `perfbench/hpabench/stats.py`): a process start, a 4 MiB table and a
//! loop of dependent loads, stores and arithmetic over it, about the shape
//! of a short simulator run in a fresh `hpa` process. It uses no
//! repository code, so no change to the program under test moves its
//! time; only the host's load does.
//!
//! ```text
//! hpa-perfbench-calibrate    # prints a checksum
//! ```

use std::hint::black_box;

const WORDS: usize = 1 << 19;
const STEPS: u32 = 150_000;

fn main() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x ^ i
        })
        .collect();
    let mut acc = black_box(1u64);
    let mut at = 0usize;
    for _ in 0..STEPS {
        let v = table[at];
        acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(v);
        table[at] = v.rotate_left(7) ^ acc;
        at = (v ^ acc) as usize & (WORDS - 1);
        if acc & 1 == 0 {
            acc ^= acc >> 31;
        }
    }
    println!("{acc:#x}");
}
