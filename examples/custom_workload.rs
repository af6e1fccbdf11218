//! Running your own program through the pipeline: write assembly text,
//! assemble it, execute it functionally, then time it under every scheme.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use half_price::asm::parse_program;
use half_price::emu::Emulator;
use half_price::workloads::CHECKSUM_REG;
use half_price::{run, MachineWidth, RunSpec, Scheme};

/// A dot-product kernel with a reduction tail — 2-source-heavy on purpose,
/// so the half-price schemes have something to chew on.
const SOURCE: &str = "
    ; r1 = vector A, r2 = vector B, r3 = n, r10 = accumulator
    li   r1, 65536
    li   r2, 131072
    li   r3, 512
    li   r10, 0
loop:
    ldq  r5, (r1)
    ldq  r6, (r2)
    mul  r5, r6, r7     ; two loads feed a multiply
    add  r10, r7, r10   ; reduction (2-source)
    add  r1, #8, r1
    add  r2, #8, r2
    sub  r3, #1, r3
    bgt  r3, loop
    halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut program = parse_program(SOURCE)?;

    // Fill the input vectors: A[i] = i+1, B[i] = 2i+1.
    let a: Vec<u64> = (0..512u64).map(|i| i + 1).collect();
    let b: Vec<u64> = (0..512u64).map(|i| 2 * i + 1).collect();
    let pack = |v: &[u64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    program.add_data(65536, pack(&a));
    program.add_data(131072, pack(&b));

    // Functional check first.
    let mut emu = Emulator::new(&program);
    emu.run(1_000_000)?;
    let expected: u64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
    assert_eq!(emu.reg(CHECKSUM_REG), expected, "dot product is correct");
    println!("functional result: A.B = {expected} ({} instructions)\n", emu.executed());

    // Now time it under every scheme of the paper's evaluation. The
    // accumulator is the checksum register, so `run` checks that timing
    // never changes the result.
    println!("{:24} {:>9} {:>7}  vs base", "scheme", "cycles", "IPC");
    let mut base_ipc = 0.0;
    for scheme in Scheme::ALL {
        let dot = RunSpec::program("dot", &program, scheme, MachineWidth::Four);
        let r = run(&RunSpec { checksum: Some(expected), ..dot })?;
        let ipc = r.stats.ipc();
        if scheme == Scheme::Base {
            base_ipc = ipc;
        }
        println!(
            "{:24} {:>9} {:>7.3}  {:+.2}%",
            scheme.label(),
            r.stats.cycles,
            ipc,
            (ipc / base_ipc - 1.0) * 100.0
        );
    }
    Ok(())
}
