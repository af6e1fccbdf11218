//! A program that faults under simulation is a structured CLI failure:
//! `hpa sim`, `hpa counters` and `hpa trace-viz` exit 3 with an error
//! line, never a panic.

use std::process::Command;

/// Loads from address -8, outside data memory.
const FAULTING: &str = "add r31, #1, r1\nsub r31, #8, r1\nldq r2, 0(r1)\nhalt\n";

#[test]
fn faulting_program_exits_3_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("hpa-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = dir.join("fault.s");
    std::fs::write(&program, FAULTING).expect("write program");
    let trace = dir.join("trace.json");
    for args in [
        vec!["sim"],
        vec!["counters"],
        vec!["trace-viz", "--out", trace.to_str().expect("utf-8 path")],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpa"))
            .args(&args)
            .arg(&program)
            .output()
            .expect("spawn hpa");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "hpa {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "hpa {args:?}: {stderr}");
        assert!(stderr.contains("outside data memory"), "hpa {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
