//! Hostile arguments against the real `chop` binary: each must end in a
//! typed error and exit code 1, never a panic (exit 101).

use std::process::Command;

#[test]
fn out_of_range_partition_counts_are_typed_errors() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/mac.cbs");
    let text = std::fs::read_to_string(spec).expect("read the shipped spec");
    let nodes = chop_dfg::parse::parse_dfg(&text).expect("the shipped spec parses").len();
    for k in [0, nodes + 1] {
        for command in ["check", "optimize", "tasks"] {
            let output = Command::new(env!("CARGO_BIN_EXE_chop"))
                .args([command, spec, "-k", &k.to_string()])
                .output()
                .expect("spawn chop");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "chop {command} -k {k}: {stderr}");
            assert!(!stderr.contains("panicked"), "chop {command} -k {k}: {stderr}");
            assert!(
                stderr.contains(&format!("partition count {k} is outside 1..={nodes}")),
                "chop {command} -k {k}: {stderr}"
            );
        }
    }
}

#[test]
fn hostile_chip_and_partition_counts_are_refused_before_allocation() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/mac.cbs");
    let max = u32::MAX.to_string();
    for args in [["-k", max.as_str()], ["--chips", max.as_str()], ["--chips", "0"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_chop"))
            .args(["check", spec])
            .args(args)
            .output()
            .expect("spawn chop");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "chop check {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "chop check {args:?}: {stderr}");
    }
}
