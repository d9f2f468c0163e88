//! Hostile arguments against the real `chop` binary: each must end in a
//! typed error and exit code 1, never a panic (exit 101).

use std::process::Command;

#[test]
fn out_of_range_partition_counts_are_typed_errors() {
    let mac = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/mac.cbs");
    let text = std::fs::read_to_string(mac).expect("read the shipped spec");
    let nodes = chop_dfg::parse::parse_dfg(&text).expect("the shipped spec parses").len();
    // No shipped spec has more than 64 nodes, so the partition limit is
    // probed on a 100-node chain.
    let dir = std::env::temp_dir().join(format!("chop-hostile-k-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let chain = dir.join("chain.cbs");
    let adds: String = (1..99).map(|i| format!("n{i} = add n{} n0\n", i - 1)).collect();
    std::fs::write(&chain, format!("n0 = input 16\n{adds}y = output n98\n"))
        .expect("write spec");
    let chain = chain.to_str().expect("UTF-8 temp path");
    let max = chop_core::spec::MAX_PARTITIONS;
    for (spec, k, limit) in [(mac, 0, nodes), (mac, nodes + 1, nodes), (chain, max + 1, max)] {
        for command in ["check", "optimize", "tasks"] {
            let output = Command::new(env!("CARGO_BIN_EXE_chop"))
                .args([command, spec, "-k", &k.to_string()])
                .output()
                .expect("spawn chop");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "chop {command} -k {k}: {stderr}");
            assert!(!stderr.contains("panicked"), "chop {command} -k {k}: {stderr}");
            assert!(
                stderr.contains(&format!("partition count {k} is outside 1..={limit}")),
                "chop {command} -k {k}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn hostile_memory_index_is_refused_before_allocation() {
    let dir = std::env::temp_dir().join(format!("chop-hostile-mem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let spec = dir.join("mem.cbs");
    std::fs::write(&spec, "a = input 16\nr = read M4294967295 a\ny = output r\n")
        .expect("write spec");
    let output = Command::new(env!("CARGO_BIN_EXE_chop"))
        .arg("check")
        .arg(&spec)
        .output()
        .expect("spawn chop");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("memory block M4294967295 is outside M0..M2"), "{stderr}");
}
