//! Golden digests: the expected result of every state a workload's
//! inputs can reach, for the default and the held-out seed.
//!
//! A state is a corpus case (designer workloads) or a session (the
//! service workload); its golden value is the FNV-1a hash of the
//! `SearchOutcome` / `OptimizeResult` digest. Runs under these seeds
//! compare every reply with the file written by an earlier build, so a
//! change that alters any result fails the run. `--bless` rewrites them.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Seeds with golden files: the default and the held-out one.
pub const SEEDS: [u64; 2] = [1991, 2024];

fn path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}-{seed}.txt"))
}

/// The golden hashes of `workload` under `seed`, indexed by state, if
/// the seed has a golden file.
pub fn load(workload: &str, seed: u64) -> Result<Option<Vec<u64>>, String> {
    if !SEEDS.contains(&seed) {
        return Ok(None);
    }
    let path = path(workload, seed);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let hashes = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .enumerate()
        .map(|(i, line)| match line.split_once(' ') {
            Some((state, hash)) if state.parse() == Ok(i) => u64::from_str_radix(hash, 16)
                .map_err(|_| format!("{}: bad hash {hash:?}", path.display())),
            _ => Err(format!("{}: expected state {i}, got {line:?}", path.display())),
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(Some(hashes))
}

/// Writes the golden file of `workload` under `seed`.
pub fn bless(workload: &str, seed: u64, hashes: &[u64]) -> Result<(), String> {
    let mut text = format!(
        "# perf_ledger golden digests: workload {workload}, seed {seed}\n\
         # <state> <FNV-1a 64 of the state's digest>\n"
    );
    for (state, hash) in hashes.iter().enumerate() {
        let _ = writeln!(text, "{state} {hash:016x}");
    }
    let path = path(workload, seed);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
