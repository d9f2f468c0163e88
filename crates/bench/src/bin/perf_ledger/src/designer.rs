//! The designer workloads: `cli_cold`, what `chop check` does for one
//! spec, and `optimize`, what `chop optimize` does. Each run measures in
//! a fresh child process (this binary re-executed with `--child`), so
//! its CPU time and peak RSS cover the workload and nothing else.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chop_bad::prune::{prune, PartitionEnvelope};
use chop_bad::{ArchitectureStyle, ClockConfig, Predictor, PredictorParams};
use chop_core::spec::PartitioningBuilder;
use chop_core::{Constraints, FeasibilityCriteria, OptimizeSpec, PredictionCache, Session};
use chop_dfg::hash::structural_hash;
use chop_dfg::parse::parse_dfg;
use chop_library::standard::{table1_library, table2_packages};
use chop_library::ChipSet;
use chop_stat::units::Nanos;

use crate::gen::{self, fnv64, Case};
use crate::ledger::{self, ratio, Tally, Timed};
use crate::{golden, Ctx, Report, SETUP_REPEATS};

/// The corpus file a run writes and its child reads.
const CASES_FILE: &str = "cases.txt";
/// Operations a child runs before it reports ready, so code and
/// allocator are warm when timing starts.
const WARMUP_CASES: usize = 4;

pub fn generate(optimize: bool, seed: u64) -> Vec<Case> {
    if optimize {
        gen::optimize_cases(seed)
    } else {
        gen::cli_cold_cases(seed)
    }
}

/// The session `chop check` builds for a case, around a fresh cache.
fn session(case: &Case, spec: chop_dfg::Dfg, jobs: usize) -> Result<Session, String> {
    let chips = ChipSet::uniform(table2_packages()[1].clone(), case.partitions);
    let partitioning = PartitioningBuilder::new(spec, chips)
        .split_horizontal(case.partitions)
        .build()
        .map_err(|e| e.to_string())?;
    let (clocks, style) = clocks(case.multi_cycle)?;
    Ok(Session::new(
        partitioning,
        table1_library(),
        clocks,
        style,
        PredictorParams::default(),
        Constraints::new(Nanos::new(case.performance_ns), Nanos::new(case.delay_ns)),
    )
    .with_jobs(jobs))
}

/// The clocks and style `chop check` uses: a 300 ns main clock, and a
/// datapath clock ten times faster for single-cycle operation.
fn clocks(multi_cycle: bool) -> Result<(ClockConfig, ArchitectureStyle), String> {
    let (multiplier, style) = if multi_cycle {
        (1, ArchitectureStyle::multi_cycle())
    } else {
        (10, ArchitectureStyle::single_cycle())
    };
    Ok((ClockConfig::new(Nanos::new(300.0), multiplier, 1).map_err(|e| e.to_string())?, style))
}

fn optimize_spec(case: &Case) -> OptimizeSpec {
    OptimizeSpec::new().with_seed(case.opt_seed).with_max_moves(64)
}

/// Runs a session's explore or optimize, returning its result digest.
fn finish(optimize: bool, case: &Case, session: &Session) -> Result<String, String> {
    if optimize {
        Ok(session.optimize(&optimize_spec(case)).map_err(|e| e.to_string())?.digest())
    } else {
        let outcome = session.explore(case.heuristic).map_err(|e| e.to_string())?;
        if outcome.completion.is_truncated() {
            return Err(format!("truncated explore: {}", outcome.completion));
        }
        Ok(outcome.digest())
    }
}

/// One operation: parse → partition → session → explore / optimize.
fn op(optimize: bool, case: &Case) -> Result<String, String> {
    let spec = parse_dfg(&case.spec).map_err(|e| e.to_string())?;
    finish(optimize, case, &session(case, spec, 1)?)
}

/// Expected digest hashes of every case: computed on another path than
/// the measured one (two worker threads; for `cli_cold` one cache shared
/// across the corpus), which the digest contract says must agree.
pub fn reference(optimize: bool, seed: u64) -> Result<Vec<u64>, String> {
    let cache = Arc::new(PredictionCache::new());
    generate(optimize, seed)
        .iter()
        .map(|case| {
            let spec = parse_dfg(&case.spec).map_err(|e| e.to_string())?;
            let mut session = session(case, spec, 2)?;
            if !optimize {
                session = session.with_shared_cache(Arc::clone(&cache));
            }
            Ok(fnv64(&finish(optimize, case, &session)?))
        })
        .collect()
}

/// One timed operation: its case, timing and digest hash (`None` when
/// the operation failed).
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    pub case: usize,
    pub op: ledger::Op,
    pub digest: Option<u64>,
}

/// What a child measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub ops: Vec<OpRecord>,
    /// CPU samples, as in [`Timed::cpu`].
    pub cpu: Vec<(u64, u64)>,
    pub peak_rss_kib: u64,
    pub tally: Option<Tally>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs operations over the corpus in order, cycling, until `seconds`
/// have passed, sampling its own CPU time after the first operation to
/// end in each new [`ledger::WINDOW`]; with `trace`, then re-runs the
/// same operations with each layer call timed (see [`traced`]).
pub fn measure(
    optimize: bool,
    cases: &[Case],
    seconds: f64,
    trace: bool,
) -> Result<Measured, String> {
    let cpu_before = ledger::cpu_ticks("self")?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut ops = Vec::new();
    let mut cpu = vec![(0, 0)];
    let mut next_sample = started + ledger::WINDOW;
    while ops.is_empty() || Instant::now() < deadline {
        let case = ops.len() % cases.len();
        let start = Instant::now();
        let result = op(optimize, &cases[case]);
        let done = Instant::now();
        let op = ledger::Op { done_ns: nanos(done - started), latency_ns: nanos(done - start) };
        ops.push(OpRecord { case, op, digest: result.ok().map(|d| fnv64(&d)) });
        if done >= next_sample || done >= deadline {
            cpu.push((op.done_ns, ledger::cpu_ticks("self")? - cpu_before));
            next_sample = done + ledger::WINDOW;
        }
    }
    let peak_rss_kib = ledger::peak_rss_kib("self")?;
    let tally = if trace { Some(traced(optimize, cases, ops.len())?) } else { None };
    Ok(Measured { ops, cpu, peak_rss_kib, tally })
}

/// Re-runs the first `count` operations, timing each layer call from
/// outside: `parse_dfg`, partitioning + `Session::new`, `explore` (with
/// its `ExploreTrace`) or `optimize` (with its `OptimizeResult` and cache
/// counters). After each operation's end-to-end span, BAD's
/// `Predictor::predict` and level-1 `prune` are called directly on its
/// distinct partitions, so their cost is known without double-counting.
fn traced(optimize: bool, cases: &[Case], count: usize) -> Result<Tally, String> {
    let mut t = Tally::default();
    for i in 0..count {
        let case = &cases[i % cases.len()];
        let start = Instant::now();
        let spec = parse_dfg(&case.spec).map_err(|e| e.to_string())?;
        let parsed = start.elapsed();
        let nodes = spec.len();
        let session = session(case, spec, 1)?;
        let built = start.elapsed();
        let (result, outcome) = if optimize {
            (Some(session.optimize(&optimize_spec(case)).map_err(|e| e.to_string())?), None)
        } else {
            (None, Some(session.explore(case.heuristic).map_err(|e| e.to_string())?))
        };
        let ended = start.elapsed();
        let work = nanos(ended - built) as f64;
        if let Some(result) = result {
            t.add("work_ns", work);
            t.add("attributed_ns", work);
            t.add("evaluations", result.evaluations as f64);
            t.add("predictor_calls", session.cache_stats().misses as f64);
        }
        if let Some(outcome) = outcome {
            ledger::add_explore(&mut t, &outcome, work);
            t.add("attributed_ns", (outcome.trace.predict_ns + outcome.trace.search_ns) as f64);
        }
        // The session's cache is fresh, so its lifetime counters are this
        // operation's.
        let cache = session.cache_stats();
        t.add("cache_hits", cache.hits as f64);
        t.add("cache_misses", cache.misses as f64);
        t.add("cache_evictions", cache.evictions as f64);
        t.add("cache_entries", cache.entries as f64);
        t.add("e2e_ns", nanos(ended) as f64);
        t.add("parse_ns", nanos(parsed) as f64);
        t.add("build_ns", nanos(built - parsed) as f64);
        t.add("nodes", nodes as f64);
        direct_bad(&session, case.multi_cycle, &mut t)?;
    }
    t.add("ops", count as f64);
    Ok(t)
}

/// Times `Predictor::predict` and level-1 `prune` on each distinct
/// partition of a session, exactly as the engine configures them.
pub fn direct_bad(session: &Session, multi_cycle: bool, t: &mut Tally) -> Result<(), String> {
    let (clocks, style) = clocks(multi_cycle)?;
    let predictor =
        Predictor::new(session.library().clone(), clocks, style, PredictorParams::default());
    let criteria = FeasibilityCriteria::paper_defaults();
    let constraints = session.constraints();
    let partitioning = session.partitioning();
    let mut seen = HashSet::new();
    for id in partitioning.partition_ids() {
        let sub = partitioning.partition_dfg(id);
        let chip = partitioning.chips().chip(partitioning.chip_of(id));
        if !seen.insert((structural_hash(&sub), chip.usable_area().value().to_bits())) {
            continue;
        }
        let start = Instant::now();
        let designs = predictor.predict(&sub).map_err(|e| e.to_string())?;
        t.add("bad_ns", nanos(start.elapsed()) as f64);
        t.add("bad_calls", 1.0);
        t.add("bad_designs", designs.len() as f64);
        let envelope = PartitionEnvelope::new(
            chip.usable_area(),
            constraints.performance(),
            constraints.delay(),
        )
        .with_thresholds(criteria.area, criteria.performance, criteria.delay);
        let start = Instant::now();
        let (kept, stats) = prune(designs, &envelope, &clocks);
        t.add("prune_ns", nanos(start.elapsed()) as f64);
        t.add("prune_kept", kept.len() as f64);
        t.add("prune_total", stats.total as f64);
    }
    Ok(())
}

/// The per-layer metrics of a traced designer run. `untraced_ns` is the
/// summed latency of the same operations in the untraced pass.
pub fn layers(optimize: bool, t: &Tally, untraced_ns: f64) -> Vec<(String, f64)> {
    let ops = t.get("ops");
    let mut m = ledger::bad_metrics(t);
    m.extend([
        ("dfg.parse_us", t.get("parse_ns") / ops / 1e3),
        ("dfg.nodes_per_ms", t.get("nodes") / (t.get("parse_ns") / 1e6)),
        ("spec.build_us", t.get("build_ns") / ops / 1e3),
        (
            "cache.hit_ratio",
            ratio(t.get("cache_hits"), t.get("cache_hits") + t.get("cache_misses")),
        ),
        ("cache.evictions_per_op", t.get("cache_evictions") / ops),
        ("cache.entries", t.get("cache_entries") / ops),
        ("trace.overhead_ratio", t.get("e2e_ns") / untraced_ns - 1.0),
    ]);
    // Parse and build, then the explore's predict and search spans or the
    // whole optimize span, over the operation's time.
    let attributed = t.get("parse_ns") + t.get("build_ns") + t.get("attributed_ns");
    m.push(("trace.attributed_share", attributed / t.get("e2e_ns")));
    if optimize {
        m.extend([
            ("optimize.evaluations", t.get("evaluations") / ops),
            ("optimize.ms_per_evaluation", t.ratio("work_ns", "evaluations") / 1e6),
            (
                "optimize.predictor_calls_per_evaluation",
                t.ratio("predictor_calls", "evaluations"),
            ),
        ]);
    } else {
        m.extend(ledger::engine_metrics(t));
    }
    m.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

// ---- child process -------------------------------------------------------

/// The `--child` entry: loads the corpus, warms up on its first
/// [`WARMUP_CASES`] cases, reports `ready`, and on `go` measures and
/// prints what it measured.
pub fn child(optimize: bool, dir: &Path, seconds: f64, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(dir.join(CASES_FILE)).map_err(|e| e.to_string())?;
    let cases = gen::decode_cases(&text)?;
    for case in cases.iter().take(WARMUP_CASES) {
        op(optimize, case)?;
    }
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready").and_then(|()| out.flush()).map_err(|e| e.to_string())?;
    let mut command = String::new();
    std::io::stdin().read_line(&mut command).map_err(|e| e.to_string())?;
    if command.trim() != "go" {
        return Ok(());
    }
    let measured = measure(optimize, &cases, seconds, trace)?;
    let mut text = String::new();
    for r in &measured.ops {
        let digest = r.digest.map_or_else(|| "-".to_owned(), |d| format!("{d:x}"));
        text.push_str(&format!(
            "op {} {} {} {digest}\n",
            r.case, r.op.done_ns, r.op.latency_ns
        ));
    }
    for (at, ticks) in &measured.cpu {
        text.push_str(&format!("cpu {at} {ticks}\n"));
    }
    text.push_str(&format!("peak_rss_kib {}\n", measured.peak_rss_kib));
    for (key, value) in measured.tally.iter().flat_map(Tally::iter) {
        text.push_str(&format!("tally {key} {value:?}\n"));
    }
    text.push_str("end\n");
    out.write_all(text.as_bytes()).and_then(|()| out.flush()).map_err(|e| e.to_string())
}

fn read_measured(reader: &mut impl BufRead) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let mut tally = Tally::default();
    for line in reader.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("bad child line {line:?}"))
        };
        match fields.first().copied() {
            Some("op") => measured.ops.push(OpRecord {
                case: num(1)? as usize,
                op: ledger::Op { done_ns: num(2)?, latency_ns: num(3)? },
                digest: fields.get(4).and_then(|d| u64::from_str_radix(d, 16).ok()),
            }),
            Some("cpu") => measured.cpu.push((num(1)?, num(2)?)),
            Some("peak_rss_kib") => measured.peak_rss_kib = num(1)?,
            Some("tally") => {
                let value =
                    fields.get(2).and_then(|v| v.parse().ok()).ok_or("bad tally line")?;
                tally.add(fields.get(1).ok_or("bad tally line")?, value);
                measured.tally = Some(tally.clone());
            }
            Some("end") => return Ok(measured),
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    Err("child exited before reporting".to_owned())
}

struct Spawned {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

/// Set-up: start a child and wait until it has loaded the corpus and
/// warmed up.
fn set_up(ctx: &Ctx) -> Result<Spawned, String> {
    let mut child = Command::new(&ctx.exe)
        .args(["--child", ctx.workload.name(), "--dir"])
        .arg(&ctx.out)
        .args([
            "--seconds",
            &ctx.seconds.to_string(),
            "--trace",
            if ctx.trace { "1" } else { "0" },
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", ctx.exe.display()))?;
    let stdin = child.stdin.take().ok_or("child stdin")?;
    let mut stdout = BufReader::new(child.stdout.take().ok_or("child stdout")?);
    let mut ready = String::new();
    stdout.read_line(&mut ready).map_err(|e| e.to_string())?;
    if ready.trim() != "ready" {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("child failed to load its corpus (said {ready:?})"));
    }
    Ok(Spawned { child, stdin, stdout })
}

/// A designer run: the corpus, written once; [`SETUP_REPEATS`] set-ups
/// (all but the last child are dismissed); the last child's measurement;
/// then the digest check.
pub fn run(ctx: &Ctx, optimize: bool) -> Result<Report, String> {
    let cases = generate(optimize, ctx.seed);
    gen::write_fresh(&ctx.out.join(CASES_FILE), &gen::encode_cases(&cases))?;
    let mut setup_s = Vec::new();
    let mut spawned = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut old) = spawned.take() {
            dismiss(&mut old);
        }
        let start = Instant::now();
        spawned = Some(set_up(ctx)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut child = spawned.ok_or("no set-up ran")?;
    writeln!(child.stdin, "go").map_err(|e| e.to_string())?;
    let measured = read_measured(&mut child.stdout);
    let status = child.child.wait().map_err(|e| e.to_string())?;
    let measured = measured?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }

    report(ctx, optimize, &measured, setup_s)
}

/// Checks every operation's digest against the expected one (outside
/// the timed span) and assembles the run's report.
pub fn report(
    ctx: &Ctx,
    optimize: bool,
    measured: &Measured,
    setup_s: Vec<f64>,
) -> Result<Report, String> {
    let expected = match golden::load(ctx.workload.name(), ctx.seed)? {
        Some(hashes) => hashes,
        None => reference(optimize, ctx.seed)?,
    };
    let failed = measured
        .ops
        .iter()
        .filter(|op| op.digest.is_none() || op.digest != expected.get(op.case).copied())
        .count() as u64;
    let untraced_ns: f64 = measured.ops.iter().map(|r| r.op.latency_ns as f64).sum();
    Ok(Report {
        setup_s,
        attempted: measured.ops.len() as u64,
        failed,
        layers: measured.tally.as_ref().map(|t| layers(optimize, t, untraced_ns)),
        timed: Timed {
            ops: measured.ops.iter().map(|r| r.op).collect(),
            cpu: measured.cpu.clone(),
            peak_rss_kib: measured.peak_rss_kib,
        },
        notes: vec![("cases".to_owned(), expected.len().to_string())],
    })
}

/// Ends a set-up child without measuring: any line but `go` tells it to
/// exit.
fn dismiss(spawned: &mut Spawned) {
    let _ = spawned.stdin.write_all(b"stop\n");
    let _ = spawned.child.wait();
}
