//! The `chop` subcommands.

use std::error::Error;

use chop_bad::{ArchitectureStyle, ClockConfig, PredictorParams};
use chop_core::prelude::*;
use chop_dfg::parse::parse_dfg;
use chop_dfg::Dfg;
use chop_library::standard::{
    example_off_shelf_ram, example_on_chip_ram, extended_library, table1_library,
    table2_packages,
};
use chop_library::{ChipId, ChipSet};
use chop_service::{chip_count, memory_blocks, optimize_spec, resolve_node, OptimizeParams};
use chop_stat::units::{MilliWatts, Nanos};

use crate::args::{
    all_cpus, parse_optimize_options, parse_options, parse_router_options, parse_serve_options,
    ArgError, Options,
};

const HELP: &str = "chop — constraint-driven system-level partitioner

USAGE:
  chop check <spec.cbs> [options]   decide feasibility of a partitioning
  chop optimize <spec.cbs> [options]
                                    auto-partition: move nodes between
                                    partitions until feasible/converged
  chop dot <spec.cbs>               print the DFG in Graphviz DOT
  chop tasks <spec.cbs> [options]   print the task graph in DOT
  chop serve [options]              run the partitioning service (TCP)
  chop router [options]             proxy sessions over replicated pairs
  chop client <addrs> <cmd> [...]   talk to a running service/router
  chop format                       describe the spec file format
  chop help                         this text

OPTIONS (check / tasks):
  --partitions, -k <N>     partitions via horizontal cut   [1]
  --chips <N>              chips in the set, at most one   [= partitions]
                           per node
  --package <64|84>        MOSIS package pins (Table 2)    [84]
  --perf <ns>              performance constraint          [30000]
  --delay <ns>             system-delay constraint         [30000]
  --power <mW>             optional system power limit
  --multi-cycle            multi-cycle operations (sets --dp-mult 1)
  --dp-mult <N>            datapath clock multiplier       [10]
  --heuristic <e|i>        enumeration or iterative        [i]
  --testability <none|partial|full>                        [none]
  --on-chip-memory <M:C>   place memory block M on chip C  [off-the-shelf]
  --extended-library       add comparators/logic/shifters to Table 1
  --markdown               emit a markdown report (check only)
  --deadline <ms>          wall-clock budget for exploration
  --max-trials <N>         cap on combinations examined
  --max-points <N>         cap on retained design points
  --no-degrade             never switch heuristic E to I on huge spaces
  --no-bnb                 exhaustive odometer walk in heuristic E (skip
                           the branch-and-bound subtree pruning)
  --jobs, -j <N>           worker threads for prediction and combination
                           scoring                         [all CPUs]
  --stats                  print per-stage trace and cache statistics
  --stats-json <path>      write trace/cache statistics as JSON
  --move-node <N:P>        after the run, move node N to partition P and
                           re-explore incrementally (check only)

OPTIONS (optimize — all check options apply, plus):
  --seed <N>               deterministic randomness seed   [0]
  --max-moves <N>          cap on candidate move evaluations
  --kicks <N>              plateau kicks (annealed escapes) [spec default]
  --kick-moves <N>         annealed moves attempted per kick
  --pin <N>                pin node N to its partition (repeatable)
  --group <A,B,C>          nodes move atomically, stay co-located
                           (repeatable)
  --exclude <A:B>          nodes A and B never share a partition
                           (repeatable)
  --deadline <ms> / --heuristic <e|i> bound and steer each evaluation

OPTIONS (serve):
  --addr <host:port>       listen address (port 0 = ephemeral) [127.0.0.1:1991]
  --workers <N>            exploration worker threads          [4]
  --max-inflight <N>       explorations in flight before busy  [64]
  --jobs, -j <N>           default threads per exploration     [all CPUs]
  --state-dir <dir>        journal mutations here and recover them on
                           restart (crash-safe sessions)       [in-memory]
  --journal-snapshot-every <N>
                           compact the journal past N records (0 = never)
                                                               [1024]
  --cache-snapshot <path>  persist the prediction cache here and reload it
                           on restart (warm starts)        [off]
  --cache-snapshot-every <N>
                           also snapshot after every N cache insertions
                           (0 = only on graceful drain)    [256]
  --peer <host:port>       replication partner: ship every committed journal
                           record to it while primary (snapshot-first on
                           connect), accept its stream while standby
  --standby                start as a warm standby: apply the replication
                           stream, refuse direct mutations until promoted
  --max-connections <N>    concurrent connections before new ones are
                           refused with a typed error          [4096]
  --idle-timeout-ms <N>    close connections with no completed request in
                           N ms, typed error first (0 = never) [600000]
  --max-requests-per-sec <N>
                           per-connection request rate cap; over-limit
                           lines get a typed busy reply with retry_after_ms
                           and the connection stays open (0 = uncapped) [0]
  SIGINT/SIGTERM drain the server gracefully (journal flushed, exit 0).

OPTIONS (router):
  --addr <host:port>       listen address (port 0 = ephemeral) [127.0.0.1:1990]
  --backend <primary[,standby]>
                           one replicated backend pair; repeat for more.
                           Sessions are consistent-hashed over the pairs;
                           a dead primary fails over to its standby.
  --health-interval-ms <N> active-backend ping cadence         [500]

CLIENT COMMANDS (chop client [--retry|--retry-ms N] <addrs> ...):
  <addrs> may be a comma-separated node list (addr1,addr2); the client
  dials the first that answers and fails over to the next on transport
  errors when retrying.
  --retry / --retry-ms <N>           retry busy replies and transport
                                     failures (backoff with jitter) for up
                                     to N ms [2000]; mutations are tagged
                                     with a req_id so a retried delivery is
                                     answered once, never applied twice
  ping                               liveness / protocol version
  open <name> <spec.cbs> [--partitions N] [--chips N] [--package 64|84]
                         [--perf ns] [--delay ns] [--single-cycle]
  explore <name> [--heuristic e|i] [--deadline ms] [--max-trials N] [--jobs N]
  optimize <name> [--seed N] [--heuristic e|i] [--deadline ms] [--max-moves N]
                  [--kicks N] [--kick-moves N] [--jobs N] [--pin N]
                  [--group A,B,C] [--exclude A:B]
  apply-moves <name> <NODE:PART[,NODE:PART...]>
  repartition <name> <NODE:PARTITION>
  set-constraints <name> --perf <ns> --delay <ns>
  stats [name]
  close <name>
  promote                            promote a warm standby to primary
  shutdown                           drain the server and exit 0

EXIT CODES:
  0  a feasible implementation was found (search complete)
  1  error (bad usage, unreadable spec, prediction failure, busy server)
  2  infeasible — the search completed and found nothing
  3  truncated — a budget tripped; results are partial
";

const FORMAT: &str = "Spec format (# comments, one definition per line):

  x  = input 16          primary input, explicit width
  c  = const 16          constant source
  s  = add x c           add/sub/mul/div/logic/shift
  t  = cmp s x           comparison (1-bit result)
  r  = read M0 x         memory read: block, address
  w  = write M0 x s      memory write: block, address, data
  y  = output s          primary output
";

/// The outcome of a successful `chop` invocation, mapped to a process
/// exit code by `main` (errors exit 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// A feasible implementation was found (or the command has no
    /// feasibility verdict, e.g. `dot`/`help`). Exit code 0.
    Feasible,
    /// The search completed and found nothing feasible. Exit code 2.
    Infeasible,
    /// A budget tripped before the search finished; any reported results
    /// are partial. Exit code 3.
    Truncated,
}

impl RunStatus {
    /// The process exit code for this status.
    #[must_use]
    pub fn exit_code(self) -> u8 {
        match self {
            RunStatus::Feasible => 0,
            RunStatus::Infeasible => 2,
            RunStatus::Truncated => 3,
        }
    }

    /// The one exit rule for a search result, local or served:
    /// truncation wins over the feasible/infeasible verdict because the
    /// results are partial either way. E→I degradation is a *complete*
    /// (heuristic-I) search and does not truncate.
    pub(crate) fn of(completion: Completion, feasible: bool) -> Self {
        if completion.is_truncated() {
            RunStatus::Truncated
        } else if feasible {
            RunStatus::Feasible
        } else {
            RunStatus::Infeasible
        }
    }

    fn from_outcome(outcome: &SearchOutcome) -> Self {
        Self::of(outcome.completion, !outcome.feasible.is_empty())
    }
}

/// Dispatches a `chop` invocation.
///
/// # Errors
///
/// Returns a displayable error for bad usage, unreadable files, parse
/// failures and infeasible configurations that cannot even be built.
pub fn run(argv: &[String]) -> Result<RunStatus, Box<dyn Error>> {
    match argv.first().map(String::as_str) {
        Some("check") => check(&parse_options(&argv[1..])?),
        Some("optimize") => {
            let (opts, params) = parse_optimize_options(&argv[1..])?;
            optimize(&opts, &params)
        }
        Some("dot") => dot(&argv[1..]),
        Some("tasks") => tasks(&parse_options(&argv[1..])?),
        Some("serve") => {
            let (addr, config) = parse_serve_options(&argv[1..])?;
            crate::service::serve(&addr, config)
        }
        Some("router") => {
            let (addr, config) = parse_router_options(&argv[1..])?;
            crate::service::router(&addr, config)
        }
        Some("client") => crate::service::client(&argv[1..]),
        Some("format") => {
            print!("{FORMAT}");
            Ok(RunStatus::Feasible)
        }
        Some("help") | None => {
            print!("{HELP}");
            Ok(RunStatus::Feasible)
        }
        Some(other) => Err(Box::new(ArgError(format!("unknown command {other:?}")))),
    }
}

fn load_spec(path: &str) -> Result<Dfg, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read {path:?}: {e}")))?;
    Ok(parse_dfg(&text)?)
}

fn build_session(opts: &Options) -> Result<Session, Box<dyn Error>> {
    let dfg = load_spec(&opts.spec)?;
    let open = &opts.open;
    let packages = table2_packages();
    let package = if open.package_pins == 64 { &packages[0] } else { &packages[1] };
    let chips = ChipSet::uniform(package.clone(), chip_count(open, dfg.len())?);

    // Declare every memory block the spec references. Default:
    // off-the-shelf external part; --on-chip-memory overrides.
    let memories = memory_blocks(&dfg)?;
    let mut builder =
        PartitioningBuilder::new(dfg, chips).split_horizontal(open.partitions as usize);
    for m in 0..memories {
        builder = match opts.on_chip_memories.iter().find(|&&(mi, _)| mi as usize == m) {
            Some(&(_, chip)) => builder.with_memory(
                example_on_chip_ram(),
                MemoryAssignment::OnChip(ChipId::new(chip)),
            ),
            None => builder.with_memory(example_off_shelf_ram(), MemoryAssignment::External),
        };
    }
    let partitioning = builder.build()?;

    let library = if opts.extended_library { extended_library() } else { table1_library() };
    let style = if open.multi_cycle {
        ArchitectureStyle::multi_cycle()
    } else {
        ArchitectureStyle::single_cycle()
    };
    // The unit types panic on NaN/negative input, so bad bounds must be
    // rejected as argument errors before any Nanos is constructed; zero
    // bounds are caught by `try_with_constraints` below.
    for (flag, v) in [
        ("--perf", open.performance_ns),
        ("--delay", open.delay_ns),
        ("--power", opts.power.unwrap_or(1.0)),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(Box::new(ArgError(format!(
                "{flag} must be a positive, finite number"
            ))));
        }
    }
    let mut constraints =
        Constraints::new(Nanos::new(open.performance_ns), Nanos::new(open.delay_ns));
    if let Some(mw) = opts.power {
        constraints = constraints.with_power_limit(MilliWatts::new(mw));
    }
    let mut session = Session::new(
        partitioning,
        library,
        ClockConfig::new(Nanos::new(300.0), opts.dp_mult, 1)?,
        style,
        PredictorParams::default(),
        constraints,
    )
    .try_with_constraints(constraints)?;
    session = match opts.testability.as_str() {
        "partial" => session.with_testability(TestabilityOverhead::partial_scan()),
        "full" => session.with_testability(TestabilityOverhead::full_scan()),
        _ => session,
    };
    let mut budget = opts.explore.budget.search_budget();
    if let Some(n) = opts.max_points {
        budget = budget.with_max_points(n);
    }
    if opts.no_degrade {
        budget = budget.without_degradation();
    }
    let jobs = opts.explore.jobs.map_or_else(all_cpus, |j| j as usize);
    Ok(session
        .with_budget(budget)
        .with_jobs(jobs)
        .with_cache_config(DEFAULT_CACHE_CAPACITY, recommended_shards(jobs))
        .with_branch_and_bound(!opts.no_bnb))
}

/// `chop optimize` — run the move-based optimizer on the spec's initial
/// partitioning and report the accepted trace and final verdict.
fn optimize(opts: &Options, params: &OptimizeParams) -> Result<RunStatus, Box<dyn Error>> {
    let session = build_session(opts)?;
    let spec = optimize_spec(&session, params)?;
    print!("{}", report::environment(&session));
    let result = session.optimize(&spec)?;
    println!(
        "optimize (seed {}): {} move(s) accepted over {} pass(es), {} kick(s), \
         {} evaluation(s), {:.2?}",
        params.seed,
        result.moves.len(),
        result.passes,
        result.kicks_used,
        result.evaluations,
        result.elapsed
    );
    println!("score: {:.3} -> {:.3}", result.initial_score, result.final_score);
    if result.completion.is_truncated() {
        println!("TRUNCATED ({}) — the trace below is partial.", result.completion);
    }
    for mv in &result.moves {
        let nodes =
            mv.nodes.iter().map(|n| n.index().to_string()).collect::<Vec<_>>().join("+");
        println!(
            "  pass {} {}: node {nodes} {} -> {}",
            mv.pass,
            mv.kind,
            mv.from.index(),
            mv.to.index()
        );
    }
    println!();
    report_outcome(opts, &result.outcome, &session);
    println!("\ndigest {}", result.digest());
    Ok(RunStatus::of(result.completion, result.feasible()))
}

fn check(opts: &Options) -> Result<RunStatus, Box<dyn Error>> {
    let session = build_session(opts)?;
    let heuristic = opts.explore.heuristic;
    if opts.markdown {
        let outcome = session.explore(heuristic)?;
        print!("{}", report::markdown(&session, &outcome));
        write_stats_json(opts, &session, &[("baseline", &outcome)])?;
        return Ok(RunStatus::from_outcome(&outcome));
    }
    print!("{}", report::environment(&session));
    let outcome = session.explore(heuristic)?;
    report_outcome(opts, &outcome, &session);
    let moved_outcome;
    let mut runs: Vec<(&str, &SearchOutcome)> = vec![("baseline", &outcome)];
    let status = match opts.move_node {
        Some((node, part)) => {
            let moved =
                session.repartition(resolve_node(&session, node)?, PartitionId::new(part))?;
            println!("\nWHAT-IF: node {node} moved to partition {part}, re-exploring");
            moved_outcome = moved.explore(heuristic)?;
            report_outcome(opts, &moved_outcome, &moved);
            println!(
                "incremental re-explore: {} predictor call(s), {} partition(s) from cache",
                moved_outcome.trace.predictor_calls, moved_outcome.trace.cache_hits
            );
            runs.push(("moved", &moved_outcome));
            RunStatus::from_outcome(&moved_outcome)
        }
        None => RunStatus::from_outcome(&outcome),
    };
    write_stats_json(opts, &session, &runs)?;
    Ok(status)
}

/// Prints the human-readable result block for one exploration run.
fn report_outcome(opts: &Options, outcome: &SearchOutcome, session: &Session) {
    println!(
        "heuristic {}: {} trials, {} feasible, {:.2?}",
        outcome.heuristic, outcome.trials, outcome.feasible_trials, outcome.elapsed
    );
    if outcome.degraded {
        println!("note: enumeration space too large, degraded to heuristic I");
    }
    if outcome.completion.is_truncated() {
        println!("TRUNCATED ({}) — results below are partial.", outcome.completion);
    }
    match outcome.feasible.first() {
        Some(best) => {
            println!("\n{}", report::guideline(outcome, best, session.library()));
        }
        None if outcome.completion.is_truncated() => {
            println!("\nNo feasible combination found before the budget tripped.");
            println!("Raise --deadline/--max-trials or drop the budget to search further.");
        }
        None => {
            println!("\nINFEASIBLE — no combination of predicted implementations works.");
            println!("Try more chips/partitions, a larger package, or weaker constraints.");
        }
    }
    if opts.stats {
        print_stats(outcome, session);
    }
}

/// Prints the `--stats` table: per-stage spans, then the counters.
///
/// `predict` and `search` are wall-clock; `prune-L1`, `integrate` and
/// `feasibility` are CPU time summed across workers, so they can exceed
/// the wall-clock spans that contain them.
fn print_stats(outcome: &SearchOutcome, session: &Session) {
    let t = &outcome.trace;
    let c = &outcome.cache;
    println!("\nPIPELINE STATS ({} worker thread(s)):", t.jobs);
    for (stage, ns) in [
        ("predict (wall)", t.predict_ns),
        ("prune-L1 (cpu)", t.prune_l1_ns),
        ("search (wall)", t.search_ns),
        ("integrate (cpu)", t.integrate_ns),
        ("feasibility (cpu)", t.feasibility_ns),
    ] {
        #[allow(clippy::cast_precision_loss)]
        let ms = ns as f64 / 1e6;
        println!("  {stage:<18} {ms:>10.3} ms");
    }
    println!(
        "  {} predictor call(s); cache: {} hit(s), {} miss(es), {} eviction(s), {} entries (~{} B)",
        t.predictor_calls, c.hits, c.misses, c.evictions, c.entries, c.bytes
    );
    let occupancy = session.shared_cache().shard_occupancy();
    if occupancy.len() > 1 {
        let cells = occupancy.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ");
        println!("  cache shards ({}): [{cells}]", occupancy.len());
    }
    println!("  {} evaluation(s), {} quick reject(s)", t.evaluations, t.quick_rejects);
    println!(
        "  {} subtree(s) skipped ({} combination(s) never visited)",
        t.subtrees_skipped, t.combinations_skipped
    );
}

/// Writes `--stats-json`: one object per run, in run order.
fn write_stats_json(
    opts: &Options,
    session: &Session,
    runs: &[(&str, &SearchOutcome)],
) -> Result<(), Box<dyn Error>> {
    let Some(path) = opts.stats_json.as_deref() else { return Ok(()) };
    let body = runs
        .iter()
        .map(|(label, o)| {
            let c = &o.cache;
            format!(
                "{{\"label\":\"{label}\",\"trace\":{},\"cache\":{{\"hits\":{},\
                 \"misses\":{},\"evictions\":{},\"entries\":{},\"bytes\":{}}}}}",
                o.trace.to_json(),
                c.hits,
                c.misses,
                c.evictions,
                c.entries,
                c.bytes
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    // One array, not one per run: what-if sessions share the cache, so
    // occupancy is a property of the process, not of a single run.
    let shards = session
        .shared_cache()
        .shard_occupancy()
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    std::fs::write(path, format!("{{\"runs\":[{body}],\"shard_entries\":[{shards}]}}\n"))
        .map_err(|e| ArgError(format!("cannot write {path:?}: {e}")))?;
    Ok(())
}

fn dot(argv: &[String]) -> Result<RunStatus, Box<dyn Error>> {
    let path =
        argv.first().ok_or_else(|| ArgError("dot needs a <spec.cbs> argument".into()))?;
    let dfg = load_spec(path)?;
    print!("{}", chop_dfg::dot::to_dot(&dfg));
    Ok(RunStatus::Feasible)
}

fn tasks(opts: &Options) -> Result<RunStatus, Box<dyn Error>> {
    let session = build_session(opts)?;
    print!("{}", report::task_graph_dot(session.partitioning()));
    Ok(RunStatus::Feasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Materializes a spec under the temp dir. I/O failures surface as
    /// `Err` (and a test failure) instead of a panic mid-assertion.
    fn write_spec(name: &str, body: &str) -> Result<String, Box<dyn Error>> {
        let dir = std::env::temp_dir().join("chop-cli-tests");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(name);
        std::fs::write(&path, body)?;
        Ok(path.to_string_lossy().into_owned())
    }

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_and_format_print() {
        assert!(run(&argv(&["help"])).is_ok());
        assert!(run(&argv(&["format"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&argv(&["bogus"])).is_err());
    }

    #[test]
    fn check_runs_on_simple_spec() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "simple.cbs",
            "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n",
        )?;
        run(&argv(&["check", &path]))?;
        run(&argv(&["check", &path, "--multi-cycle", "--heuristic", "e"]))?;
        Ok(())
    }

    #[test]
    fn optimize_runs_deterministically() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "optimize.cbs",
            "a = input 16\nb = input 16\np = mul a b\ns = add p a\nt = add s b\n\
             u = add t a\ny = output u\n",
        )?;
        let status = run(&argv(&[
            "optimize",
            &path,
            "--partitions",
            "2",
            "--seed",
            "7",
            "--max-moves",
            "64",
        ]))?;
        assert_eq!(status, RunStatus::Feasible);
        // Constraint flags parse and flow into the spec.
        run(&argv(&["optimize", &path, "--partitions", "2", "--pin", "0", "--group", "2,3"]))?;
        // An unknown node index is a clean argument error.
        assert!(run(&argv(&["optimize", &path, "--pin", "99"])).is_err());
        Ok(())
    }

    #[test]
    fn dot_and_tasks_run() -> Result<(), Box<dyn Error>> {
        let path = write_spec("dot.cbs", "a = input 8\ny = output a\n")?;
        run(&argv(&["dot", &path]))?;
        run(&argv(&["tasks", &path, "--partitions", "1"]))?;
        Ok(())
    }

    #[test]
    fn memory_spec_defaults_to_off_the_shelf() -> Result<(), Box<dyn Error>> {
        let path =
            write_spec("mem.cbs", "a = input 16\nr = read M0 a\np = mul r a\ny = output p\n")?;
        run(&argv(&["check", &path, "--multi-cycle"]))?;
        run(&argv(&["check", &path, "--multi-cycle", "--on-chip-memory", "M0:0"]))?;
        Ok(())
    }

    #[test]
    fn markdown_report_flag_accepted() -> Result<(), Box<dyn Error>> {
        let path =
            write_spec("md.cbs", "a = input 16\nb = input 16\np = mul a b\ny = output p\n")?;
        run(&argv(&["check", &path, "--multi-cycle", "--markdown"]))?;
        Ok(())
    }

    #[test]
    fn shipped_spec_files_all_check() -> Result<(), Box<dyn Error>> {
        let specs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
        let mut found = 0;
        for entry in std::fs::read_dir(specs)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "cbs") {
                found += 1;
                let p = path.to_string_lossy().into_owned();
                run(&argv(&["check", &p, "--multi-cycle", "--partitions", "2"]))
                    .map_err(|e| format!("{p} failed: {e}"))?;
                run(&argv(&["dot", &p]))?;
            }
        }
        assert!(found >= 3, "expected the shipped spec files, found {found}");
        Ok(())
    }

    #[test]
    fn missing_file_reports_cleanly() {
        let err = run(&argv(&["check", "/nonexistent/x.cbs"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn parse_error_reports_line() -> Result<(), Box<dyn Error>> {
        let path = write_spec("bad.cbs", "a = input 16\nb = add a ghost\n")?;
        let err = run(&argv(&["check", &path])).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        Ok(())
    }

    #[test]
    fn nonpositive_constraints_are_argument_errors() -> Result<(), Box<dyn Error>> {
        let path = write_spec("neg.cbs", "a = input 16\ny = output a\n")?;
        for flag in ["--perf", "--delay", "--power"] {
            let err = run(&argv(&["check", &path, flag, "-5"])).unwrap_err();
            assert!(err.to_string().contains("positive"), "{flag}: {err}");
        }
        // Zero is caught by the validating builder, not the unit types.
        let err = run(&argv(&["check", &path, "--perf", "0"])).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
        Ok(())
    }

    #[test]
    fn exit_code_mapping_is_exhaustive() {
        // One arm per RunStatus variant: adding a variant breaks this
        // match, forcing the mapping (and its docs) to be revisited.
        for status in [RunStatus::Feasible, RunStatus::Infeasible, RunStatus::Truncated] {
            let code = match status {
                RunStatus::Feasible => 0,
                RunStatus::Infeasible => 2,
                RunStatus::Truncated => 3,
            };
            assert_eq!(status.exit_code(), code);
        }
    }

    #[test]
    fn feasible_check_reports_feasible_status() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "status-ok.cbs",
            "a = input 16\nb = input 16\np = mul a b\ny = output p\n",
        )?;
        let status = run(&argv(&["check", &path, "--multi-cycle"]))?;
        assert_eq!(status, RunStatus::Feasible);
        Ok(())
    }

    #[test]
    fn impossible_constraint_reports_infeasible_status() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "status-bad.cbs",
            "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n",
        )?;
        // A 1 ns performance bound is unmeetable with a 300 ns clock.
        let status =
            run(&argv(&["check", &path, "--multi-cycle", "--perf", "1", "--delay", "1"]))?;
        assert_eq!(status, RunStatus::Infeasible);
        Ok(())
    }

    #[test]
    fn zero_deadline_reports_truncated_status() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "status-trunc.cbs",
            "a = input 16\nb = input 16\np = mul a b\ny = output p\n",
        )?;
        let status = run(&argv(&["check", &path, "--multi-cycle", "--deadline", "0"]))?;
        assert_eq!(status, RunStatus::Truncated);
        Ok(())
    }

    #[test]
    fn zero_trials_reports_truncated_status() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "status-trials.cbs",
            "a = input 16\nb = input 16\np = mul a b\ny = output p\n",
        )?;
        let status = run(&argv(&["check", &path, "--multi-cycle", "--max-trials", "0"]))?;
        assert_eq!(status, RunStatus::Truncated);
        Ok(())
    }

    #[test]
    fn help_lists_budget_flags_and_exit_codes() {
        assert!(HELP.contains("--deadline"));
        assert!(HELP.contains("--no-degrade"));
        assert!(HELP.contains("EXIT CODES"));
    }

    #[test]
    fn help_lists_engine_flags() {
        assert!(HELP.contains("--jobs"));
        assert!(HELP.contains("--stats"));
        assert!(HELP.contains("--stats-json"));
        assert!(HELP.contains("--move-node"));
        assert!(HELP.contains("--no-bnb"));
    }

    #[test]
    fn stats_and_jobs_flags_run() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "stats.cbs",
            "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n",
        )?;
        run(&argv(&["check", &path, "--multi-cycle", "--stats", "--jobs", "2"]))?;
        Ok(())
    }

    #[test]
    fn stats_json_writes_a_runs_object() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "stats-json.cbs",
            "a = input 16\nb = input 16\np = mul a b\ny = output p\n",
        )?;
        let out = std::env::temp_dir().join("chop-cli-tests").join("stats.json");
        let out = out.to_string_lossy().into_owned();
        run(&argv(&["check", &path, "--multi-cycle", "--stats-json", &out]))?;
        let body = std::fs::read_to_string(&out)?;
        assert!(body.starts_with("{\"runs\":[{\"label\":\"baseline\""));
        assert!(body.contains("\"predictor_calls\""));
        assert!(body.contains("\"cache\""));
        Ok(())
    }

    #[test]
    fn move_node_reexplores_incrementally() -> Result<(), Box<dyn Error>> {
        let path = write_spec(
            "move.cbs",
            "a = input 16\nb = input 16\np = mul a b\ns = add p a\nt = add s b\ny = output t\n",
        )?;
        let out = std::env::temp_dir().join("chop-cli-tests").join("move.json");
        let out = out.to_string_lossy().into_owned();
        run(&argv(&[
            "check",
            &path,
            "--multi-cycle",
            "--partitions",
            "2",
            "--move-node",
            "3:0",
            "--stats-json",
            &out,
        ]))?;
        let body = std::fs::read_to_string(&out)?;
        assert!(body.contains("\"label\":\"baseline\""));
        assert!(body.contains("\"label\":\"moved\""));
        Ok(())
    }

    #[test]
    fn move_node_rejects_unknown_node() -> Result<(), Box<dyn Error>> {
        let path = write_spec("move-bad.cbs", "a = input 16\ny = output a\n")?;
        let err =
            run(&argv(&["check", &path, "--multi-cycle", "--move-node", "99:0"])).unwrap_err();
        assert!(err.to_string().contains("no node with index"));
        Ok(())
    }

    #[test]
    fn help_lists_service_commands() {
        assert!(HELP.contains("chop serve"));
        assert!(HELP.contains("chop client"));
        assert!(HELP.contains("--max-inflight"));
        assert!(HELP.contains("--max-connections"));
        assert!(HELP.contains("--idle-timeout-ms"));
        assert!(HELP.contains("shutdown"));
    }

    #[test]
    fn help_lists_durability_and_retry_flags() {
        assert!(HELP.contains("--state-dir"));
        assert!(HELP.contains("--journal-snapshot-every"));
        assert!(HELP.contains("--retry"));
        assert!(HELP.contains("set-constraints"));
        assert!(HELP.contains("SIGINT/SIGTERM"));
    }

    #[test]
    fn help_lists_replication_and_router() {
        assert!(HELP.contains("chop router"));
        assert!(HELP.contains("--peer"));
        assert!(HELP.contains("--standby"));
        assert!(HELP.contains("--backend"));
        assert!(HELP.contains("--health-interval-ms"));
        assert!(HELP.contains("promote"));
        assert!(HELP.contains("comma-separated node list"));
    }
}
