//! Hand-rolled option parsing (the approved dependency list has no clap).
//!
//! Every flag is matched in one place. The flag sets a local command
//! shares with `chop client` parse straight into the service's request
//! types — [`open_flag`] into [`OpenParams`], [`explore_flag`] into
//! [`ExploreParams`], [`optimize_flag`] into [`OptimizeParams`] — and
//! `chop serve` / `chop router` parse into [`ServeConfig`] /
//! [`RouterConfig`].

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use chop_core::prelude::Heuristic;
use chop_service::{
    BackendSpec, ExploreParams, OpenParams, OptimizeParams, RouterConfig, ServeConfig,
};

/// Options shared by `check`, `optimize` and `tasks`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Spec file path.
    pub spec: String,
    /// Partitions, chips, package and constraints. `open.spec` stays
    /// empty (the spec is read from [`spec`](Self::spec)), and unlike a
    /// wire `open` the operations are single-cycle unless
    /// `--multi-cycle` is given.
    pub open: OpenParams,
    /// Optional system power limit in mW.
    pub power: Option<f64>,
    /// Datapath clock multiplier over the 300 ns main clock.
    pub dp_mult: u32,
    /// Testability: none|partial|full.
    pub testability: String,
    /// On-chip memory placements: `(memory index, chip index)`.
    pub on_chip_memories: Vec<(u32, u32)>,
    /// Use the extended library (comparators, logic, shifters).
    pub extended_library: bool,
    /// Emit a markdown report instead of plain text (check only).
    pub markdown: bool,
    /// Heuristic, deadline, trial cap and worker threads (`None` = all
    /// CPUs).
    pub explore: ExploreParams,
    /// Cap on retained design points.
    pub max_points: Option<usize>,
    /// Never degrade heuristic E to I, however large the space.
    pub no_degrade: bool,
    /// Disable branch-and-bound subtree skipping in heuristic E (the
    /// exhaustive odometer walk; results are identical, only slower).
    pub no_bnb: bool,
    /// Print the per-stage trace and cache statistics after the search.
    pub stats: bool,
    /// Write the trace and cache statistics as JSON to this path.
    pub stats_json: Option<String>,
    /// What-if migration: `(node index, target partition)` re-explored
    /// incrementally after the baseline run.
    pub move_node: Option<(u32, u32)>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            spec: String::new(),
            open: OpenParams { multi_cycle: false, ..OpenParams::default() },
            power: None,
            dp_mult: 10,
            testability: "none".to_owned(),
            on_chip_memories: Vec::new(),
            extended_library: false,
            markdown: false,
            explore: ExploreParams::default(),
            max_points: None,
            no_degrade: false,
            no_bnb: false,
            stats: false,
            stats_json: None,
            move_node: None,
        }
    }
}

/// A user-facing argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (run `chop help`)", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parses `text` as the value of `flag`.
pub fn parse_num<T: FromStr>(flag: &str, text: &str) -> Result<T, ArgError> {
    text.parse().map_err(|_| ArgError(format!("bad value for {flag}")))
}

/// A cursor over argv that hands each flag its value.
pub struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// A cursor at the first argument.
    pub fn new(argv: &'a [String]) -> Self {
        Self(argv.iter())
    }

    /// The argument after `flag`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, ArgError> {
        self.next().ok_or_else(|| ArgError(format!("{flag} needs a value")))
    }

    /// The argument after `flag`, parsed.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, ArgError> {
        parse_num(flag, self.value(flag)?)
    }

    /// The argument after `flag`, parsed, and rejected when zero.
    fn at_least_one<T: FromStr + Default + PartialEq>(
        &mut self,
        flag: &str,
    ) -> Result<T, ArgError> {
        let n: T = self.num(flag)?;
        if n == T::default() {
            return Err(ArgError(format!("{flag} must be at least 1")));
        }
        Ok(n)
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// Applies `flag` if it is an open flag (`--partitions/-k`, `--chips`,
/// `--package`, `--perf`, `--delay`), returning whether it was one.
pub fn open_flag(
    params: &mut OpenParams,
    flag: &str,
    flags: &mut Flags<'_>,
) -> Result<bool, ArgError> {
    match flag {
        "--partitions" | "-k" => params.partitions = flags.num(flag)?,
        "--chips" => params.chips = Some(flags.num(flag)?),
        "--package" => {
            params.package_pins = flags.num(flag)?;
            if params.package_pins != 64 && params.package_pins != 84 {
                return Err(ArgError("--package must be 64 or 84".into()));
            }
        }
        _ => {
            let (mut performance_ns, mut delay_ns) = (None, None);
            if !constraint_flag(&mut performance_ns, &mut delay_ns, flag, flags)? {
                return Ok(false);
            }
            params.performance_ns = performance_ns.unwrap_or(params.performance_ns);
            params.delay_ns = delay_ns.unwrap_or(params.delay_ns);
        }
    }
    Ok(true)
}

/// Applies `flag` if it is a constraint flag (`--perf`, `--delay`, in
/// ns), the part of the open flags `set-constraints` takes too.
pub fn constraint_flag(
    performance_ns: &mut Option<f64>,
    delay_ns: &mut Option<f64>,
    flag: &str,
    flags: &mut Flags<'_>,
) -> Result<bool, ArgError> {
    match flag {
        "--perf" => *performance_ns = Some(flags.num(flag)?),
        "--delay" => *delay_ns = Some(flags.num(flag)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Applies `flag` if it is an explore flag (`--heuristic`, `--deadline`,
/// `--max-trials`, `--jobs/-j`), returning whether it was one.
pub fn explore_flag(
    params: &mut ExploreParams,
    flag: &str,
    flags: &mut Flags<'_>,
) -> Result<bool, ArgError> {
    match flag {
        "--heuristic" => {
            params.heuristic = match flags.value(flag)? {
                "e" | "E" => Heuristic::Enumeration,
                "i" | "I" => Heuristic::Iterative,
                _ => return Err(ArgError("--heuristic must be e or i".into())),
            };
        }
        "--deadline" => params.budget.deadline_ms = Some(flags.num(flag)?),
        "--max-trials" => params.budget.max_trials = Some(flags.num(flag)?),
        "--jobs" | "-j" => params.jobs = Some(flags.num(flag)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Applies `flag` if it is an optimizer flag (`--seed`, `--max-moves`,
/// `--kicks`, `--kick-moves`, `--pin`, `--group`, `--exclude`),
/// returning whether it was one.
pub fn optimize_flag(
    params: &mut OptimizeParams,
    flag: &str,
    flags: &mut Flags<'_>,
) -> Result<bool, ArgError> {
    match flag {
        "--seed" => params.seed = flags.num(flag)?,
        "--max-moves" => params.budget.max_trials = Some(flags.num(flag)?),
        "--kicks" => params.kicks = Some(flags.num(flag)?),
        "--kick-moves" => params.kick_moves = Some(flags.num(flag)?),
        "--pin" => params.pinned.push(flags.num(flag)?),
        "--group" => {
            let nodes = flags
                .value(flag)?
                .split(',')
                .map(|n| parse_num(flag, n.trim()))
                .collect::<Result<Vec<u32>, _>>()?;
            if nodes.len() < 2 {
                return Err(ArgError("--group wants at least two node indices".into()));
            }
            params.groups.push(nodes);
        }
        "--exclude" => {
            let (a, b) = flags
                .value(flag)?
                .split_once(':')
                .ok_or_else(|| ArgError("--exclude wants A:B".into()))?;
            params.exclusions.push((parse_num(flag, a)?, parse_num(flag, b)?));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Copies the explore flags an optimize run shares — heuristic, deadline
/// and worker threads — into its parameters. (`--max-trials` is not
/// shared: an optimize run's trial cap is `--max-moves`.)
pub fn share_explore_flags(params: &mut OptimizeParams, explore: &ExploreParams) {
    params.heuristic = explore.heuristic;
    params.budget.deadline_ms = explore.budget.deadline_ms;
    params.jobs = explore.jobs;
}

/// Parses `check`/`tasks` options from argv (after the subcommand).
pub fn parse_options(argv: &[String]) -> Result<Options, ArgError> {
    parse(argv, None)
}

/// Parses `optimize` options from argv (after the subcommand): the
/// `check` options plus the optimizer flags.
pub fn parse_optimize_options(argv: &[String]) -> Result<(Options, OptimizeParams), ArgError> {
    let mut params = OptimizeParams::default();
    let opts = parse(argv, Some(&mut params))?;
    share_explore_flags(&mut params, &opts.explore);
    Ok((opts, params))
}

fn parse(
    argv: &[String],
    mut optimize: Option<&mut OptimizeParams>,
) -> Result<Options, ArgError> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next() {
        if open_flag(&mut opts.open, flag, &mut flags)?
            || explore_flag(&mut opts.explore, flag, &mut flags)?
        {
            continue;
        }
        if let Some(params) = optimize.as_deref_mut() {
            if optimize_flag(params, flag, &mut flags)? {
                continue;
            }
        }
        match flag {
            "--power" => opts.power = Some(flags.num(flag)?),
            "--multi-cycle" => {
                opts.open.multi_cycle = true;
                if opts.dp_mult == 10 {
                    opts.dp_mult = 1;
                }
            }
            "--dp-mult" => opts.dp_mult = flags.num(flag)?,
            "--testability" => {
                let v = flags.value(flag)?;
                if !["none", "partial", "full"].contains(&v) {
                    return Err(ArgError("--testability must be none, partial or full".into()));
                }
                opts.testability = v.to_owned();
            }
            "--on-chip-memory" => {
                let (m, c) = flags
                    .value(flag)?
                    .split_once(':')
                    .ok_or_else(|| ArgError("--on-chip-memory wants M:CHIP".into()))?;
                let m = m
                    .trim_start_matches('M')
                    .parse()
                    .map_err(|_| ArgError("bad memory index".into()))?;
                let c = c.parse().map_err(|_| ArgError("bad chip index".into()))?;
                opts.on_chip_memories.push((m, c));
            }
            "--extended-library" => opts.extended_library = true,
            "--markdown" => opts.markdown = true,
            "--max-points" => opts.max_points = Some(flags.num(flag)?),
            "--no-degrade" => opts.no_degrade = true,
            "--no-bnb" => opts.no_bnb = true,
            "--stats" => opts.stats = true,
            "--stats-json" => opts.stats_json = Some(flags.value(flag)?.to_owned()),
            "--move-node" => {
                let (n, p) = flags
                    .value(flag)?
                    .split_once(':')
                    .ok_or_else(|| ArgError("--move-node wants NODE:PARTITION".into()))?;
                let n = n.parse().map_err(|_| ArgError("bad node index".into()))?;
                let p = p.parse().map_err(|_| ArgError("bad partition index".into()))?;
                opts.move_node = Some((n, p));
            }
            flag if flag.starts_with('-') => {
                return Err(ArgError(format!("unknown option {flag}")));
            }
            spec => positional.push(spec),
        }
    }
    // The local commands refuse zero threads; `chop client` sends it and
    // the server runs one.
    if opts.explore.jobs == Some(0) {
        return Err(ArgError("--jobs must be at least 1".into()));
    }
    match positional.as_slice() {
        [spec] => opts.spec = (*spec).to_owned(),
        [] => return Err(ArgError("missing <spec.cbs> argument".into())),
        _ => return Err(ArgError("too many positional arguments".into())),
    }
    Ok(opts)
}

/// Every CPU: the default worker-thread count of the local commands and
/// of `chop serve`.
pub fn all_cpus() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Parses `serve` options from argv (after the subcommand) into the
/// listen address and the server's config.
pub fn parse_serve_options(argv: &[String]) -> Result<(String, ServeConfig), ArgError> {
    // 1991: the year of the DAC paper — a memorable default port.
    let mut addr = "127.0.0.1:1991".to_owned();
    let mut config = ServeConfig { jobs: all_cpus(), ..ServeConfig::default() };
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value(flag)?.to_owned(),
            "--workers" => config.workers = flags.at_least_one(flag)?,
            "--max-inflight" => config.max_inflight = flags.num(flag)?,
            "--jobs" | "-j" => config.jobs = flags.at_least_one(flag)?,
            "--state-dir" => config.state_dir = Some(flags.value(flag)?.into()),
            "--journal-snapshot-every" => config.snapshot_every = flags.num(flag)?,
            "--standby" => config.standby = true,
            "--peer" => config.peer = Some(flags.value(flag)?.to_owned()),
            "--max-connections" => config.max_connections = flags.at_least_one(flag)?,
            "--idle-timeout-ms" => config.idle_timeout_ms = flags.num(flag)?,
            "--max-requests-per-sec" => config.max_requests_per_sec = flags.num(flag)?,
            "--cache-snapshot" => config.cache_snapshot = Some(flags.value(flag)?.into()),
            "--cache-snapshot-every" => config.cache_snapshot_every = flags.num(flag)?,
            other => return Err(ArgError(format!("unknown serve option {other}"))),
        }
    }
    Ok((addr, config))
}

/// Parses `router` options from argv (after the subcommand) into the
/// listen address and the router's config.
pub fn parse_router_options(argv: &[String]) -> Result<(String, RouterConfig), ArgError> {
    let mut addr = "127.0.0.1:1990".to_owned();
    let mut config = RouterConfig::default();
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => addr = flags.value(flag)?.to_owned(),
            "--backend" => {
                config.pairs.push(BackendSpec::parse(flags.value(flag)?).map_err(ArgError)?)
            }
            "--health-interval-ms" => {
                config.health_interval = Duration::from_millis(flags.num(flag)?);
            }
            other => return Err(ArgError(format!("unknown router option {other}"))),
        }
    }
    if config.pairs.is_empty() {
        return Err(ArgError(
            "router needs at least one --backend <primary[,standby]> pair".into(),
        ));
    }
    Ok((addr, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn serve_defaults_and_flags() {
        let (addr, o) = parse_serve_options(&[]).unwrap();
        assert_eq!(addr, "127.0.0.1:1991");
        assert_eq!(o, ServeConfig { jobs: all_cpus(), ..ServeConfig::default() });
        assert_eq!(o.workers, 4);
        assert_eq!(o.max_inflight, 64);
        assert_eq!(o.state_dir, None);
        assert_eq!(o.snapshot_every, 1024);
        assert_eq!(o.max_connections, 4096);
        assert_eq!(o.idle_timeout_ms, 600_000);
        let (addr, o) = parse_serve_options(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--max-inflight",
            "8",
            "--jobs",
            "3",
            "--state-dir",
            "/tmp/chop-state",
            "--journal-snapshot-every",
            "16",
            "--max-connections",
            "128",
            "--idle-timeout-ms",
            "15000",
        ]))
        .unwrap();
        assert_eq!(addr, "127.0.0.1:0");
        assert_eq!(o.workers, 2);
        assert_eq!(o.max_inflight, 8);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.state_dir.as_deref(), Some(std::path::Path::new("/tmp/chop-state")));
        assert_eq!(o.snapshot_every, 16);
        assert_eq!(o.max_connections, 128);
        assert_eq!(o.idle_timeout_ms, 15_000);
        // 0 disables idle reaping but a zero connection cap is nonsense.
        let (_, o) = parse_serve_options(&s(&["--idle-timeout-ms", "0"])).unwrap();
        assert_eq!(o.idle_timeout_ms, 0);
        // The rate cap defaults off and parses like the other limits.
        assert_eq!(o.max_requests_per_sec, 0);
        let (_, o) = parse_serve_options(&s(&["--max-requests-per-sec", "100"])).unwrap();
        assert_eq!(o.max_requests_per_sec, 100);
        assert!(parse_serve_options(&s(&["--max-requests-per-sec", "lots"])).is_err());
    }

    #[test]
    fn serve_cache_tier_flags() {
        // Defaults: no snapshot, 256-insert cadence.
        let (_, o) = parse_serve_options(&[]).unwrap();
        assert_eq!(o.cache_snapshot, None);
        assert_eq!(o.cache_snapshot_every, 256);
        let (_, o) = parse_serve_options(&s(&[
            "--cache-snapshot",
            "/tmp/chop-cache.snap",
            "--cache-snapshot-every",
            "64",
        ]))
        .unwrap();
        assert_eq!(
            o.cache_snapshot.as_deref(),
            Some(std::path::Path::new("/tmp/chop-cache.snap"))
        );
        assert_eq!(o.cache_snapshot_every, 64);
        // Cadence 0 = drain-only snapshots.
        let (_, o) = parse_serve_options(&s(&["--cache-snapshot-every", "0"])).unwrap();
        assert_eq!(o.cache_snapshot_every, 0);
        assert!(parse_serve_options(&s(&["--cache-snapshot"])).is_err());
        // The shard count follows the thread counts; there is no flag.
        assert!(parse_serve_options(&s(&["--cache-shards", "16"])).is_err());
    }

    #[test]
    fn optimize_options_parse_and_pass_through() {
        let (opts, params) = parse_optimize_options(&s(&[
            "d.cbs",
            "--partitions",
            "3",
            "--seed",
            "42",
            "--max-moves",
            "128",
            "--kicks",
            "2",
            "--kick-moves",
            "5",
            "--pin",
            "0",
            "--pin",
            "7",
            "--group",
            "1,2,3",
            "--exclude",
            "4:5",
            "--deadline",
            "250",
            "--heuristic",
            "e",
            "--max-trials",
            "9",
        ]))
        .unwrap();
        assert_eq!(opts.spec, "d.cbs");
        assert_eq!(opts.open.partitions, 3);
        assert_eq!(opts.explore.budget.deadline_ms, Some(250));
        assert_eq!(opts.explore.budget.max_trials, Some(9));
        assert_eq!(params.seed, 42);
        assert_eq!(params.budget.max_trials, Some(128));
        assert_eq!(params.budget.deadline_ms, Some(250));
        assert_eq!(params.heuristic, Heuristic::Enumeration);
        assert_eq!(params.kicks, Some(2));
        assert_eq!(params.kick_moves, Some(5));
        assert_eq!(params.pinned, vec![0, 7]);
        assert_eq!(params.groups, vec![vec![1, 2, 3]]);
        assert_eq!(params.exclusions, vec![(4, 5)]);
    }

    #[test]
    fn optimize_options_default_off_and_reject_nonsense() {
        let (_, params) = parse_optimize_options(&s(&["d.cbs"])).unwrap();
        assert_eq!(params, OptimizeParams::default());
        assert!(parse_optimize_options(&s(&["d.cbs", "--seed", "entropy"])).is_err());
        assert!(parse_optimize_options(&s(&["d.cbs", "--group", "1"])).is_err());
        assert!(parse_optimize_options(&s(&["d.cbs", "--exclude", "4"])).is_err());
        assert!(parse_optimize_options(&s(&["d.cbs", "--pin"])).is_err());
        // Unknown flags still fail in the shared parser, and the
        // optimizer flags belong to `optimize` alone.
        assert!(parse_optimize_options(&s(&["d.cbs", "--frobnicate"])).is_err());
        assert!(parse_options(&s(&["d.cbs", "--seed", "1"])).is_err());
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(parse_serve_options(&s(&["--workers", "0"])).is_err());
        assert!(parse_serve_options(&s(&["--jobs", "0"])).is_err());
        assert!(parse_serve_options(&s(&["--addr"])).is_err());
        assert!(parse_serve_options(&s(&["--state-dir"])).is_err());
        assert!(parse_serve_options(&s(&["--journal-snapshot-every", "often"])).is_err());
        assert!(parse_serve_options(&s(&["--frobnicate"])).is_err());
        assert!(parse_serve_options(&s(&["--max-connections", "0"])).is_err());
        assert!(parse_serve_options(&s(&["--max-connections", "many"])).is_err());
        assert!(parse_serve_options(&s(&["--idle-timeout-ms", "soon"])).is_err());
    }

    #[test]
    fn serve_replication_flags_parse() {
        let (_, o) = parse_serve_options(&s(&["--standby"])).unwrap();
        assert!(o.standby);
        // --peer names the replication partner: valid alone (a primary
        // shipping to it) or with --standby (the initial role).
        let (_, o) = parse_serve_options(&s(&["--peer", "127.0.0.1:1992"])).unwrap();
        assert_eq!(o.peer.as_deref(), Some("127.0.0.1:1992"));
        assert!(!o.standby);
        let (_, o) =
            parse_serve_options(&s(&["--peer", "127.0.0.1:1991", "--standby"])).unwrap();
        assert!(o.standby && o.peer.is_some());
        assert!(parse_serve_options(&s(&["--peer"])).is_err());
        // The one-way alias is gone; --peer replaces it.
        assert!(parse_serve_options(&s(&["--replicate-to", "127.0.0.1:1992"])).is_err());
    }

    #[test]
    fn router_options_parse() {
        let (addr, o) = parse_router_options(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "127.0.0.1:1991,127.0.0.1:1992",
            "--backend",
            "127.0.0.1:2991",
            "--health-interval-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(addr, "127.0.0.1:0");
        assert_eq!(o.pairs.len(), 2);
        assert_eq!(o.pairs[0].standby.as_deref(), Some("127.0.0.1:1992"));
        assert_eq!(o.health_interval, Duration::from_millis(250));
        let (addr, o) = parse_router_options(&s(&["--backend", "h:1"])).unwrap();
        assert_eq!(addr, "127.0.0.1:1990");
        assert_eq!(o.health_interval, Duration::from_millis(500));
        assert!(parse_router_options(&[]).is_err(), "no backends is an error");
        assert!(parse_router_options(&s(&["--backend"])).is_err());
        assert!(parse_router_options(&s(&["--backend", ",h:2"])).is_err());
        assert!(parse_router_options(&s(&["--health-interval-ms", "soon"])).is_err());
        assert!(parse_router_options(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn defaults_and_spec() {
        let o = parse_options(&s(&["design.cbs"])).unwrap();
        assert_eq!(o.spec, "design.cbs");
        assert_eq!(o.open.partitions, 1);
        assert_eq!(o.open.chips, None);
        assert_eq!(o.open.package_pins, 84);
        assert_eq!(o.open.performance_ns, 30_000.0);
        assert_eq!(o.open.delay_ns, 30_000.0);
        assert!(!o.open.multi_cycle);
        assert_eq!(o.dp_mult, 10);
        assert_eq!(o.explore.heuristic, Heuristic::Iterative);
    }

    #[test]
    fn full_flag_set() {
        let o = parse_options(&s(&[
            "d.cbs",
            "--partitions",
            "3",
            "--package",
            "64",
            "--perf",
            "20000",
            "--delay",
            "25000",
            "--multi-cycle",
            "--heuristic",
            "e",
            "--power",
            "5000",
            "--testability",
            "full",
            "--on-chip-memory",
            "M0:1",
        ]))
        .unwrap();
        assert_eq!(o.open.partitions, 3);
        assert_eq!(o.open.package_pins, 64);
        assert_eq!(o.open.performance_ns, 20_000.0);
        assert_eq!(o.open.delay_ns, 25_000.0);
        assert!(o.open.multi_cycle);
        assert_eq!(o.dp_mult, 1);
        assert_eq!(o.explore.heuristic, Heuristic::Enumeration);
        assert_eq!(o.power, Some(5000.0));
        assert_eq!(o.testability, "full");
        assert_eq!(o.on_chip_memories, vec![(0, 1)]);
    }

    #[test]
    fn budget_flags_parse() {
        let o = parse_options(&s(&[
            "d.cbs",
            "--deadline",
            "250",
            "--max-trials",
            "5000",
            "--max-points",
            "100",
            "--no-degrade",
            "--no-bnb",
        ]))
        .unwrap();
        assert_eq!(o.explore.budget.deadline_ms, Some(250));
        assert_eq!(o.explore.budget.max_trials, Some(5000));
        assert_eq!(o.max_points, Some(100));
        assert!(o.no_degrade);
        assert!(o.no_bnb);
    }

    #[test]
    fn budget_flags_default_off() {
        let o = parse_options(&s(&["d.cbs"])).unwrap();
        assert!(o.explore.budget.is_empty());
        assert_eq!(o.max_points, None);
        assert!(!o.no_degrade);
        assert!(!o.no_bnb);
    }

    #[test]
    fn engine_flags_parse() {
        let o = parse_options(&s(&[
            "d.cbs",
            "--jobs",
            "4",
            "--stats",
            "--stats-json",
            "out.json",
            "--move-node",
            "7:1",
        ]))
        .unwrap();
        assert_eq!(o.explore.jobs, Some(4));
        assert!(o.stats);
        assert_eq!(o.stats_json.as_deref(), Some("out.json"));
        assert_eq!(o.move_node, Some((7, 1)));
        // The shard count follows --jobs; there is no flag.
        assert!(parse_options(&s(&["d.cbs", "--cache-shards", "8"])).is_err());
    }

    #[test]
    fn engine_flags_default_off() {
        let o = parse_options(&s(&["d.cbs"])).unwrap();
        assert_eq!(o.explore.jobs, None);
        assert!(!o.stats);
        assert_eq!(o.stats_json, None);
        assert_eq!(o.move_node, None);
    }

    #[test]
    fn rejects_zero_jobs() {
        assert!(parse_options(&s(&["d.cbs", "--jobs", "0"])).is_err());
    }

    #[test]
    fn rejects_malformed_move_node() {
        assert!(parse_options(&s(&["d.cbs", "--move-node", "7"])).is_err());
        assert!(parse_options(&s(&["d.cbs", "--move-node", "a:b"])).is_err());
    }

    #[test]
    fn rejects_bad_deadline() {
        assert!(parse_options(&s(&["d.cbs", "--deadline", "soon"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse_options(&s(&["d.cbs", "--frobnicate"])).is_err());
    }

    #[test]
    fn rejects_bad_package() {
        assert!(parse_options(&s(&["d.cbs", "--package", "100"])).is_err());
    }

    #[test]
    fn rejects_missing_spec() {
        assert!(parse_options(&s(&["--partitions", "2"])).is_err());
    }
}
