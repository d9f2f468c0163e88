//! The `chop serve`, `chop router` and `chop client` subcommands.

use std::error::Error;
use std::fmt::{self, Write as _};
use std::io::{self, Write as _};

use chop_service::{
    Client, ExploreParams, OpenParams, OptimizeParams, OptimizeSummary, Request, Response,
    RetryPolicy, Role, Router, RouterConfig, RunSummary, ServeConfig, Server,
    DEFAULT_CONNECT_TIMEOUT,
};

use crate::args::{
    constraint_flag, explore_flag, open_flag, optimize_flag, parse_num, share_explore_flags,
    ArgError, Flags,
};
use crate::commands::RunStatus;

/// Runs the partitioning service until a client sends `shutdown` (or,
/// on unix, SIGINT/SIGTERM arrives — same graceful drain, exit 0).
///
/// # Errors
///
/// Returns bind/listener failures; per-request failures are answered on
/// the wire.
pub fn serve(addr: &str, config: ServeConfig) -> Result<RunStatus, Box<dyn Error>> {
    let peer = config.peer.clone();
    let server = Server::bind(addr, config)?;
    // The tests (and scripts) parse this line to discover an ephemeral
    // port; keep its shape stable (anything extra goes on later lines).
    println!(
        "chop-service listening on {} (protocol v{})",
        server.local_addr()?,
        chop_service::PROTOCOL_VERSION
    );
    let manager = server.manager();
    match manager.role() {
        Role::Fenced => {
            println!("fenced standby: a newer primary superseded this node; resyncing");
        }
        Role::Standby => println!("warm standby: refusing direct mutations until promoted"),
        Role::Primary => {}
    }
    if let Some(peer) = peer {
        println!("replication peer: {peer}");
    }
    // Promotions/demotions land on stdout next to the banner so scripts
    // (and the chaos suite) can watch role transitions live.
    manager.set_role_change_hook(|line| println!("{line}"));
    if let Some(report) = server.recovery_report() {
        println!(
            "recovered {} session(s) from the journal ({} record(s) replayed, {} skipped)",
            report.sessions_restored, report.records_replayed, report.records_skipped
        );
    }
    if let Some(warm) = server.cache_warm_report() {
        println!(
            "warm-started prediction cache: {} entr{} restored{}",
            warm.entries,
            if warm.entries == 1 { "y" } else { "ies" },
            if warm.truncated { " (corrupt tail dropped)" } else { "" }
        );
    }
    #[cfg(unix)]
    {
        crate::signals::install();
        let handle = server.shutdown_handle();
        // Detached on purpose: it either trips the drain or dies with
        // the process after `run` returns.
        std::thread::spawn(move || {
            while !crate::signals::termination_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            handle.trigger();
        });
    }
    server.run()?;
    println!("chop-service drained, exiting");
    Ok(RunStatus::Feasible)
}

/// Runs the consistent-hashing proxy over replicated backend pairs until
/// a client sends `shutdown` (or a termination signal arrives).
///
/// # Errors
///
/// Returns bind/listener failures; per-request failures are answered on
/// the wire.
pub fn router(addr: &str, config: RouterConfig) -> Result<RunStatus, Box<dyn Error>> {
    let pairs = config.pairs.clone();
    let router = Router::bind(addr, config)?;
    // Same contract as the serve banner: tests parse this first line.
    println!(
        "chop-router listening on {} (protocol v{})",
        router.local_addr()?,
        chop_service::PROTOCOL_VERSION
    );
    for pair in &pairs {
        match &pair.standby {
            Some(standby) => println!("backend pair: {},{standby}", pair.primary),
            None => println!("backend pair: {}", pair.primary),
        }
    }
    #[cfg(unix)]
    {
        crate::signals::install();
        let handle = router.shutdown_handle();
        std::thread::spawn(move || {
            while !crate::signals::termination_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            // Tripping the gate wakes the health loop and any retry
            // backoff mid-sleep; the reactor notices within a poll.
            handle.trigger();
        });
    }
    router.run()?;
    println!("chop-router drained, exiting");
    Ok(RunStatus::Feasible)
}

/// Parses and runs one `chop client <addr> <command…>` invocation.
///
/// # Errors
///
/// Argument errors, connection failures, and typed server errors (all
/// exit 1); an `explore` reply additionally maps feasibility onto the
/// standard exit-code table.
pub fn client(argv: &[String]) -> Result<RunStatus, Box<dyn Error>> {
    let (retry_budget_ms, argv) = parse_client_retry_flags(argv)?;
    let [addr, command, rest @ ..] = argv else {
        return Err(Box::new(ArgError("client needs <addr> <command>".into())));
    };
    let request = parse_client_request(command, rest)?;
    // `<addr>` may be a comma-separated node list: connect to the first
    // live node, fail over to the next on transport errors while
    // retrying.
    let nodes: Vec<String> =
        addr.split(',').map(str::trim).filter(|a| !a.is_empty()).map(str::to_owned).collect();
    let mut client = Client::connect_nodes(&nodes, DEFAULT_CONNECT_TIMEOUT)?;
    // Both paths follow typed `standby`/`fenced` refusals to the named
    // primary; a zero budget keeps the no-retry path at one attempt per
    // node while still walking redirects.
    let response = match retry_budget_ms {
        None => client.request_following_redirects(
            &request,
            None,
            &RetryPolicy::with_budget_ms(0),
        )?,
        Some(ms) => {
            // Mutations get an automatic idempotency tag so a retry over
            // a transport failure is answered from the server's dedup
            // window instead of being applied twice.
            let req_id = request.is_mutation().then(|| {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.subsec_nanos());
                format!("cli-{}-{nanos}", std::process::id())
            });
            client.request_following_redirects(
                &request,
                req_id.as_deref(),
                &RetryPolicy::with_budget_ms(ms),
            )?
        }
    };
    let mut out = String::new();
    let status = render_response(&mut out, &response);
    write_stdout(&out)?;
    status
}

/// Writes a rendered reply to stdout. A reader that closes the pipe early
/// (`chop client <addr> stats | head -1`) is no error: the reply arrived
/// and only its printing was cut short. The Rust runtime ignores SIGPIPE,
/// which the servers rely on, so the closed pipe shows up here as
/// `BrokenPipe` rather than killing the process.
fn write_stdout(text: &str) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    match stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        done => done,
    }
}

/// Strips leading `--retry` / `--retry-ms <N>` flags (before `<addr>`),
/// returning the retry budget (if any) and the remaining argv.
fn parse_client_retry_flags(mut argv: &[String]) -> Result<(Option<u64>, &[String]), ArgError> {
    let mut budget = None;
    loop {
        match argv {
            [flag, rest @ ..] if flag == "--retry" => {
                budget = Some(2_000);
                argv = rest;
            }
            [flag, ms, rest @ ..] if flag == "--retry-ms" => {
                budget =
                    Some(ms.parse().map_err(|_| ArgError("bad value for --retry-ms".into()))?);
                argv = rest;
            }
            [flag] if flag == "--retry-ms" => {
                return Err(ArgError("--retry-ms needs a value".into()));
            }
            _ => return Ok((budget, argv)),
        }
    }
}

/// Builds the wire request for one client command.
fn parse_client_request(command: &str, rest: &[String]) -> Result<Request, Box<dyn Error>> {
    match command {
        "ping" => Ok(Request::Ping),
        "open" => {
            let [session, spec_path, flags @ ..] = rest else {
                return Err(Box::new(ArgError("open needs <session> <spec.cbs>".into())));
            };
            let spec = std::fs::read_to_string(spec_path)
                .map_err(|e| ArgError(format!("cannot read {spec_path:?}: {e}")))?;
            let mut params = OpenParams { spec, ..OpenParams::default() };
            let mut flags = Flags::new(flags);
            while let Some(flag) = flags.next() {
                if open_flag(&mut params, flag, &mut flags)? {
                    continue;
                }
                match flag {
                    "--single-cycle" => params.multi_cycle = false,
                    other => {
                        return Err(Box::new(ArgError(format!("unknown open option {other}"))))
                    }
                }
            }
            Ok(Request::Open { session: session.clone(), params })
        }
        "explore" => {
            let [session, flags @ ..] = rest else {
                return Err(Box::new(ArgError("explore needs <session>".into())));
            };
            let mut params = ExploreParams::default();
            let mut flags = Flags::new(flags);
            while let Some(flag) = flags.next() {
                if !explore_flag(&mut params, flag, &mut flags)? {
                    return Err(Box::new(ArgError(format!("unknown explore option {flag}"))));
                }
            }
            Ok(Request::Explore { session: session.clone(), params })
        }
        "optimize" => {
            let [session, flags @ ..] = rest else {
                return Err(Box::new(ArgError("optimize needs <session>".into())));
            };
            // The optimizer flags, plus the explore flags an optimize run
            // shares.
            let (mut params, mut explore) =
                (OptimizeParams::default(), ExploreParams::default());
            let mut flags = Flags::new(flags);
            while let Some(flag) = flags.next() {
                if !(optimize_flag(&mut params, flag, &mut flags)?
                    || explore_flag(&mut explore, flag, &mut flags)?)
                {
                    return Err(Box::new(ArgError(format!("unknown optimize option {flag}"))));
                }
            }
            if explore.budget.max_trials.is_some() {
                return Err(Box::new(ArgError(
                    "optimize caps move evaluations with --max-moves, not --max-trials".into(),
                )));
            }
            share_explore_flags(&mut params, &explore);
            Ok(Request::Optimize { session: session.clone(), params })
        }
        "apply-moves" => {
            let [session, spec] = rest else {
                return Err(Box::new(ArgError(
                    "apply-moves needs <session> <NODE:PART[,NODE:PART...]>".into(),
                )));
            };
            let moves = spec
                .split(',')
                .map(|pair| {
                    let (node, to) = pair
                        .split_once(':')
                        .ok_or_else(|| ArgError("apply-moves wants NODE:PART pairs".into()))?;
                    Ok((parse_num("NODE", node.trim())?, parse_num("PART", to.trim())?))
                })
                .collect::<Result<Vec<(u32, u32)>, ArgError>>()?;
            Ok(Request::ApplyMoves { session: session.clone(), moves })
        }
        "repartition" => {
            let [session, spec] = rest else {
                return Err(Box::new(ArgError(
                    "repartition needs <session> <NODE:PARTITION>".into(),
                )));
            };
            let (node, to) = spec
                .split_once(':')
                .ok_or_else(|| ArgError("repartition wants NODE:PARTITION".into()))?;
            Ok(Request::Repartition {
                session: session.clone(),
                node: parse_num("NODE", node)?,
                to: parse_num("PARTITION", to)?,
            })
        }
        "set-constraints" => {
            let [session, flags @ ..] = rest else {
                return Err(Box::new(ArgError(
                    "set-constraints needs <session> --perf <ns> --delay <ns>".into(),
                )));
            };
            let (mut performance_ns, mut delay_ns) = (None, None);
            let mut flags = Flags::new(flags);
            while let Some(flag) = flags.next() {
                if !constraint_flag(&mut performance_ns, &mut delay_ns, flag, &mut flags)? {
                    return Err(Box::new(ArgError(format!(
                        "unknown set-constraints option {flag}"
                    ))));
                }
            }
            let (Some(performance_ns), Some(delay_ns)) = (performance_ns, delay_ns) else {
                return Err(Box::new(ArgError(
                    "set-constraints needs both --perf and --delay".into(),
                )));
            };
            Ok(Request::SetConstraints { session: session.clone(), performance_ns, delay_ns })
        }
        "stats" => match rest {
            [] => Ok(Request::Stats { session: None }),
            [session] => Ok(Request::Stats { session: Some(session.clone()) }),
            _ => Err(Box::new(ArgError("stats takes at most one <session>".into()))),
        },
        "close" => match rest {
            [session] => Ok(Request::Close { session: session.clone() }),
            _ => Err(Box::new(ArgError("close needs <session>".into()))),
        },
        "promote" => Ok(Request::Promote),
        "add-pair" => match rest {
            [pair] => Ok(Request::AddPair { pair: pair.clone() }),
            _ => Err(Box::new(ArgError("add-pair needs <primary[,standby]>".into()))),
        },
        "remove-pair" => match rest {
            [pair] => Ok(Request::RemovePair { pair: pair.clone() }),
            _ => Err(Box::new(ArgError("remove-pair needs <label>".into()))),
        },
        "router-status" => match rest {
            [] => Ok(Request::RouterStatus),
            _ => Err(Box::new(ArgError("router-status takes no arguments".into()))),
        },
        "shutdown" => Ok(Request::Shutdown),
        other => Err(Box::new(ArgError(format!("unknown client command {other:?}")))),
    }
}

/// Renders a response into `out` and maps it to an exit status. Typed
/// server errors become process errors (exit 1); an `explored` reply
/// reuses the feasible/infeasible/truncated exit-code table.
fn render_response(out: &mut String, response: &Response) -> Result<RunStatus, Box<dyn Error>> {
    match response {
        Response::Pong { version, role, epoch, peer } => {
            match role {
                Some(role) => {
                    let peer = peer.as_deref().map_or(String::new(), |p| format!(", peer {p}"));
                    writeln!(out, "pong (protocol v{version}, {role} at epoch {epoch}{peer})")?;
                }
                None => writeln!(out, "pong (protocol v{version})")?,
            }
            Ok(RunStatus::Feasible)
        }
        Response::Opened { session, partitions } => {
            writeln!(out, "opened session {session:?} with {partitions} partition(s)")?;
            Ok(RunStatus::Feasible)
        }
        Response::Explored { session, run } => {
            write_run(out, session, run)?;
            Ok(RunStatus::of(run.completion, run.feasible > 0))
        }
        Response::Optimized { session, result } => {
            write_optimize(out, session, result)?;
            Ok(RunStatus::of(result.completion, result.feasible))
        }
        Response::MovesApplied { session, moves } => {
            writeln!(out, "session {session:?}: {moves} move(s) applied")?;
            Ok(RunStatus::Feasible)
        }
        Response::Repartitioned { session, node, to } => {
            writeln!(out, "session {session:?}: node {node} moved to partition {to}")?;
            Ok(RunStatus::Feasible)
        }
        Response::ConstraintsSet { session, performance_ns, delay_ns } => {
            writeln!(
                out,
                "session {session:?}: constraints set (perf {performance_ns} ns, \
                 delay {delay_ns} ns)"
            )?;
            Ok(RunStatus::Feasible)
        }
        Response::Stats { sessions, cache, shard_entries, last_run } => {
            writeln!(out, "sessions ({}): {}", sessions.len(), sessions.join(", "))?;
            writeln!(
                out,
                "shared cache: {} hit(s), {} miss(es), {} eviction(s), {} entries (~{} B)",
                cache.hits, cache.misses, cache.evictions, cache.entries, cache.bytes
            )?;
            if !shard_entries.is_empty() {
                let rendered: Vec<String> = shard_entries.iter().map(u64::to_string).collect();
                writeln!(
                    out,
                    "cache shards ({}): [{}]",
                    shard_entries.len(),
                    rendered.join(", ")
                )?;
            }
            if let Some(run) = last_run {
                write_run(out, "last run", run)?;
            }
            Ok(RunStatus::Feasible)
        }
        Response::Closed { session } => {
            writeln!(out, "closed session {session:?}")?;
            Ok(RunStatus::Feasible)
        }
        Response::ShuttingDown => {
            writeln!(out, "server draining")?;
            Ok(RunStatus::Feasible)
        }
        Response::Busy { inflight, max_inflight, retry_after_ms } => {
            Err(Box::new(ArgError(format!(
                "server busy ({inflight}/{max_inflight} explorations in flight), \
                 retry in {retry_after_ms} ms (or pass --retry)"
            ))))
        }
        Response::Promoted { sessions, epoch } => {
            writeln!(out, "promoted to primary at epoch {epoch} ({sessions} session(s) live)")?;
            Ok(RunStatus::Feasible)
        }
        Response::PairAdded { pairs } => {
            writeln!(out, "pair added; ring now ({}): {}", pairs.len(), pairs.join(", "))?;
            Ok(RunStatus::Feasible)
        }
        Response::PairRemoved { pairs } => {
            writeln!(out, "pair removed; ring now ({}): {}", pairs.len(), pairs.join(", "))?;
            Ok(RunStatus::Feasible)
        }
        Response::RouterStatus { pairs } => {
            writeln!(out, "router pairs ({}):", pairs.len())?;
            for line in pairs {
                writeln!(out, "  {line}")?;
            }
            Ok(RunStatus::Feasible)
        }
        Response::Exported { session, records } => {
            writeln!(out, "exported session {session:?} ({} record(s))", records.len())?;
            for record in records {
                writeln!(out, "{record}")?;
            }
            Ok(RunStatus::Feasible)
        }
        Response::Imported { session, records } => {
            writeln!(out, "imported session {session:?} ({records} record(s) applied)")?;
            Ok(RunStatus::Feasible)
        }
        Response::ReplAck { seq } => {
            // Only replication streams see acks; printed for completeness.
            writeln!(out, "replication ack through seq {seq}")?;
            Ok(RunStatus::Feasible)
        }
        Response::Error(e) => Err(Box::new(e.clone())),
    }
}

fn write_run(out: &mut String, label: &str, run: &RunSummary) -> fmt::Result {
    writeln!(
        out,
        "{label}: heuristic {} — {} trials, {} feasible trials, {} implementation(s), \
         {} ({}{:.2} ms)",
        run.heuristic,
        run.trials,
        run.feasible_trials,
        run.feasible,
        run.completion,
        if run.degraded { "degraded, " } else { "" },
        run.elapsed_ms,
    )?;
    writeln!(
        out,
        "  {} predictor call(s), {} cache hit(s), {} miss(es)",
        run.predictor_calls, run.cache_hits, run.cache_misses
    )?;
    writeln!(
        out,
        "  {} subtree(s) skipped, {} combination(s) never visited",
        run.subtrees_skipped, run.combinations_skipped
    )?;
    writeln!(out, "  digest {}", run.digest)
}

fn write_optimize(out: &mut String, session: &str, result: &OptimizeSummary) -> fmt::Result {
    writeln!(
        out,
        "session {session:?}: {} move(s) accepted over {} pass(es), {} kick(s), \
         {} evaluation(s), {}",
        result.moves.len(),
        result.passes,
        result.kicks,
        result.evaluations,
        result.completion,
    )?;
    writeln!(out, "  score: {:.3} -> {:.3}", result.initial_score, result.final_score)?;
    for mv in &result.moves {
        let nodes = mv.nodes.iter().map(ToString::to_string).collect::<Vec<_>>().join("+");
        writeln!(out, "  pass {} {}: node {nodes} {} -> {}", mv.pass, mv.kind, mv.from, mv.to)?;
    }
    write_run(out, "final state", &result.run)?;
    writeln!(out, "  optimize digest {}", result.digest)
}

#[cfg(test)]
mod tests {
    use chop_core::prelude::Heuristic;

    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn client_request_parsing_covers_every_command() {
        assert_eq!(parse_client_request("ping", &[]).unwrap(), Request::Ping);
        assert_eq!(
            parse_client_request("stats", &[]).unwrap(),
            Request::Stats { session: None }
        );
        assert_eq!(
            parse_client_request("stats", &s(&["a"])).unwrap(),
            Request::Stats { session: Some("a".into()) }
        );
        assert_eq!(
            parse_client_request("close", &s(&["a"])).unwrap(),
            Request::Close { session: "a".into() }
        );
        assert_eq!(parse_client_request("shutdown", &[]).unwrap(), Request::Shutdown);
        assert_eq!(parse_client_request("promote", &[]).unwrap(), Request::Promote);
        assert_eq!(
            parse_client_request("add-pair", &s(&["h1:1,h2:2"])).unwrap(),
            Request::AddPair { pair: "h1:1,h2:2".into() }
        );
        assert_eq!(
            parse_client_request("remove-pair", &s(&["h1:1"])).unwrap(),
            Request::RemovePair { pair: "h1:1".into() }
        );
        assert_eq!(parse_client_request("router-status", &[]).unwrap(), Request::RouterStatus);
        assert_eq!(
            parse_client_request("repartition", &s(&["a", "3:0"])).unwrap(),
            Request::Repartition { session: "a".into(), node: 3, to: 0 }
        );
        let req = parse_client_request(
            "explore",
            &s(&["a", "--heuristic", "e", "--deadline", "250", "--jobs", "2"]),
        )
        .unwrap();
        let Request::Explore { params, .. } = req else { panic!() };
        assert_eq!(params.heuristic, Heuristic::Enumeration);
        assert_eq!(params.budget.deadline_ms, Some(250));
        assert_eq!(params.jobs, Some(2));
        let req = parse_client_request(
            "optimize",
            &s(&[
                "a",
                "--seed",
                "9",
                "--max-moves",
                "64",
                "--kicks",
                "1",
                "--pin",
                "2",
                "--group",
                "3,4",
                "--exclude",
                "5:6",
                "--heuristic",
                "e",
                "--deadline",
                "100",
                "--jobs",
                "2",
            ]),
        )
        .unwrap();
        let Request::Optimize { params, .. } = req else { panic!() };
        assert_eq!(params.seed, 9);
        assert_eq!(params.heuristic, Heuristic::Enumeration);
        assert_eq!(params.budget.deadline_ms, Some(100));
        assert_eq!(params.jobs, Some(2));
        assert_eq!(params.budget.max_trials, Some(64));
        assert_eq!(params.kicks, Some(1));
        assert_eq!(params.pinned, vec![2]);
        assert_eq!(params.groups, vec![vec![3, 4]]);
        assert_eq!(params.exclusions, vec![(5, 6)]);
        assert_eq!(
            parse_client_request("apply-moves", &s(&["a", "3:0,2:1"])).unwrap(),
            Request::ApplyMoves { session: "a".into(), moves: vec![(3, 0), (2, 1)] }
        );
    }

    #[test]
    fn set_constraints_command_parses() {
        assert_eq!(
            parse_client_request(
                "set-constraints",
                &s(&["a", "--perf", "40000", "--delay", "35000"]),
            )
            .unwrap(),
            Request::SetConstraints {
                session: "a".into(),
                performance_ns: 40_000.0,
                delay_ns: 35_000.0
            }
        );
        assert!(parse_client_request("set-constraints", &s(&["a", "--perf", "1"])).is_err());
        // A non-finite constraint is the server's to refuse, with its typed error.
        let req = parse_client_request(
            "set-constraints",
            &s(&["a", "--perf", "nan", "--delay", "5"]),
        )
        .unwrap();
        let Request::SetConstraints { performance_ns, .. } = req else { panic!() };
        assert!(performance_ns.is_nan());
        // Zero threads is sent as given; the server runs one.
        for command in ["explore", "optimize"] {
            assert!(parse_client_request(command, &s(&["a", "--jobs", "0"])).is_ok());
        }
        assert!(parse_client_request("set-constraints", &s(&["a", "--bogus", "1"])).is_err());
        assert!(parse_client_request("set-constraints", &[]).is_err());
    }

    #[test]
    fn retry_flags_strip_off_the_front() {
        let argv = s(&["--retry", "addr", "ping"]);
        let (budget, rest) = parse_client_retry_flags(&argv).unwrap();
        assert_eq!(budget, Some(2_000));
        assert_eq!(rest, &argv[1..]);

        let argv = s(&["--retry-ms", "150", "addr", "ping"]);
        let (budget, rest) = parse_client_retry_flags(&argv).unwrap();
        assert_eq!(budget, Some(150));
        assert_eq!(rest, &argv[2..]);

        let argv = s(&["addr", "ping"]);
        let (budget, rest) = parse_client_retry_flags(&argv).unwrap();
        assert_eq!(budget, None);
        assert_eq!(rest, &argv[..]);

        assert!(parse_client_retry_flags(&s(&["--retry-ms"])).is_err());
        assert!(parse_client_retry_flags(&s(&["--retry-ms", "soon", "addr"])).is_err());
    }

    #[test]
    fn client_request_parsing_rejects_nonsense() {
        assert!(parse_client_request("frobnicate", &[]).is_err());
        assert!(parse_client_request("repartition", &s(&["a", "3"])).is_err());
        assert!(parse_client_request("explore", &s(&["a", "--heuristic", "z"])).is_err());
        assert!(parse_client_request("open", &s(&["a"])).is_err());
        assert!(parse_client_request("open", &s(&["a", "/nonexistent/x.cbs"])).is_err());
        assert!(parse_client_request("close", &[]).is_err());
        assert!(parse_client_request("optimize", &[]).is_err());
        assert!(parse_client_request("optimize", &s(&["a", "--seed", "entropy"])).is_err());
        assert!(parse_client_request("optimize", &s(&["a", "--group", "1"])).is_err());
        assert!(parse_client_request("optimize", &s(&["a", "--max-trials", "5"])).is_err());
        assert!(parse_client_request("apply-moves", &s(&["a", "3"])).is_err());
        assert!(parse_client_request("add-pair", &[]).is_err());
        assert!(parse_client_request("remove-pair", &[]).is_err());
        assert!(parse_client_request("router-status", &s(&["x"])).is_err());
    }

    #[test]
    fn explored_responses_map_to_the_exit_code_table() {
        let run = |feasible, completion| RunSummary {
            heuristic: Heuristic::Iterative,
            digest: String::new(),
            trials: 1,
            feasible_trials: feasible,
            feasible,
            completion,
            degraded: false,
            elapsed_ms: 0.0,
            predictor_calls: 0,
            cache_hits: 0,
            cache_misses: 0,
            subtrees_skipped: 0,
            combinations_skipped: 0,
        };
        use chop_core::prelude::Completion;
        let status = |run| {
            let explored = Response::Explored { session: "s".into(), run };
            render_response(&mut String::new(), &explored).unwrap()
        };
        assert_eq!(status(run(1, Completion::Complete)), RunStatus::Feasible);
        assert_eq!(status(run(0, Completion::Complete)), RunStatus::Infeasible);
        assert_eq!(status(run(1, Completion::TruncatedDeadline)), RunStatus::Truncated);
    }
}
