//! End-to-end test of the `chop serve` / `chop client` binaries: a real
//! server process on an ephemeral port, driven by real client processes,
//! finishing with a graceful drain and exit code 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const SPEC: &str = "a = input 16\nb = input 16\np = mul a b\ns = add p a\ny = output s\n";

fn chop() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chop"))
}

/// Spawns `chop serve` with the given extra flags and returns the child
/// plus the address parsed from the banner line and its stdout reader.
fn spawn_server(
    extra: &[&str],
) -> (std::process::Child, String, BufReader<std::process::ChildStdout>) {
    // stderr → null: if an assertion below panics, the orphaned server
    // would otherwise keep the test harness's stderr pipe open and hang
    // the whole `cargo test` pipeline instead of failing it.
    let mut server = chop()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--jobs", "1"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn chop serve");
    let mut stdout = BufReader::new(server.stdout.take().expect("server stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"))
        .to_owned();
    (server, addr, stdout)
}

/// Runs `chop client <addr> <args…>`, asserting it exits successfully,
/// and returns its stdout.
fn client_ok(addr: &str, args: &[&str]) -> String {
    let output = chop().arg("client").arg(addr).args(args).output().expect("spawn chop client");
    assert!(
        output.status.success(),
        "chop client {addr} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn serve_and_client_binaries_run_a_full_session() {
    let spec_path =
        std::env::temp_dir().join(format!("chop-serve-cli-{}.cbs", std::process::id()));
    std::fs::write(&spec_path, SPEC).expect("write spec");

    let mut server = chop()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--jobs", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn chop serve");

    // The first stdout line has a stable shape:
    //   chop-service listening on 127.0.0.1:PORT (protocol vN)
    let mut stdout = BufReader::new(server.stdout.take().expect("server stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"))
        .to_owned();

    assert!(client_ok(&addr, &["ping"]).contains("pong"));

    let spec = spec_path.to_str().expect("utf-8 temp path");
    let opened = client_ok(&addr, &["open", "demo", spec, "--partitions", "2", "--chips", "2"]);
    assert!(opened.contains("opened session"), "{opened}");

    let explored = client_ok(&addr, &["explore", "demo", "--heuristic", "i"]);
    assert!(explored.contains("digest"), "{explored}");

    let moved = client_ok(&addr, &["repartition", "demo", "2:0"]);
    assert!(moved.contains("moved to partition 0"), "{moved}");

    let stats = client_ok(&addr, &["stats", "demo"]);
    assert!(stats.contains("shared cache"), "{stats}");
    assert!(stats.contains("demo"), "{stats}");

    assert!(client_ok(&addr, &["close", "demo"]).contains("closed"));
    assert!(client_ok(&addr, &["shutdown"]).contains("draining"));

    // The server must drain and exit 0.
    let status = server.wait().expect("wait for server");
    assert!(status.success(), "server exited with {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).expect("drain stdout");
    assert!(rest.contains("drained"), "{rest}");

    let _ = std::fs::remove_file(&spec_path);
}

#[test]
fn client_reports_typed_errors_with_exit_code_1() {
    let mut server = chop()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn chop serve");
    let mut stdout = BufReader::new(server.stdout.take().expect("server stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner.split_whitespace().nth(3).expect("addr in banner").to_owned();

    let output =
        chop().args(["client", &addr, "explore", "ghost"]).output().expect("spawn chop client");
    assert_eq!(output.status.code(), Some(1), "unknown session must exit 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown_session"), "{stderr}");

    assert!(client_ok(&addr, &["shutdown"]).contains("draining"));
    assert!(server.wait().expect("wait").success());
}

/// A reader that closes the pipe early (`chop client <addr> stats | head
/// -1`) ends the client quietly: exit 0, and no panic on stderr.
#[test]
fn client_exits_quietly_when_its_reader_closes_early() {
    let (mut server, addr, _stdout) = spawn_server(&[]);
    let mut client = chop()
        .args(["client", &addr, "stats"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn chop client");
    // Close the read end before the reply can arrive, so the client's
    // every write meets a pipe with no reader.
    drop(client.stdout.take());
    let output = client.wait_with_output().expect("wait for chop client");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.status.success(), "client exited with {:?}: {stderr}", output.status);
    assert!(client_ok(&addr, &["shutdown"]).contains("draining"));
    assert!(server.wait().expect("wait for server").success());
}

/// SIGTERM must be the same graceful drain as a wire `shutdown`: exit
/// code 0 and the drained farewell on stdout (journal flushed, nothing
/// killed mid-write).
#[cfg(unix)]
#[test]
fn sigterm_drains_the_server_gracefully() {
    let (mut server, addr, mut stdout) = spawn_server(&[]);
    assert!(client_ok(&addr, &["ping"]).contains("pong"));

    let term = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");

    let status = server.wait().expect("wait for server");
    assert!(status.success(), "SIGTERM must drain to exit 0, got {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).expect("drain stdout");
    assert!(rest.contains("drained"), "{rest}");
}

/// The restart-recovery smoke from the issue: open + repartition against
/// a journaled server, SIGKILL it (no drain, no warning), restart on the
/// same `--state-dir`, and the recovered session must explore to the
/// byte-identical digest — without being reopened.
#[test]
fn kill_nine_then_restart_recovers_sessions_and_digests() {
    let dir = std::env::temp_dir().join(format!("chop-serve-cli-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state_dir = dir.to_str().expect("utf-8 temp path").to_owned();
    let spec_path = dir.with_extension("cbs");
    std::fs::write(&spec_path, SPEC).expect("write spec");
    let spec = spec_path.to_str().expect("utf-8 temp path");

    let (mut server, addr, _stdout) = spawn_server(&["--state-dir", &state_dir]);
    // Retry flags go *before* the address: chop client --retry <addr> …
    let output = chop()
        .args(["client", "--retry", &addr, "open", "demo", spec, "--partitions", "2"])
        .args(["--chips", "2"])
        .output()
        .expect("spawn chop client");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let opened = String::from_utf8_lossy(&output.stdout);
    assert!(opened.contains("opened session"), "{opened}");
    assert!(client_ok(&addr, &["repartition", "demo", "2:0"]).contains("moved"));
    let digest_before =
        digest_line(&client_ok(&addr, &["explore", "demo", "--heuristic", "i"]));

    server.kill().expect("SIGKILL server");
    let _ = server.wait();

    let (mut server, addr, mut stdout) = spawn_server(&["--state-dir", &state_dir]);
    let mut recovery = String::new();
    stdout.read_line(&mut recovery).expect("read recovery report");
    assert!(recovery.contains("recovered 1 session(s)"), "{recovery}");

    // No `open` here: the session must come back from the journal.
    let digest_after = digest_line(&client_ok(&addr, &["explore", "demo", "--heuristic", "i"]));
    assert_eq!(digest_before, digest_after, "recovered digest must be byte-identical");

    assert!(client_ok(&addr, &["shutdown"]).contains("draining"));
    assert!(server.wait().expect("wait").success());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&spec_path);
}

/// The reactor tuning flags end to end: `--max-connections` refuses the
/// overflow connection with a typed error, `--idle-timeout-ms` reaps the
/// squatters with a typed error + close, and the freed slots readmit a
/// normal client.
#[test]
fn max_connections_and_idle_timeout_flags_govern_the_real_binary() {
    use std::io::Read;

    let (mut server, addr, _stdout) =
        spawn_server(&["--max-connections", "2", "--idle-timeout-ms", "300"]);

    // Two squatters fill the table without ever speaking.
    let squatters: Vec<std::net::TcpStream> = (0..2)
        .map(|i| {
            std::net::TcpStream::connect(&addr).unwrap_or_else(|e| panic!("squatter {i}: {e}"))
        })
        .collect();

    // The third connection is over the cap: the binary's client sees the
    // typed refusal and exits 1.
    let refused = chop().args(["client", &addr, "ping"]).output().expect("spawn chop client");
    assert_eq!(refused.status.code(), Some(1), "over-cap connection must fail");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("connection limit reached"), "{stderr}");

    // The idle reaper clears the squatters: each reads one typed error
    // line naming the timeout, then EOF.
    for (i, squatter) in squatters.into_iter().enumerate() {
        squatter
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("read timeout");
        let mut notice = String::new();
        let mut reader = BufReader::new(squatter);
        reader.read_line(&mut notice).unwrap_or_else(|e| panic!("squatter {i} notice: {e}"));
        assert!(notice.contains("idle timeout"), "squatter {i} got {notice:?}");
        notice.clear();
        assert_eq!(
            reader.read_line(&mut notice).expect("eof"),
            0,
            "squatter {i} must be closed after the notice"
        );
        let mut rest = Vec::new();
        let _ = reader.into_inner().read_to_end(&mut rest);
    }

    // With the slots freed, a normal client is admitted again (retry
    // rides over the reaper's slight lag in releasing slots).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let ping = chop().args(["client", &addr, "ping"]).output().expect("spawn chop client");
        if ping.status.success() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never readmitted after the reap");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    assert!(client_ok(&addr, &["shutdown"]).contains("draining"));
    assert!(server.wait().expect("wait").success());
}

/// Spawns `chop router` and returns the child plus the address parsed
/// from its banner (same shape as the serve banner). The stdout reader
/// must stay alive with the child: dropping it closes the pipe and the
/// router's next println dies of a broken pipe.
fn spawn_router(
    backends: &[&str],
) -> (std::process::Child, String, BufReader<std::process::ChildStdout>) {
    let mut cmd = chop();
    cmd.args(["router", "--addr", "127.0.0.1:0", "--health-interval-ms", "200"]);
    for backend in backends {
        cmd.args(["--backend", backend]);
    }
    let mut router =
        cmd.stdout(Stdio::piped()).stderr(Stdio::null()).spawn().expect("spawn chop router");
    let mut stdout = BufReader::new(router.stdout.take().expect("router stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read router banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unparseable router banner: {banner:?}"))
        .to_owned();
    (router, addr, stdout)
}

/// The node-loss drill with real processes: a replicated pair behind
/// `chop router`, the primary killed with SIGKILL, and the client's next
/// explore — addressed to the router, never a backend — must return the
/// digest the primary would have produced, from the promoted standby.
#[test]
fn kill_nine_primary_router_promotes_standby_with_identical_digest() {
    let base = std::env::temp_dir().join(format!("chop-router-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create temp base");
    let primary_dir = base.join("primary").to_str().expect("utf-8").to_owned();
    let standby_dir = base.join("standby").to_str().expect("utf-8").to_owned();
    let spec_path = base.join("spec.cbs");
    std::fs::write(&spec_path, SPEC).expect("write spec");
    let spec = spec_path.to_str().expect("utf-8 temp path");

    let (mut standby, standby_addr, _standby_out) =
        spawn_server(&["--standby", "--state-dir", &standby_dir]);
    let (mut primary, primary_addr, _primary_out) =
        spawn_server(&["--peer", &standby_addr, "--state-dir", &primary_dir]);
    let pair = format!("{primary_addr},{standby_addr}");
    let (mut router, router_addr, _router_out) = spawn_router(&[&pair]);

    // Open through the router (tagged via --retry) and take the healthy
    // baseline digest — served by the primary.
    let output = chop()
        .args(["client", "--retry", &router_addr, "open", "demo", spec, "--partitions", "2"])
        .args(["--chips", "2"])
        .output()
        .expect("spawn chop client");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let digest_before =
        digest_line(&client_ok(&router_addr, &["explore", "demo", "--heuristic", "i"]));

    // Wait until replication has delivered the session to the standby —
    // it serves reads, so its stats are visible while unpromoted.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if client_ok(&standby_addr, &["stats"]).contains("demo") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "standby never saw the session");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // A standby is read-only until promoted — its pong names the role —
    // and its typed refusal carries the primary's address, which `chop
    // client` follows. The proof of the hop: a mutation addressed to the
    // standby is answered by the *primary* (here with `unknown session`,
    // not a blanket standby refusal).
    assert!(client_ok(&standby_addr, &["ping"]).contains("standby"));
    let refused = chop()
        .args(["client", &standby_addr, "repartition", "ghost", "2:0"])
        .output()
        .expect("spawn chop client");
    assert_eq!(refused.status.code(), Some(1), "bad mutation must still fail");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("no open session"),
        "{}",
        String::from_utf8_lossy(&refused.stderr)
    );

    // SIGKILL the primary: no drain, no goodbye. The router's next
    // forward hits the dead node, promotes the standby and replays.
    primary.kill().expect("SIGKILL primary");
    let _ = primary.wait();

    let explored = chop()
        .args(["client", "--retry-ms", "20000", &router_addr])
        .args(["explore", "demo", "--heuristic", "i"])
        .output()
        .expect("spawn chop client");
    assert!(
        explored.status.success(),
        "explore after node loss failed: {}",
        String::from_utf8_lossy(&explored.stderr)
    );
    let digest_after = digest_line(&String::from_utf8_lossy(&explored.stdout));
    assert_eq!(
        digest_before, digest_after,
        "promoted standby must explore to the byte-identical digest"
    );

    // The promoted standby now takes mutations like any primary.
    assert!(client_ok(&router_addr, &["repartition", "demo", "2:0"]).contains("moved"));

    assert!(client_ok(&router_addr, &["shutdown"]).contains("draining"));
    assert!(router.wait().expect("wait router").success(), "router must drain to exit 0");
    assert!(client_ok(&standby_addr, &["shutdown"]).contains("draining"));
    assert!(standby.wait().expect("wait standby").success());
    let _ = std::fs::remove_dir_all(&base);
}

/// Extracts the `  digest <hex>` line from `chop client explore` output.
fn digest_line(explored: &str) -> String {
    explored
        .lines()
        .find(|line| line.trim_start().starts_with("digest "))
        .unwrap_or_else(|| panic!("no digest line in {explored:?}"))
        .trim()
        .to_owned()
}
