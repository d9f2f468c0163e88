//! Journal-shipped warm-standby replication.
//!
//! A node with a `chop serve --peer <addr>` attaches a [`Replicator`]: a
//! background thread that
//! receives every committed mutation from the
//! [`SessionManager`]
//! (as the exact tagged line the journal persisted, numbered by a
//! monotonic stream sequence) and ships it to the peer over the
//! ordinary wire protocol as [`Request::ReplApply`].
//!
//! The replicator is **role-aware**: while the manager is a standby the
//! stream parks (draining and discarding queued events — promotion
//! restarts from a snapshot anyway) and only ships while primary, so a
//! symmetric pair never echoes records back and forth. Every shipped
//! message carries the sender's cluster epoch and advertised address; a
//! typed `fenced` refusal proving a strictly newer epoch demotes this
//! node on the spot
//! ([`SessionManager::observe_fencing`](crate::manager::SessionManager::observe_fencing)),
//! which is how a restarted stale primary discovers the failover it
//! slept through and rejoins as a standby. The peer address is re-read
//! from the manager on every reconnect, so a primary that fences a stale
//! peer at a new address retargets its own stream to resync it.
//!
//! Stream starts and restarts are **snapshot-first**: on every (re)connect
//! the replicator takes a consistent full-state snapshot from the manager
//! and sends it as [`Request::ReplSnapshot`] before any records, so a
//! standby that joined late, restarted, or missed records during an
//! outage converges without the primary tracking per-standby positions.
//! The standby acks each message with its high-water mark; records at or
//! below an ack are skipped, which makes re-delivery idempotent.
//!
//! Replication is asynchronous: the primary commits locally first and
//! never blocks a client on the standby. The failure window this buys —
//! mutations committed but not yet shipped when the primary dies are lost
//! on failover — is documented in `DESIGN.md` §12.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::client::{Client, ClientError, Jitter, DEFAULT_CONNECT_TIMEOUT};
use crate::manager::SessionManager;
use crate::net::POLL_INTERVAL;
use crate::protocol::{Request, Response, ServiceError};

/// Smallest reconnect backoff; each retry sleeps a decorrelated-jitter
/// draw from `INITIAL_BACKOFF..=3×previous`, capped at [`MAX_BACKOFF`] —
/// many replicators recovering from the same outage spread out instead
/// of dialing in lockstep.
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);
/// Largest sleep between standby reconnection attempts.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// One event on the primary → standby stream, emitted by the manager
/// under its sessions lock so channel order equals sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplEvent {
    /// A committed mutation: the journaled request line at stream
    /// position `seq`.
    Record {
        /// Stream sequence number (1-based, gapless per primary).
        seq: u64,
        /// The tagged request line, exactly as journaled.
        line: String,
    },
    /// A full-state handoff, current through `seq` — emitted after the
    /// primary compacts its journal so the standby can reset to the same
    /// baseline instead of replaying compacted-away history.
    Snapshot {
        /// Stream sequence the snapshot is current through.
        seq: u64,
        /// One journaled request line per record, in replay order.
        records: Vec<String>,
    },
}

/// The primary-side replication pump: owns the stream thread that ships
/// committed records to one warm standby, reconnecting (snapshot-first)
/// through standby outages. Dropping it stops the thread.
pub struct Replicator {
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Replicator {
    /// Attaches a replication sink to `manager` and starts streaming to
    /// the peer at `peer_addr` (a `host:port` string, recorded as the
    /// manager's initial peer — the stream re-reads the address on every
    /// reconnect, so later retargeting takes effect live). The peer may
    /// be down: the stream connects (and re-connects) with decorrelated-
    /// jitter backoff, and every successful connect starts with a full
    /// snapshot, so nothing is missed while it was away. While the
    /// manager is a standby the stream parks instead of shipping.
    #[must_use]
    pub fn start(manager: Arc<SessionManager>, peer_addr: String) -> Self {
        let (sink, events) = mpsc::channel();
        manager.set_repl_sink(sink);
        manager.set_peer(Some(peer_addr));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_stream = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("chop-replicator".into())
            .spawn(move || stream(&manager, &events, &stop_stream))
            .expect("failed to spawn replication thread");
        Self { handle: Some(handle), stop }
    }

    /// Stops the stream thread and waits for it to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The stream loop: while the manager is primary, keep a connection to
/// the peer, resynchronize with a snapshot whenever it is
/// (re)established, then ship records in sequence order, skipping
/// anything the peer already acked. While the manager is a standby the
/// loop parks; a fenced refusal from the peer demotes the manager (and
/// therefore parks the loop) on the spot.
fn stream(manager: &SessionManager, events: &mpsc::Receiver<ReplEvent>, stop: &AtomicBool) {
    // (connection, stream position shipped through)
    let mut conn: Option<(Client, u64)> = None;
    let mut backoff = Jitter::from_entropy(INITIAL_BACKOFF, MAX_BACKOFF);
    while !stop.load(Ordering::Acquire) {
        if manager.is_standby() {
            // Parked: a standby ships nothing (and must not echo applied
            // records back at its primary). Promotion restarts from a
            // fresh snapshot, so queued events can be discarded.
            conn = None;
            match events.recv_timeout(POLL_INTERVAL) {
                Ok(_) | Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if conn.is_none() {
            let Some(peer) = manager.peer() else {
                std::thread::sleep(POLL_INTERVAL);
                continue;
            };
            match connect_and_sync(manager, &peer) {
                Ok(synced) => {
                    conn = Some(synced);
                    backoff.reset();
                }
                Err(e) => {
                    // A fenced refusal of the very first snapshot is how
                    // a restarted stale primary learns it was failed
                    // over: demote now, park on the next iteration.
                    observe_refusal(manager, &e);
                    // Anything queued while the peer is unreachable is
                    // covered by the snapshot the next connect ships —
                    // drain it so the channel stays bounded by the outage.
                    while events.try_recv().is_ok() {}
                    std::thread::sleep(backoff.next_sleep());
                    continue;
                }
            }
        }
        match events.recv_timeout(POLL_INTERVAL) {
            Ok(event) => {
                let (client, shipped) = conn.as_mut().expect("connection just ensured");
                let request = match event {
                    // Already covered by a snapshot resync; and a stale
                    // queued snapshot must never roll `shipped` back.
                    ReplEvent::Record { seq, .. } | ReplEvent::Snapshot { seq, .. }
                        if seq <= *shipped =>
                    {
                        continue
                    }
                    ReplEvent::Record { seq, line } => Request::ReplApply {
                        seq,
                        record: line,
                        epoch: manager.epoch(),
                        primary: manager.advertised(),
                    },
                    ReplEvent::Snapshot { seq, records } => Request::ReplSnapshot {
                        seq,
                        records,
                        epoch: manager.epoch(),
                        primary: manager.advertised(),
                    },
                };
                match ship(client, &request) {
                    Ok(acked) => *shipped = acked.max(*shipped),
                    // Transport or protocol trouble: drop the connection
                    // and resynchronize from a fresh snapshot (after
                    // demoting first if the refusal was a newer fence).
                    Err(e) => {
                        observe_refusal(manager, &e);
                        conn = None;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // The manager replaced this sink (or was dropped): done.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Demotes the manager when a ship failure is a typed `fenced` refusal
/// proving a strictly newer epoch; all other failures are left to the
/// reconnect loop.
fn observe_refusal(manager: &SessionManager, err: &ClientError) {
    if let ClientError::Protocol(e) = err {
        manager.observe_fencing(e);
    }
}

/// Dials the peer and brings it current with one full snapshot taken
/// atomically from the manager, returning the connection and the stream
/// position the peer acked.
fn connect_and_sync(
    manager: &SessionManager,
    peer_addr: &str,
) -> Result<(Client, u64), ClientError> {
    let mut client = Client::connect_with_timeout(peer_addr, DEFAULT_CONNECT_TIMEOUT)?;
    let (seq, records) = manager.replication_snapshot();
    let request = Request::ReplSnapshot {
        seq,
        records,
        epoch: manager.epoch(),
        primary: manager.advertised(),
    };
    let acked = ship(&mut client, &request)?;
    Ok((client, acked))
}

/// Sends one replication request and returns the standby's acked
/// high-water mark. A typed refusal (the peer is itself a primary, say)
/// surfaces as a protocol error so the caller tears the stream down.
fn ship(client: &mut Client, request: &Request) -> Result<u64, ClientError> {
    match client.request(request)? {
        Response::ReplAck { seq } => Ok(seq),
        Response::Error(e) => Err(ClientError::Protocol(e)),
        other => Err(ClientError::Protocol(ServiceError::protocol(format!(
            "unexpected replication reply: {}",
            other.encode()
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A fake standby: accepts one connection, decodes replication
    /// requests, acks with its running high-water mark, and reports each
    /// message through `notify` as it arrives.
    fn fake_standby(
        listener: TcpListener,
        notify: mpsc::Sender<(&'static str, u64)>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let ack = match Request::decode(line.trim()).expect("decode") {
                    Request::ReplSnapshot { seq, .. } => {
                        let _ = notify.send(("snapshot", seq));
                        seq
                    }
                    Request::ReplApply { seq, .. } => {
                        let _ = notify.send(("record", seq));
                        seq
                    }
                    other => panic!("unexpected request: {other:?}"),
                };
                let reply = Response::ReplAck { seq: ack }.encode();
                writeln!(writer, "{reply}").expect("ack");
            }
        })
    }

    /// Dispatches a mutation the manager must accept.
    fn commit(manager: &SessionManager, request: &Request) {
        let response = manager.dispatch_tagged(request, None);
        assert!(!matches!(response, Response::Error(_)), "{request:?}: {response:?}");
    }

    #[test]
    fn stream_starts_with_a_snapshot_then_ships_records_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (notify, arrivals) = mpsc::channel();
        let standby = fake_standby(listener, notify);
        let wait = |what: &str| {
            arrivals
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("timed out waiting for the standby to see a {what}"))
        };

        let manager = Arc::new(SessionManager::new(1));
        // One committed mutation *before* the stream starts: it must
        // arrive via the snapshot, not as a record.
        let spec = "a = input 16\nb = input 16\np = mul a b\ny = output p\n";
        let params = crate::protocol::OpenParams { spec: spec.into(), ..Default::default() };
        commit(&manager, &Request::Open { session: "early".into(), params });
        let mut replicator = Replicator::start(Arc::clone(&manager), addr);
        assert_eq!(wait("snapshot"), ("snapshot", 1));
        // Committed after the stream is synced: ship as records 2 and 3.
        commit(
            &manager,
            &Request::SetConstraints {
                session: "early".into(),
                performance_ns: 40_000.0,
                delay_ns: 40_000.0,
            },
        );
        commit(&manager, &Request::Close { session: "early".into() });
        assert_eq!(wait("record"), ("record", 2));
        assert_eq!(wait("record"), ("record", 3));
        replicator.stop();
        drop(arrivals);
        standby.join().expect("standby thread");
    }

    #[test]
    fn stop_is_idempotent_and_drop_stops() {
        // No listener at this address: the replicator just backs off.
        let manager = Arc::new(SessionManager::new(1));
        let mut replicator = Replicator::start(manager, "127.0.0.1:1".into());
        replicator.stop();
        replicator.stop();
        // Dropping after stop must not hang or panic.
    }
}
