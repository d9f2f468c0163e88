//! Property tests for cluster-epoch fencing: arbitrary interleavings of
//! promotions, crash/restarts (journal replay) and replication syncs
//! across a two-node pair must keep every node's epoch monotonic, keep a
//! promotion from standby strictly increasing, never leave two unfenced
//! primaries sharing an epoch, and replay `role_change` records back
//! into exactly the pre-crash role.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::collection;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use chop_service::{Request, Response, Role, SessionManager};

/// Distinguishes concurrent proptest cases' state dirs.
static CASE: AtomicUsize = AtomicUsize::new(0);

/// One node of the pair: a journaled manager plus the restart-invariant
/// bits a real `chop serve` process carries (state dir, advertised
/// address, the `--standby` flag re-applied on every start).
struct Node {
    manager: Option<SessionManager>,
    dir: PathBuf,
    addr: String,
    standby_flag: bool,
}

impl Node {
    fn start(dir: PathBuf, addr: String, standby_flag: bool) -> Self {
        let mut node = Self { manager: None, dir, addr, standby_flag };
        node.boot();
        node
    }

    /// Recover-and-gate, mirroring `Server::bind`: the journaled role
    /// outranks the CLI flag, which only picks the *initial* role.
    fn boot(&mut self) {
        let (manager, _) = SessionManager::recover(1, &self.dir, 0).expect("recover journal");
        if self.standby_flag && manager.epoch() == 0 {
            manager.mark_standby();
        }
        manager.set_advertised(self.addr.clone());
        self.manager = Some(manager);
    }

    /// Crash (no drain ceremony — the journal is fsynced per record) and
    /// restart on the same state dir.
    fn crash_restart(&mut self) {
        self.manager = None;
        self.boot();
    }

    fn m(&self) -> &SessionManager {
        self.manager.as_ref().expect("node is booted")
    }

    /// `(epoch, role)` — the observable role.
    fn role(&self) -> (u64, Role) {
        (self.m().epoch(), self.m().role())
    }
}

/// Ships one snapshot-first sync from `sender` to `receiver`, the way
/// the replicator does: a parked (standby) sender ships nothing, and a
/// typed refusal flows back through `observe_fencing`, demoting the
/// sender only when the refusal proves a strictly newer epoch.
fn sync(sender: &Node, receiver: &Node) {
    if sender.m().is_standby() {
        return;
    }
    let request = Request::ReplSnapshot {
        seq: 1,
        records: Vec::new(),
        epoch: sender.m().epoch(),
        primary: Some(sender.addr.clone()),
    };
    if let Response::Error(e) = receiver.m().dispatch_tagged(&request, None) {
        sender.m().observe_fencing(&e);
    }
}

/// Op codes: 0/1 promote A/B, 2/3 crash-restart A/B, 4/5 sync A→B/B→A.
fn ops() -> BoxedStrategy<Vec<u8>> {
    collection::vec(0u8..6, 1..24).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn epoch_fencing_invariants_hold_under_interleaving(ops in ops()) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let base = std::env::temp_dir()
            .join(format!("chop-epoch-props-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut nodes = [
            Node::start(base.join("a"), "node-a:1991".into(), false),
            Node::start(base.join("b"), "node-b:1991".into(), true),
        ];
        let mut high_epochs = [0u64, 0u64];

        for &op in &ops {
            let which = usize::from(op % 2);
            match op {
                0 | 1 => {
                    // A promotion must be a strict epoch bump from
                    // standby and an idempotent no-op on a primary.
                    let before = nodes[which].role();
                    let (_, epoch) = nodes[which].m().promote();
                    if before.1 != Role::Primary {
                        prop_assert_eq!(epoch, before.0 + 1, "promote must bump the epoch");
                        prop_assert_eq!(nodes[which].m().role(), Role::Primary);
                    } else {
                        prop_assert_eq!(epoch, before.0, "re-promotion must not bump");
                    }
                }
                2 | 3 => {
                    // Journal replay must reproduce the pre-crash role
                    // exactly — `role_change` records are replay-stable.
                    let before = nodes[which].role();
                    nodes[which].crash_restart();
                    prop_assert_eq!(
                        nodes[which].role(), before,
                        "restart must replay the pre-crash role"
                    );
                }
                4 => sync(&nodes[0], &nodes[1]),
                _ => sync(&nodes[1], &nodes[0]),
            }

            for (node, high) in nodes.iter().zip(&mut high_epochs) {
                let epoch = node.m().epoch();
                prop_assert!(
                    epoch >= *high,
                    "epoch went backwards: {} -> {}", *high, epoch
                );
                *high = epoch;
            }
            let (a, b) = (&nodes[0], &nodes[1]);
            if !a.m().is_standby() && !b.m().is_standby() {
                prop_assert_ne!(
                    a.m().epoch(), b.m().epoch(),
                    "two unfenced primaries must never share an epoch"
                );
            }
        }
        drop(nodes);
        let _ = std::fs::remove_dir_all(&base);
    }
}
