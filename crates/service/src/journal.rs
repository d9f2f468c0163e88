//! The write-ahead journal that makes sessions crash-safe.
//!
//! Every session mutation the
//! [`SessionManager`](crate::manager::SessionManager) commits (`open`,
//! `repartition`, `apply_moves`, `set_constraints`, `close`; an
//! `optimize` is journaled as the `apply_moves` of its accepted move
//! trace) is appended to one append-only file under `--state-dir`
//! before the client is answered. The journal also records cluster
//! **role transitions** as `role_change {epoch, role}` lines — written
//! on every promotion and fencing demotion, and prepended to compaction
//! snapshots — so a restarted node replays straight back into its last
//! epoch and role instead of waking up as a split-brain primary. On
//! startup
//! [`SessionManager::recover`](crate::manager::SessionManager::recover)
//! replays the journal through the exact same mutation paths, rebuilding
//! every named session; the shared prediction cache re-warms naturally on
//! the first explore.
//!
//! # Record format
//!
//! One record per line:
//!
//! ```text
//! J1 <len> <crc32> <payload>\n
//! ```
//!
//! * `J1` — record magic + format version.
//! * `<len>` — byte length of `<payload>` (decimal). A record whose
//!   payload is shorter than declared is *torn* (the process died
//!   mid-write) and is skipped on recovery.
//! * `<crc32>` — CRC-32 (IEEE) of the payload bytes, lowercase hex. A
//!   mismatch means on-disk corruption; the record is skipped.
//! * `<payload>` — the mutating [`Request`] in its wire encoding
//!   (including the optional `req_id` envelope field), so the journal is
//!   versioned by the same `"v"` field as the protocol and replays
//!   through [`Request::decode_tagged`].
//!
//! Each append is flushed and `fsync`'d before it is acknowledged.
//! Recovery is *lenient at the tail and strict before it*: the first
//! invalid record ends replay (everything after it is counted as
//! skipped, reported with a warning, and truncated away so new appends
//! start on a clean boundary) — a torn tail never panics and never
//! poisons later appends.
//!
//! # Compaction
//!
//! The log grows with every mutation, so once it holds more than
//! `snapshot_every` records [`Journal::compact`] rewrites it as a
//! snapshot: the minimal replay sequence for the *live* sessions only
//! (one `open` plus the net mutation history per session, `req_id`s
//! preserved so the idempotency window survives a restart). The rewrite
//! goes to a temp file that is fsync'd and atomically renamed over the
//! journal, then the directory is fsync'd — a crash during compaction
//! leaves either the old journal or the new one, never a mix.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use chop_core::cache::snapshot::crc32;

use crate::protocol::Request;

#[cfg(feature = "fault-inject")]
use chop_core::prelude::fault::{AppendFault, IoFaultPlan};

/// File name of the journal inside `--state-dir`.
pub const JOURNAL_FILE: &str = "journal.chopwal";

/// Record magic + format version.
const MAGIC: &str = "J1";

/// One journaled mutation: the request plus its optional `req_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The mutating request, exactly as it was applied.
    pub request: Request,
    /// The client's idempotency tag, if the request carried one.
    pub req_id: Option<String>,
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Records that validated and decoded, in append order.
    pub entries: Vec<JournalEntry>,
    /// Torn or corrupt records dropped at the tail (0 on a clean log).
    pub skipped: usize,
}

/// An open, append-only journal handle.
pub struct Journal {
    path: PathBuf,
    file: File,
    records: usize,
    snapshot_every: usize,
    #[cfg(feature = "fault-inject")]
    io_faults: IoFaultPlan,
    #[cfg(feature = "fault-inject")]
    appends: usize,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("records", &self.records)
            .field("snapshot_every", &self.snapshot_every)
            .finish_non_exhaustive()
    }
}

/// Validates one journal line, returning its payload on success.
fn parse_record(line: &str) -> Result<&str, String> {
    let mut parts = line.splitn(4, ' ');
    let (magic, len, crc, payload) =
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(l), Some(c), Some(p)) => (m, l, c, p),
            _ => return Err("short record header".to_owned()),
        };
    if magic != MAGIC {
        return Err(format!("unknown record magic {magic:?}"));
    }
    let declared: usize = len.parse().map_err(|_| format!("bad record length {len:?}"))?;
    if payload.len() != declared {
        return Err(format!("torn record: {} of {declared} payload bytes", payload.len()));
    }
    let expected =
        u32::from_str_radix(crc, 16).map_err(|_| format!("bad record crc {crc:?}"))?;
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(format!("crc mismatch: stored {expected:08x}, computed {actual:08x}"));
    }
    Ok(payload)
}

/// Renders one entry as a full record line (with trailing newline).
fn render_record(entry_payload: &str) -> String {
    format!(
        "{MAGIC} {} {:08x} {entry_payload}\n",
        entry_payload.len(),
        crc32(entry_payload.as_bytes())
    )
}

impl Journal {
    /// Opens (creating if needed) the journal under `state_dir`, scanning
    /// any existing records. Torn or corrupt tail records are reported in
    /// the scan — never an error — and truncated away so appends resume
    /// on a clean record boundary. `snapshot_every == 0` disables
    /// compaction.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (unreadable directory, permission trouble).
    pub fn open(
        state_dir: &Path,
        snapshot_every: usize,
    ) -> std::io::Result<(Self, JournalScan)> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        let mut file = OpenOptions::new().read(true).create(true).append(true).open(&path)?;
        let mut raw = String::new();
        file.read_to_string(&mut raw)?;

        let mut scan = JournalScan::default();
        let mut valid_bytes = 0_u64;
        let mut lines = raw.split_inclusive('\n');
        for line in &mut lines {
            let complete = line.ends_with('\n');
            let body = line.trim_end_matches('\n');
            let outcome = if complete {
                parse_record(body).and_then(|payload| {
                    Request::decode_tagged(payload)
                        .map(|(request, req_id)| JournalEntry { request, req_id })
                        .map_err(|e| format!("undecodable payload: {e}"))
                })
            } else {
                Err("torn record: no newline before end of file".to_owned())
            };
            match outcome {
                Ok(entry) => {
                    scan.entries.push(entry);
                    valid_bytes += line.len() as u64;
                }
                Err(reason) => {
                    // First bad record ends replay: everything from here
                    // on is untrusted tail.
                    eprintln!("chop-service: journal: skipping record: {reason}");
                    scan.skipped = 1 + lines.count();
                    break;
                }
            }
        }
        if valid_bytes < raw.len() as u64 {
            file.set_len(valid_bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let records = scan.entries.len();
        Ok((
            Self {
                path,
                file,
                records,
                snapshot_every,
                #[cfg(feature = "fault-inject")]
                io_faults: IoFaultPlan::none(),
                #[cfg(feature = "fault-inject")]
                appends: 0,
            },
            scan,
        ))
    }

    /// Scripts I/O faults into subsequent appends (tests only).
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn with_io_faults(mut self, plan: IoFaultPlan) -> Self {
        self.set_io_faults(plan);
        self
    }

    /// In-place variant of [`Journal::with_io_faults`], for a journal
    /// already mounted behind a lock. Resets the append counter so the
    /// plan's budget counts from now.
    #[cfg(feature = "fault-inject")]
    pub fn set_io_faults(&mut self, plan: IoFaultPlan) {
        self.io_faults = plan;
        self.appends = 0;
    }

    /// Records currently in the journal file.
    #[must_use]
    pub fn records(&self) -> usize {
        self.records
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one mutation record, flushing and `fsync`ing before
    /// returning — when this succeeds, the record survives a crash.
    ///
    /// # Errors
    ///
    /// The write or sync failure; the caller must not apply (or must not
    /// acknowledge) the mutation when the append fails.
    pub fn append(&mut self, request: &Request, req_id: Option<&str>) -> std::io::Result<()> {
        let record = render_record(&request.encode_tagged(req_id));
        #[cfg(feature = "fault-inject")]
        {
            let verdict = self.io_faults.take_append_fault(self.appends);
            self.appends += 1;
            match verdict {
                AppendFault::None => {}
                AppendFault::Fail => {
                    return Err(std::io::Error::other("injected journal append fault"));
                }
                AppendFault::Torn(bytes) => {
                    // Persist a prefix only — the crash-time torn write.
                    let keep = bytes.min(record.len());
                    self.file.write_all(&record.as_bytes()[..keep])?;
                    self.file.flush()?;
                    self.file.sync_data()?;
                    self.records += 1;
                    return Ok(());
                }
            }
        }
        self.file.write_all(record.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Whether the journal has grown past the snapshot threshold.
    #[must_use]
    pub fn should_compact(&self) -> bool {
        self.snapshot_every > 0 && self.records > self.snapshot_every
    }

    /// Rewrites the journal as the given snapshot (the minimal replay
    /// sequence for the live sessions): temp file, fsync, atomic rename,
    /// directory fsync. On failure the old journal is left untouched.
    ///
    /// # Errors
    ///
    /// The underlying write, sync or rename failure.
    pub fn compact(&mut self, snapshot: &[JournalEntry]) -> std::io::Result<()> {
        let tmp_path = self.path.with_extension("chopwal.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            for entry in snapshot {
                let payload = entry.request.encode_tagged(entry.req_id.as_deref());
                tmp.write_all(render_record(&payload).as_bytes())?;
            }
            tmp.flush()?;
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        if let Some(dir) = self.path.parent() {
            // Persist the rename itself. Directory fsync is a no-op (or
            // an error to ignore) on some filesystems; best effort.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.records = snapshot.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OpenParams;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chop-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_req(name: &str) -> Request {
        Request::Open {
            session: name.into(),
            params: OpenParams {
                spec: "x = input 8\ny = output x\n".into(),
                ..OpenParams::default()
            },
        }
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tempdir("roundtrip");
        let (mut journal, scan) = Journal::open(&dir, 0).unwrap();
        assert!(scan.entries.is_empty());
        journal.append(&open_req("a"), Some("id-1")).unwrap();
        journal
            .append(&Request::Repartition { session: "a".into(), node: 1, to: 0 }, None)
            .unwrap();
        journal.append(&Request::Close { session: "a".into() }, Some("id-2")).unwrap();
        drop(journal);

        let (journal, scan) = Journal::open(&dir, 0).unwrap();
        assert_eq!(journal.records(), 3);
        assert_eq!(scan.skipped, 0);
        assert_eq!(scan.entries.len(), 3);
        assert_eq!(scan.entries[0].request, open_req("a"));
        assert_eq!(scan.entries[0].req_id.as_deref(), Some("id-1"));
        assert_eq!(scan.entries[2].req_id.as_deref(), Some("id-2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_and_truncated() {
        let dir = tempdir("torn");
        let (mut journal, _) = Journal::open(&dir, 0).unwrap();
        journal.append(&open_req("keep"), None).unwrap();
        journal.append(&open_req("gone"), None).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Tear the last record in half, as a crash mid-write would.
        let raw = std::fs::read_to_string(&path).unwrap();
        let keep = raw.len() - 20;
        std::fs::write(&path, &raw[..keep]).unwrap();

        let (journal, scan) = Journal::open(&dir, 0).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].request, open_req("keep"));
        assert_eq!(scan.skipped, 1);
        // The torn bytes are gone: appends resume on a clean boundary.
        assert_eq!(journal.records(), 1);
        drop(journal);
        let (_, rescan) = Journal::open(&dir, 0).unwrap();
        assert_eq!(rescan.skipped, 0, "truncation must leave a clean log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_corruption_ends_replay_at_the_bad_record() {
        let dir = tempdir("crc");
        let (mut journal, _) = Journal::open(&dir, 0).unwrap();
        journal.append(&open_req("good"), None).unwrap();
        journal.append(&open_req("bad"), None).unwrap();
        journal.append(&open_req("after"), None).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Flip one payload byte inside the middle record.
        let mut raw = std::fs::read(&path).unwrap();
        let lines: Vec<&[u8]> = raw.split_inclusive(|&b| b == b'\n').collect();
        let offset = lines[0].len() + lines[1].len() - 5;
        drop(lines);
        raw[offset] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();

        let (_, scan) = Journal::open(&dir, 0).unwrap();
        assert_eq!(scan.entries.len(), 1, "replay must stop at the corrupt record");
        assert_eq!(scan.entries[0].request, open_req("good"));
        assert_eq!(scan.skipped, 2, "the corrupt record and everything after it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_to_the_snapshot() {
        let dir = tempdir("compact");
        let (mut journal, _) = Journal::open(&dir, 2).unwrap();
        for i in 0..5 {
            journal.append(&open_req(&format!("s{i}")), None).unwrap();
        }
        assert!(journal.should_compact());
        let snapshot =
            vec![JournalEntry { request: open_req("s4"), req_id: Some("keep-id".into()) }];
        journal.compact(&snapshot).unwrap();
        assert!(!journal.should_compact());
        assert_eq!(journal.records(), 1);
        // Appends keep working after the swap.
        journal.append(&open_req("s5"), None).unwrap();
        drop(journal);
        let (_, scan) = Journal::open(&dir, 2).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.entries[0].req_id.as_deref(), Some("keep-id"));
        assert_eq!(scan.entries[1].request, open_req("s5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_append_faults_fail_and_tear() {
        use chop_core::prelude::fault::IoFaultPlan;
        let dir = tempdir("iofault");
        let (journal, _) = Journal::open(&dir, 0).unwrap();
        let mut journal = journal.with_io_faults(IoFaultPlan::none().fail_after(1));
        journal.append(&open_req("ok"), None).unwrap();
        assert!(journal.append(&open_req("refused"), None).is_err());
        drop(journal);
        let (journal, scan) = Journal::open(&dir, 0).unwrap();
        assert_eq!(scan.entries.len(), 1, "failed append must not persist");

        let mut journal =
            journal.with_io_faults(IoFaultPlan::none().fail_after(0).torn_tail(9));
        journal.append(&open_req("torn"), None).unwrap();
        drop(journal);
        let (_, scan) = Journal::open(&dir, 0).unwrap();
        assert_eq!(scan.entries.len(), 1, "torn record must be skipped on recovery");
        assert_eq!(scan.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
