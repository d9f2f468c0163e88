//! The worker pool and its two reactor-facing contracts: admission and
//! completion hand-back.
//!
//! Under the epoll reactor no thread waits on a connection: the
//! dispatch layer hands [`WorkerPool::submit`] a job that computes one
//! [`Response`] (an exploration on `chop serve`, a forwarded request on
//! `chop router`), and the pool pushes that reply into its
//! [`Completions`] queue, ringing the reactor's eventfd doorbell. The
//! reactor wakes, pops the completion and queues the encoded reply on
//! the owning connection. Each job carries an [`Admission`] token that
//! bounds how many are in flight: `chop serve` caps its explores and
//! optimizations on a fixed pool, `chop router` caps each backend pair
//! and its admin requests on an elastic pool whose threads follow those
//! caps.
//!
//! The pool itself stays deliberately tiny — `std::sync::mpsc` plus a
//! shared `Mutex<Receiver>`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::net::reactor::LineOutcome;
use crate::net::sys::EventFd;
use crate::protocol::{ErrorKind, Response, ServiceError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of job-running threads, plus the completion queue their
/// replies go back to the reactor through. A fixed pool
/// ([`new`](Self::new)) queues jobs behind busy workers; an elastic one
/// ([`elastic`](Self::elastic)) never does.
pub(crate) struct WorkerPool {
    sender: Option<Sender<Job>>,
    receiver: Arc<Mutex<Receiver<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Elastic pools only: idle workers not yet claimed by a queued job.
    spare: Option<Arc<AtomicUsize>>,
    completions: Arc<Completions>,
}

impl WorkerPool {
    /// Spawns `workers` (at least one) threads.
    ///
    /// # Errors
    ///
    /// The `eventfd(2)` failure of the completion doorbell, or a failed
    /// thread spawn.
    pub(crate) fn new(workers: usize) -> std::io::Result<Self> {
        let pool = Self::with_spare(None)?;
        for _ in 0..workers.max(1) {
            pool.spawn_worker()?;
        }
        Ok(pool)
    }

    /// A pool that starts with no threads and spawns one whenever a job
    /// arrives while every worker is busy, so no job waits behind
    /// another. Its thread count is the peak number of jobs in flight,
    /// which the caller bounds.
    ///
    /// # Errors
    ///
    /// The `eventfd(2)` failure of the completion doorbell.
    pub(crate) fn elastic() -> std::io::Result<Self> {
        Self::with_spare(Some(Arc::new(AtomicUsize::new(0))))
    }

    fn with_spare(spare: Option<Arc<AtomicUsize>>) -> std::io::Result<Self> {
        let (sender, receiver) = channel::<Job>();
        Ok(Self {
            sender: Some(sender),
            receiver: Arc::new(Mutex::new(receiver)),
            handles: Mutex::new(Vec::new()),
            spare,
            completions: Arc::new(Completions::new()?),
        })
    }

    fn spawn_worker(&self) -> std::io::Result<()> {
        let receiver = Arc::clone(&self.receiver);
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        let handle = std::thread::Builder::new()
            .name(format!("chop-worker-{}", handles.len()))
            .spawn(move || loop {
                // Hold the lock only while *receiving*; jobs run unlocked
                // so workers drain the queue in parallel.
                let job = receiver.lock().unwrap_or_else(PoisonError::into_inner).recv();
                match job {
                    // Jobs contain their own panic isolation, but a worker
                    // thread must survive even if that fails.
                    Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                    Err(_) => break, // all senders dropped: drain done
                }
            })?;
        handles.push(handle);
        Ok(())
    }

    /// The queue this pool's replies arrive on, for the reactor.
    pub(crate) fn completions(&self) -> Arc<Completions> {
        Arc::clone(&self.completions)
    }

    /// Enqueues a job, first claiming an idle worker for it or spawning
    /// one in an elastic pool (whose jobs all come from
    /// [`submit`](Self::submit), which counts the worker spare again).
    /// Fails while the pool is shutting down or when no thread can be
    /// spawned.
    fn execute(&self, job: Job) -> Result<(), String> {
        let Some(sender) = &self.sender else {
            return Err("server is shutting down".to_owned());
        };
        if let Some(spare) = &self.spare {
            if spare
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_err()
            {
                self.spawn_worker().map_err(|e| format!("no worker thread: {e}"))?;
            }
        }
        sender.send(job).map_err(|_| "server is shutting down".to_owned())
    }

    /// Runs `job` on a worker and hands its reply back as connection
    /// `conn`'s completion. A panicking job is answered with a typed
    /// `internal` error naming `label` ("exploration panicked: …").
    pub(crate) fn submit(
        &self,
        conn: u64,
        label: &'static str,
        job: impl FnOnce() -> Response + Send + 'static,
    ) -> LineOutcome {
        let completions = Arc::clone(&self.completions);
        let spare = self.spare.clone();
        let job = Box::new(move || {
            let response = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
                Response::Error(ServiceError::new(
                    ErrorKind::Internal,
                    format!("{label} panicked: {}", panic_message(&*payload)),
                ))
            });
            // The worker is free from here on. Count it before the reply
            // can bring its connection's next request, or that request
            // would spawn a thread this one is about to leave idle.
            if let Some(spare) = &spare {
                spare.fetch_add(1, Ordering::SeqCst);
            }
            completions.push(conn, response);
        });
        match self.execute(job) {
            Ok(()) => LineOutcome::Dispatched,
            Err(e) => {
                LineOutcome::Reply(Response::Error(ServiceError::new(ErrorKind::Internal, e)))
            }
        }
    }

    /// Drops the queue (letting workers finish what is already enqueued)
    /// and joins every worker.
    pub(crate) fn shutdown(mut self) {
        self.sender = None;
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Best-effort panic payload extraction.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    }
}

/// Finished worker results on their way back to the reactor: a mutexed
/// queue of `(connection token, response)` pairs plus the eventfd
/// doorbell that interrupts the reactor's `epoll_wait`.
pub(crate) struct Completions {
    queue: Mutex<Vec<(u64, Response)>>,
    doorbell: EventFd,
}

impl Completions {
    /// Creates the queue and its doorbell.
    ///
    /// # Errors
    ///
    /// The `eventfd(2)` failure, if the fd table is exhausted.
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Self { queue: Mutex::new(Vec::new()), doorbell: EventFd::new()? })
    }

    /// Hands one finished response back and wakes the reactor. Called
    /// from worker threads.
    pub(crate) fn push(&self, token: u64, response: Response) {
        let first = {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push((token, response));
            queue.len() == 1
        };
        if first {
            self.doorbell.signal();
        }
    }

    /// Takes every pending completion and clears the doorbell. Called
    /// from the reactor thread.
    pub(crate) fn drain(&self) -> Vec<(u64, Response)> {
        self.doorbell.drain();
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The doorbell fd, for epoll registration.
    pub(crate) fn waker_fd(&self) -> std::os::fd::RawFd {
        self.doorbell.raw()
    }
}

/// Admission control for explorations: at most `max` may be queued or
/// running; past that the dispatch layer answers [`Response::Busy`]
/// instead of growing an unbounded queue.
pub(crate) struct Admission {
    inflight: AtomicUsize,
    max: usize,
}

impl Admission {
    pub(crate) fn new(max: usize) -> Self {
        Self { inflight: AtomicUsize::new(0), max }
    }

    /// Takes one slot, or `None` when the pool is saturated.
    pub(crate) fn try_acquire(self: &Arc<Self>) -> Option<AdmissionToken> {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.max).then_some(n + 1)
            })
            .ok()
            .map(|_| AdmissionToken(Arc::clone(self)))
    }

    /// The `busy` reply for a saturated pool, with a backoff hint scaled
    /// by how oversubscribed it is: one explore-slot's worth of queueing
    /// (50 ms) per excess in-flight request, clamped to 25 ms..=2 s.
    pub(crate) fn busy_reply(&self) -> Response {
        let inflight = self.inflight.load(Ordering::SeqCst);
        let excess = inflight.saturating_sub(self.max) as u64;
        Response::Busy {
            inflight: inflight as u64,
            max_inflight: self.max as u64,
            retry_after_ms: (50 * (excess + 1)).clamp(25, 2000),
        }
    }
}

/// RAII admission slot: holding one counts toward the cap; dropping it
/// (wherever the job ends — success, error or panic) releases it.
pub(crate) struct AdmissionToken(Arc<Admission>);

impl Drop for AdmissionToken {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_drain_on_shutdown() {
        let pool = WorkerPool::new(3).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = WorkerPool::new(1).unwrap();
        pool.execute(Box::new(|| panic!("boom"))).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }))
        .unwrap();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 1, "the single worker must survive");
    }

    #[test]
    fn completions_hand_back_through_the_pool() {
        let pool = WorkerPool::new(2).unwrap();
        let completions = pool.completions();
        for token in 0..8u64 {
            let outcome = pool.submit(token, "test job", move || {
                assert!(token != 7, "boom");
                Response::ShuttingDown
            });
            assert!(matches!(outcome, LineOutcome::Dispatched));
        }
        pool.shutdown();
        let mut got = completions.drain();
        got.sort_by_key(|(token, _)| *token);
        assert_eq!(got.len(), 8);
        assert_eq!(got[0], (0, Response::ShuttingDown));
        // A panicking job still answers its connection, with its label.
        let (token, Response::Error(e)) = &got[7] else { panic!("{:?}", got[7]) };
        assert_eq!((*token, e.kind), (7, ErrorKind::Internal));
        assert_eq!(e.message, "test job panicked: boom");
        assert!(completions.drain().is_empty(), "drain must take everything");
    }

    #[test]
    fn elastic_pool_runs_every_job_at_once_and_reuses_idle_workers() {
        let pool = WorkerPool::elastic().unwrap();
        let completions = pool.completions();
        let started = Arc::new(AtomicUsize::new(0));
        let batch = |first: u64| {
            for token in first..first + 8 {
                let started = Arc::clone(&started);
                let outcome = pool.submit(token, "test job", move || {
                    // Every job waits for all eight: they only finish if
                    // none of them is queued behind another.
                    started.fetch_add(1, Ordering::SeqCst);
                    let deadline =
                        std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while !started.load(Ordering::SeqCst).is_multiple_of(8) {
                        assert!(std::time::Instant::now() < deadline, "a job was left queued");
                        std::thread::yield_now();
                    }
                    Response::ShuttingDown
                });
                assert!(matches!(outcome, LineOutcome::Dispatched));
            }
        };
        let spare = pool.spare.clone().unwrap();
        let idle = |n| {
            while spare.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
        };
        batch(0);
        idle(8);
        batch(8);
        idle(8);
        let threads = pool.handles.lock().unwrap().len();
        pool.shutdown();
        assert_eq!(threads, 8, "the second batch must reuse the first batch's workers");
        let mut got = completions.drain();
        got.sort_by_key(|(token, _)| *token);
        assert_eq!(got, (0..16).map(|t| (t, Response::ShuttingDown)).collect::<Vec<_>>());
    }

    #[test]
    fn admission_caps_and_releases() {
        let admission = Arc::new(Admission::new(2));
        let a = admission.try_acquire().expect("slot 1");
        let _b = admission.try_acquire().expect("slot 2");
        assert!(admission.try_acquire().is_none(), "third slot must be refused");
        match admission.busy_reply() {
            Response::Busy { inflight: 2, max_inflight: 2, retry_after_ms: 50 } => {}
            other => panic!("unexpected busy reply: {other:?}"),
        }
        drop(a);
        assert!(admission.try_acquire().is_some(), "released slot must be reusable");
    }
}
