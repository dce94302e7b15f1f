//! The in-memory job queue the worker pool drains: a priority heap
//! over [`JobRecord`]s with blocking claim, cooperative cancellation,
//! and graceful-shutdown semantics.
//!
//! Ordering is total and deterministic: higher priority first, FIFO
//! (submission sequence) within a level. A re-queued job (checkpointed
//! campaign awaiting resume) keeps its original sequence number, so it
//! returns to its original place in line.
//!
//! The queue is memory-only; persistence belongs to the caller. Every
//! mutating method returns a snapshot of the affected record so the
//! daemon can write `state.json` *after* the state transition without
//! holding the queue lock across I/O.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Condvar, Mutex};

use tinysdr_dsp::cancel::CancelToken;

use crate::clock::Clock;
use crate::spec::{job_id, job_seq, JobRecord, JobSpec, JobState};

/// Heap entry: max-heap on `(priority, Reverse(seq))` — highest
/// priority, then earliest submission.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    priority: u8,
    seq: Reverse<u64>,
    id: String,
}

/// Queue shutdown phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum CloseMode {
    /// Accepting and dispatching normally.
    #[default]
    Open,
    /// Dispatch what is already queued, then report exhaustion — the
    /// batch/bench mode.
    Drain,
    /// Stop dispatching immediately; queued jobs stay queued (their
    /// persisted records resume on the next daemon start) — the
    /// graceful-shutdown mode.
    Now,
}

#[derive(Debug, Default)]
struct Inner {
    heap: BinaryHeap<Entry>,
    records: BTreeMap<String, JobRecord>,
    tokens: BTreeMap<String, CancelToken>,
    next_seq: u64,
    closed: CloseMode,
}

/// How a worker reports a finished claim back to the queue.
#[derive(Debug)]
pub enum Outcome {
    /// Report written; job complete.
    Done,
    /// The runner failed with this error.
    Failed(String),
    /// The job's own cancellation was requested and honored.
    Cancelled,
    /// The run was interrupted (checkpoint written) and should go back
    /// in line — the resume leg of a checkpointed campaign, or a
    /// graceful-shutdown interruption.
    Requeue,
}

/// The shared priority queue. One instance per daemon, behind an
/// `Arc`.
#[derive(Debug, Default)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// Rebuild queue state from persisted records (the daemon restart
    /// path): non-terminal records are re-queued — a `Running` record
    /// means the previous process died or shut down mid-job, and its
    /// checkpoint (if any) makes re-running it a resume. Returns the
    /// ids that went back in line.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock (a worker panicked while
    /// holding it — unrecoverable scheduler state).
    pub fn restore(&self, records: Vec<JobRecord>) -> Vec<String> {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let mut inner = self.inner.lock().expect("queue lock");
        let mut requeued = Vec::new();
        for mut rec in records {
            let seq = job_seq(&rec.id).unwrap_or(inner.next_seq);
            inner.next_seq = inner.next_seq.max(seq + 1);
            if !rec.state.is_terminal() {
                rec.state = JobState::Queued;
                inner.heap.push(Entry {
                    priority: rec.priority,
                    seq: Reverse(seq),
                    id: rec.id.clone(),
                });
                requeued.push(rec.id.clone());
            }
            inner.records.insert(rec.id.clone(), rec);
        }
        drop(inner);
        self.ready.notify_all();
        requeued
    }

    /// Enqueue a new job; returns its record snapshot.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn submit(&self, spec: JobSpec, priority: u8, now_ms: u64) -> JobRecord {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let mut inner = self.inner.lock().expect("queue lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let rec = JobRecord::new(
            job_id(seq, spec.fingerprint()),
            spec,
            priority.min(9),
            now_ms,
        );
        inner.heap.push(Entry {
            priority: rec.priority,
            seq: Reverse(seq),
            id: rec.id.clone(),
        });
        inner.records.insert(rec.id.clone(), rec.clone());
        drop(inner);
        self.ready.notify_one();
        rec
    }

    /// Block until a job is claimable (or the queue is closed). On a
    /// claim the record moves to `Running`, its attempt counter
    /// increments, and a fresh child of `shutdown` becomes its cancel
    /// token. A first claim stamps `started_ms` from `clock` at the
    /// moment it takes the job — after any wait — so a job never starts
    /// before it was submitted. Returns `None` exactly when the queue
    /// has been closed — the worker-exit signal.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn claim(
        &self,
        shutdown: &CancelToken,
        clock: &dyn Clock,
    ) -> Option<(JobRecord, CancelToken)> {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed == CloseMode::Now {
                return None;
            }
            while let Some(entry) = inner.heap.pop() {
                // stale entries (cancelled while queued) fall through
                let claimable = inner
                    .records
                    .get(&entry.id)
                    .is_some_and(|r| r.state == JobState::Queued);
                if !claimable {
                    continue;
                }
                let token = shutdown.child();
                // lint: allow(unjustified-panic, presence checked above under the same lock)
                let rec = inner.records.get_mut(&entry.id).expect("record exists");
                rec.state = JobState::Running;
                rec.attempts += 1;
                if rec.started_ms == 0 {
                    rec.started_ms = clock.now_ms();
                }
                let snapshot = rec.clone();
                inner.tokens.insert(entry.id, token.clone());
                return Some((snapshot, token));
            }
            if inner.closed == CloseMode::Drain {
                return None;
            }
            // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Record a claimed job's outcome. Returns the updated snapshot
    /// (`None` for an unknown id).
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn finish(&self, id: &str, outcome: Outcome, now_ms: u64) -> Option<JobRecord> {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let mut inner = self.inner.lock().expect("queue lock");
        inner.tokens.remove(id);
        let seq = job_seq(id)?;
        let rec = inner.records.get_mut(id)?;
        match outcome {
            Outcome::Done => {
                rec.state = JobState::Done;
                rec.finished_ms = now_ms;
            }
            Outcome::Failed(err) => {
                rec.state = JobState::Failed;
                rec.error = err;
                rec.finished_ms = now_ms;
            }
            Outcome::Cancelled => {
                rec.state = JobState::Cancelled;
                rec.finished_ms = now_ms;
            }
            Outcome::Requeue => {
                rec.state = JobState::Queued;
                let entry = Entry {
                    priority: rec.priority,
                    seq: Reverse(seq),
                    id: id.to_string(),
                };
                let snapshot = rec.clone();
                inner.heap.push(entry);
                drop(inner);
                self.ready.notify_one();
                return Some(snapshot);
            }
        }
        Some(rec.clone())
    }

    /// Request cancellation. A queued job is cancelled immediately; a
    /// running job has `cancel_requested` set and its token cancelled
    /// (the runner observes it at the next block/curve boundary).
    /// Terminal jobs are unchanged. Returns the updated snapshot.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn cancel(&self, id: &str, now_ms: u64) -> Option<JobRecord> {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let mut inner = self.inner.lock().expect("queue lock");
        let token = inner.tokens.get(id).cloned();
        let rec = inner.records.get_mut(id)?;
        match rec.state {
            JobState::Queued => {
                rec.state = JobState::Cancelled;
                rec.cancel_requested = true;
                rec.finished_ms = now_ms;
            }
            JobState::Running => {
                rec.cancel_requested = true;
                if let Some(t) = token {
                    t.cancel();
                }
            }
            _ => {}
        }
        Some(rec.clone())
    }

    /// Snapshot one record.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn get(&self, id: &str) -> Option<JobRecord> {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        self.inner
            .lock()
            .expect("queue lock")
            .records
            .get(id)
            .cloned()
    }

    /// Snapshot every record, in id (= submission) order.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn list(&self) -> Vec<JobRecord> {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let inner = self.inner.lock().expect("queue lock");
        inner.records.values().cloned().collect()
    }

    /// `(queued, running)` counts for `/v1/health`.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn counts(&self) -> (usize, usize) {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let inner = self.inner.lock().expect("queue lock");
        let queued = inner
            .records
            .values()
            .filter(|r| r.state == JobState::Queued)
            .count();
        let running = inner
            .records
            .values()
            .filter(|r| r.state == JobState::Running)
            .count();
        (queued, running)
    }

    /// Close immediately: every blocked and future [`JobQueue::claim`]
    /// returns `None`. Queued jobs stay queued (persisted records
    /// resume on the next start) — the graceful-shutdown mode.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn close(&self) {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        self.inner.lock().expect("queue lock").closed = CloseMode::Now;
        self.ready.notify_all();
    }

    /// Close after draining: [`JobQueue::claim`] keeps dispatching
    /// (including resume legs re-queued mid-drain) until nothing is
    /// claimable, then returns `None` — the batch/bench mode.
    ///
    /// # Panics
    /// Panics on a poisoned queue lock.
    pub fn close_after_drain(&self) {
        // lint: allow(unjustified-panic, poisoned scheduler lock is unrecoverable)
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed == CloseMode::Open {
            inner.closed = CloseMode::Drain;
        }
        drop(inner);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    fn perf(quick: bool) -> JobSpec {
        JobSpec::Perf { quick }
    }

    #[test]
    fn claims_follow_priority_then_fifo() {
        let q = JobQueue::new();
        let shutdown = CancelToken::new();
        let low1 = q.submit(perf(true), 2, 0);
        let low2 = q.submit(perf(false), 2, 1);
        let high = q.submit(
            JobSpec::Waterfall {
                seed: 1,
                quick: true,
            },
            7,
            2,
        );
        let order: Vec<String> = (0..3)
            .map(|_| {
                q.claim(&shutdown, &FakeClock::at(10))
                    .expect("claimable")
                    .0
                    .id
            })
            .collect();
        assert_eq!(order, vec![high.id, low1.id, low2.id]);
    }

    #[test]
    fn idle_worker_stamps_start_when_it_takes_the_job() {
        let q = std::sync::Arc::new(JobQueue::new());
        let clock = FakeClock::at(100);
        let worker = {
            let (q, clock) = (q.clone(), clock.clone());
            std::thread::spawn(move || q.claim(&CancelToken::new(), &clock))
        };
        // let the worker block on the empty queue before time moves on
        std::thread::sleep(std::time::Duration::from_millis(50));
        clock.advance_ms(150);
        let rec = q.submit(perf(true), 5, clock.now_ms());
        let (claimed, _) = worker.join().expect("no panic").expect("claimable");
        assert_eq!(claimed.id, rec.id);
        assert!(
            claimed.started_ms >= claimed.submitted_ms,
            "started {} before submitted {}",
            claimed.started_ms,
            claimed.submitted_ms
        );
    }

    #[test]
    fn cancel_of_queued_job_skips_it_and_claim_moves_on() {
        let q = JobQueue::new();
        let shutdown = CancelToken::new();
        let a = q.submit(perf(true), 5, 0);
        let b = q.submit(perf(false), 5, 0);
        let cancelled = q.cancel(&a.id, 3).expect("known id");
        assert_eq!(cancelled.state, JobState::Cancelled);
        assert_eq!(cancelled.finished_ms, 3);
        let (claimed, _) = q.claim(&shutdown, &FakeClock::at(5)).expect("b claimable");
        assert_eq!(claimed.id, b.id);
        assert_eq!(claimed.attempts, 1);
    }

    #[test]
    fn cancel_of_running_job_trips_its_token_only() {
        let q = JobQueue::new();
        let shutdown = CancelToken::new();
        let a = q.submit(perf(true), 5, 0);
        let (rec, token) = q.claim(&shutdown, &FakeClock::at(1)).expect("claimable");
        assert_eq!(rec.id, a.id);
        assert!(!token.is_cancelled());
        let after = q.cancel(&a.id, 2).expect("known id");
        assert_eq!(after.state, JobState::Running);
        assert!(after.cancel_requested);
        assert!(token.is_cancelled());
        assert!(!shutdown.is_cancelled(), "job cancel must not escalate");
        let done = q.finish(&a.id, Outcome::Cancelled, 9).expect("known id");
        assert_eq!(done.state, JobState::Cancelled);
        assert_eq!(done.finished_ms, 9);
    }

    #[test]
    fn requeue_preserves_the_original_position() {
        let q = JobQueue::new();
        let shutdown = CancelToken::new();
        let first = q.submit(perf(true), 5, 0);
        let (claimed, _) = q.claim(&shutdown, &FakeClock::at(1)).expect("claimable");
        let second = q.submit(perf(false), 5, 2);
        let back = q.finish(&claimed.id, Outcome::Requeue, 3).expect("known");
        assert_eq!(back.state, JobState::Queued);
        // the requeued job kept seq 0, so it outranks the later submit
        let (next, _) = q.claim(&shutdown, &FakeClock::at(4)).expect("claimable");
        assert_eq!(next.id, first.id);
        assert_eq!(next.attempts, 2, "resume leg is a second attempt");
        let (last, _) = q.claim(&shutdown, &FakeClock::at(5)).expect("claimable");
        assert_eq!(last.id, second.id);
    }

    #[test]
    fn close_unblocks_claim_and_preserves_queued_jobs() {
        let q = std::sync::Arc::new(JobQueue::new());
        let shutdown = CancelToken::new();
        let waiter = {
            let q = q.clone();
            let shutdown = shutdown.clone();
            std::thread::spawn(move || q.claim(&shutdown, &FakeClock::at(0)).is_none())
        };
        q.submit(perf(true), 5, 0); // will sit queued
        q.close();
        // claim may race the submit and grab the job before close; both
        // terminal answers are fine for the *next* claim:
        assert!(
            q.claim(&shutdown, &FakeClock::at(1)).is_none(),
            "closed queue must not claim"
        );
        let _ = waiter.join().expect("no panic");
        assert!(q.list().iter().any(|r| r.state != JobState::Cancelled));
    }

    #[test]
    fn restore_requeues_only_non_terminal_records_and_continues_seq() {
        let q = JobQueue::new();
        let shutdown = CancelToken::new();
        let mk = |seq: u64, state: JobState| {
            let spec = perf(true);
            let mut r = JobRecord::new(job_id(seq, spec.fingerprint()), spec, 5, 0);
            r.state = state;
            r
        };
        let requeued = q.restore(vec![
            mk(0, JobState::Done),
            mk(1, JobState::Running),
            mk(2, JobState::Queued),
            mk(3, JobState::Cancelled),
        ]);
        assert_eq!(requeued.len(), 2);
        // the interrupted Running job resumes first (earlier seq)
        let (first, _) = q.claim(&shutdown, &FakeClock::at(1)).expect("claimable");
        assert!(first.id.starts_with("job-000001"));
        // new submissions continue the id sequence past the restored max
        let fresh = q.submit(perf(false), 5, 9);
        assert!(fresh.id.starts_with("job-000004"), "{}", fresh.id);
    }
}
