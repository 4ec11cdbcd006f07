//! The coalescing front queue: the piece that turns N concurrent
//! requests into one batched pass through the matcher and the
//! `EvalSession` stores.
//!
//! Connection threads [`submit`](Coalescer::submit) jobs; a single
//! dispatcher thread blocks in [`next_batch`](Coalescer::next_batch)
//! only while the queue is empty, then takes everything queued (capped
//! at `max_batch`). Batching is load-adaptive: a request that reaches
//! an idle dispatcher runs at once, and requests that arrive while a
//! batch runs queue up and share the next one. Each batch is answered
//! by one `predict_proba_batch` call and one store pass — concurrent
//! requests for the *same* pair collapse to a single matcher query
//! (visible as explanation-store hits and the `serve/coalesced`
//! counter).

use em_data::EntityPair;
use em_eval::{ExplainerKind, ExplanationOutput};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// What a queued job asks of the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// One match probability (one `predict_proba_batch` call per batch).
    Predict,
    /// One explanation of the given explainer.
    Explain(ExplainerKind),
}

/// A successful answer.
#[derive(Clone)]
pub enum Reply {
    Probability(f64),
    Explanation(Arc<ExplanationOutput>),
}

/// Service-level failure. `Clone` on purpose: one backend error fans out
/// to every coalesced duplicate of the failing job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Body is not the protocol shape (400).
    BadRequest(String),
    /// Unknown path (404).
    NotFound,
    /// Path exists, method wrong (405).
    MethodNotAllowed,
    /// Well-formed but semantically unusable — wrong attribute count,
    /// unknown explainer label (422).
    Unprocessable(String),
    /// The server is draining and no longer accepts new work (503).
    ShuttingDown,
    /// Backend failure (500).
    Internal(String),
}

impl ServeError {
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound => 404,
            ServeError::MethodNotAllowed => 405,
            ServeError::Unprocessable(_) => 422,
            ServeError::ShuttingDown => 503,
            ServeError::Internal(_) => 500,
        }
    }

    pub fn message(&self) -> String {
        match self {
            ServeError::BadRequest(m) => m.clone(),
            ServeError::NotFound => "no such endpoint".to_string(),
            ServeError::MethodNotAllowed => "method not allowed".to_string(),
            ServeError::Unprocessable(m) => m.clone(),
            ServeError::ShuttingDown => "server is shutting down".to_string(),
            ServeError::Internal(m) => m.clone(),
        }
    }
}

/// One unit of queued work: a pair plus where to send the answer. The
/// `index` threads the answer back to its slot in the originating
/// request (one request may enqueue many pairs).
pub struct Job {
    pub kind: JobKind,
    pub pair: EntityPair,
    /// `em_eval::pair_fingerprint` of `pair` — the coalescing bucket (a
    /// slot is shared only between equal pairs).
    pub fingerprint: u64,
    /// Position within the originating request.
    pub index: usize,
    pub reply: Sender<(usize, Result<Reply, ServeError>)>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// The load-adaptive batching queue between connection threads and the
/// dispatcher.
pub struct Coalescer {
    inner: Mutex<QueueState>,
    arrived: Condvar,
    max_batch: usize,
}

impl Coalescer {
    pub fn new(max_batch: usize) -> Self {
        Coalescer {
            inner: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
            }),
            arrived: Condvar::new(),
            max_batch: max_batch.max(1),
        }
    }

    /// Enqueue a job. After [`drain`](Coalescer::drain) the job is
    /// handed back so the caller can answer 503 itself (shutdown
    /// ordering means no accepted request should ever hit this path).
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        let mut state = self.inner.lock().expect("queue lock poisoned");
        if state.draining {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.arrived.notify_all();
        Ok(())
    }

    /// Block while the queue is empty, then move everything queued
    /// (capped at `max_batch`) onto the end of `batch`. Never waits for
    /// company: whatever queued up while the caller was busy is the
    /// batch. `false` means the queue is drained *and* empty — the
    /// dispatcher's signal to exit.
    pub fn next_batch(&self, batch: &mut Vec<Job>) -> bool {
        let mut state = self.inner.lock().expect("queue lock poisoned");
        while state.jobs.is_empty() {
            if state.draining {
                return false;
            }
            state = self.arrived.wait(state).expect("queue lock poisoned");
        }
        let take = state.jobs.len().min(self.max_batch);
        batch.extend(state.jobs.drain(..take));
        true
    }

    /// Flip the queue into drain mode: `submit` starts refusing, and
    /// `next_batch` hands out any leftovers, then returns `false`.
    pub fn drain(&self) {
        self.inner.lock().expect("queue lock poisoned").draining = true;
        self.arrived.notify_all();
    }

    /// Jobs currently waiting (reported as `queue_depth` on `/stats`).
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Record, Schema};
    use std::sync::mpsc::channel;

    fn test_job(tx: &Sender<(usize, Result<Reply, ServeError>)>, index: usize) -> Job {
        let schema = Arc::new(Schema::new(vec!["a"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["x".into()]),
            Record::new(1, vec!["y".into()]),
        )
        .unwrap();
        Job {
            kind: JobKind::Predict,
            fingerprint: em_eval::pair_fingerprint(&pair),
            pair,
            index,
            reply: tx.clone(),
        }
    }

    fn indices(batch: &[Job]) -> Vec<usize> {
        batch.iter().map(|job| job.index).collect()
    }

    #[test]
    fn a_lone_job_is_a_batch_of_one() {
        // An idle dispatcher takes a single arrival at once instead of
        // holding the batch open for company.
        let q = Arc::new(Coalescer::new(16));
        let q2 = Arc::clone(&q);
        let dispatcher = std::thread::spawn(move || {
            let mut batch = Vec::new();
            assert!(q2.next_batch(&mut batch));
            indices(&batch)
        });
        let (tx, _rx) = channel();
        assert!(q.submit(test_job(&tx, 0)).is_ok());
        assert_eq!(dispatcher.join().unwrap(), vec![0]);
    }

    #[test]
    fn jobs_queued_while_busy_share_one_batch() {
        let q = Coalescer::new(16);
        let (tx, _rx) = channel();
        // No `next_batch` call is pending: the dispatcher is busy.
        for i in 0..3 {
            assert!(q.submit(test_job(&tx, i)).is_ok());
        }
        let mut batch = Vec::new();
        assert!(q.next_batch(&mut batch));
        assert_eq!(indices(&batch), vec![0, 1, 2]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn max_batch_caps_one_flush() {
        let q = Coalescer::new(2);
        let (tx, _rx) = channel();
        for i in 0..5 {
            assert!(q.submit(test_job(&tx, i)).is_ok());
        }
        let mut batch = Vec::new();
        for want in [vec![0, 1], vec![2, 3], vec![4]] {
            batch.clear();
            assert!(q.next_batch(&mut batch));
            assert_eq!(indices(&batch), want);
        }
    }

    #[test]
    fn drain_flushes_leftovers_then_ends() {
        let q = Coalescer::new(16);
        let (tx, _rx) = channel();
        assert!(q.submit(test_job(&tx, 0)).is_ok());
        q.drain();
        let mut batch = Vec::new();
        assert!(q.next_batch(&mut batch));
        assert_eq!(batch.len(), 1);
        batch.clear();
        assert!(!q.next_batch(&mut batch));
        assert!(batch.is_empty());
        assert!(q.submit(test_job(&tx, 1)).is_err());
    }

    #[test]
    fn next_batch_wakes_on_drain_while_blocked() {
        let q = Arc::new(Coalescer::new(4));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.next_batch(&mut Vec::new()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.drain();
        assert!(!waiter.join().unwrap());
    }
}
