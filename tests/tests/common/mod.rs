//! Test doubles shared by the em-serve suites.

use em_data::EntityPair;
use em_matchers::Matcher;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// Holds every `predict_proba_batch` call until the gate opens, and
/// reports each call as it enters: a way to keep requests in flight for
/// exactly as long as a test needs.
pub struct GatedMatcher {
    inner: Arc<dyn Matcher>,
    open: Mutex<bool>,
    opened: Condvar,
    entered: Sender<()>,
}

impl GatedMatcher {
    /// A closed gate in front of `inner`; every call sends on `entered`
    /// when it reaches the gate.
    pub fn new(inner: Arc<dyn Matcher>, entered: Sender<()>) -> Arc<Self> {
        Arc::new(GatedMatcher {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
            entered,
        })
    }

    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl Matcher for GatedMatcher {
    fn name(&self) -> &str {
        "gated"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.predict_proba_batch(std::slice::from_ref(pair))[0]
    }

    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        let _ = self.entered.send(());
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.inner.predict_proba_batch(pairs)
    }
}
