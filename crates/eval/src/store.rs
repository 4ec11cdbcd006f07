//! Memoized evaluation substrate: shared stores that let the seventeen
//! experiment runners reuse each other's work instead of re-deriving it.
//!
//! Two stores back one [`EvalSession`]:
//!
//! * [`ContextStore`] caches prepared [`EvalContext`]s keyed by
//!   `(family, GeneratorConfig)`. Dataset generation, splitting, embedding
//!   training and (lazily) matcher-zoo training happen once per distinct
//!   configuration, no matter how many experiments ask.
//! * [`ExplanationStore`] caches [`ExplanationOutput`]s keyed by
//!   `(context, matcher kind, explainer kind, pair content, budget,
//!   CREW-options fingerprint)`. A cached explanation is bitwise identical
//!   to a fresh run, and its `elapsed` field records the *cold* (first
//!   computation) wall-clock, so latency columns report first-computation
//!   time even when served from the store. Runtime experiments either read
//!   that recorded cold time or bypass the store explicitly.
//!
//! The explanation store additionally caches CREW perturbation sets (the
//! only stage that queries the matcher) separately from the clustering
//! tail, so ablation variants that differ only in clustering options share
//! one set of matcher queries. A cached CREW explanation reports
//! `elapsed = set cold time + own clustering tail time`, i.e. what a fresh
//! end-to-end run would have cost.
//!
//! Both stores coalesce concurrent misses: each key owns a slot with an
//! init lock, so two experiments racing on the same key compute it once
//! and the loser blocks until the value lands. Errors are never cached —
//! a failed computation is retried by the next caller.
//!
//! ## Memory-bounded variants
//!
//! The grow-only maps are the right trade for the seventeen-experiment
//! suite (every entry is re-read), but the streaming pipeline (`em-stream`)
//! visits 10⁵–10⁶ candidate pairs and would OOM long before the end. The
//! generic [`SlotMap`] underneath both stores therefore takes an optional
//! **byte budget**: every cached value is accounted by an approximate
//! byte size, and inserting past the budget evicts victims chosen by the
//! clock (second-chance FIFO) policy *before* the insert, so resident
//! cache bytes never exceed the budget. Evictions only discard reuse —
//! an evicted key is recomputed on its next request and, because every
//! computation here is deterministic, the recomputed value is bitwise
//! identical to the first one. Counters `store/<name>/hit|miss|evict`
//! and the max-gauge `store/<name>/bytes_peak` (via `em-obs`) make the
//! policy observable; [`ExplanationStore::bounded`] is the user-facing
//! constructor.

use crate::context::{EvalContext, MatcherKind};
use crate::experiments::ExperimentConfig;
use crate::explainers::{
    build_crew, crew_output, explain_pair_opts, ExplainBudget, ExplainerKind, ExplanationOutput,
};
use crew_core::{ClusterAlgorithm, CrewOptions, PerturbationSet};
use em_cluster::Linkage;
use em_data::{EntityPair, TokenizedPair};
use em_synth::{Family, GeneratorConfig};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Hit/miss counters of one store (reported by `run_all` and mirrored
/// into the `em-obs` counters `store/<name>/hit|miss|evict`).
///
/// `hits` and `misses` depend only on the workload, never on scheduling:
/// a request either finds the value (hit) or is the one computation of it
/// (miss), so the pair is asserted jobs-invariant in `eval_store.rs` —
/// *for unbounded stores*. With a byte budget, eviction timing depends on
/// completion order, so `misses` (recomputations) and `evictions` are
/// schedule-dependent; only the served values stay bitwise invariant.
/// `coalesced` counts the hits that blocked on a concurrent in-flight
/// miss — a subset of `hits` that exists only under concurrency, so it is
/// schedule-dependent and excluded from the obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub hits: usize,
    pub misses: usize,
    pub coalesced: usize,
    /// Entries discarded by the byte-budget clock policy (always 0 for
    /// unbounded stores).
    pub evictions: usize,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({} coalesced)",
            self.hits, self.misses, self.coalesced
        )?;
        if self.evictions > 0 {
            write!(f, " [{} evicted]", self.evictions)?;
        }
        Ok(())
    }
}

/// How a slot request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The value was already present.
    Hit,
    /// This request computed the value.
    Miss,
    /// A concurrent request was computing; this one blocked and received
    /// the freshly written value (a hit that paid latency).
    Coalesced,
}

/// One cache slot: a per-key init lock plus a write-once cell. Concurrent
/// misses on the same key serialize on the lock and all but the first see
/// the freshly written value; errors leave the cell empty for retry.
pub(crate) struct Slot<T> {
    init: Mutex<()>,
    cell: OnceLock<Arc<T>>,
}

impl<T> Slot<T> {
    pub(crate) fn new() -> Self {
        Slot {
            init: Mutex::new(()),
            cell: OnceLock::new(),
        }
    }

    /// Fetch the cached value or compute it, reporting how the request
    /// was served.
    pub(crate) fn get_or_try_init<E>(
        &self,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, Outcome), E> {
        if let Some(v) = self.cell.get() {
            return Ok((Arc::clone(v), Outcome::Hit));
        }
        let _guard = self.init.lock().expect("slot init lock poisoned");
        if let Some(v) = self.cell.get() {
            return Ok((Arc::clone(v), Outcome::Coalesced));
        }
        let v = Arc::new(compute()?);
        let _ = self.cell.set(Arc::clone(&v));
        Ok((v, Outcome::Miss))
    }
}

/// Per-store counter quad, mirrored into the obs counters.
#[derive(Default)]
struct Counts {
    hits: AtomicUsize,
    misses: AtomicUsize,
    coalesced: AtomicUsize,
    evictions: AtomicUsize,
}

impl Counts {
    /// Record one served request. Obs sees `store/<name>/hit` and
    /// `store/<name>/miss` (coalesced counts as a hit there: whether a
    /// hit blocked on an in-flight miss is schedule-dependent, and the
    /// obs structure must stay identical across `--jobs` values).
    fn record(&self, name: &str, outcome: Outcome) {
        match outcome {
            Outcome::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                em_obs::counter!(&format!("store/{name}/hit"), 1);
            }
            Outcome::Coalesced => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                em_obs::counter!(&format!("store/{name}/hit"), 1);
            }
            Outcome::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                em_obs::counter!(&format!("store/{name}/miss"), 1);
            }
        }
    }

    fn record_evict(&self, name: &str, n: usize) {
        if n > 0 {
            self.evictions.fetch_add(n, Ordering::Relaxed);
            em_obs::counter!(&format!("store/{name}/evict"), n as u64);
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Clock (second-chance FIFO) bookkeeping of one bounded [`SlotMap`].
///
/// `queue` holds each cached key once in insertion order; `entries` maps
/// a key to its byte cost and referenced bit. A hit sets the bit; an
/// eviction scan pops the front, re-queueing referenced keys with the bit
/// cleared and discarding the first unreferenced one.
struct Clock<K> {
    budget: usize,
    resident: usize,
    peak: usize,
    queue: VecDeque<K>,
    entries: HashMap<K, (usize, bool)>,
}

impl<K: Eq + Hash + Clone> Clock<K> {
    fn new(budget: usize) -> Self {
        Clock {
            budget,
            resident: 0,
            peak: 0,
            queue: VecDeque::new(),
            entries: HashMap::new(),
        }
    }

    /// Mark a key recently used (no-op if it was already evicted).
    fn touch(&mut self, key: &K) {
        if let Some((_, referenced)) = self.entries.get_mut(key) {
            *referenced = true;
        }
    }

    /// Pick victims until `incoming` more bytes fit. Returns the evicted
    /// keys; the caller removes them from the slot map (under the clock
    /// lock, so the budget invariant holds across threads).
    fn make_room(&mut self, incoming: usize) -> Vec<K> {
        let mut evicted = Vec::new();
        while self.resident + incoming > self.budget && !self.queue.is_empty() {
            let key = self.queue.pop_front().expect("non-empty queue");
            let entry = self.entries.get_mut(&key).expect("queued key has entry");
            if entry.1 {
                entry.1 = false;
                self.queue.push_back(key);
            } else {
                let (bytes, _) = self.entries.remove(&key).expect("entry exists");
                self.resident -= bytes;
                evicted.push(key);
            }
        }
        evicted
    }

    /// Account an inserted value. Returns false if the value alone busts
    /// the budget and must not be retained.
    fn insert(&mut self, key: K, bytes: usize) -> bool {
        if self.resident + bytes > self.budget {
            return false;
        }
        if let Some((old, _)) = self.entries.insert(key.clone(), (bytes, false)) {
            // Key re-inserted after a concurrent recompute: replace the
            // accounting, keep its existing queue position.
            self.resident -= old;
        } else {
            self.queue.push_back(key);
        }
        self.resident += bytes;
        self.peak = self.peak.max(self.resident);
        true
    }
}

/// A keyed map of coalescing `Slot`s with hit/miss accounting and an
/// optional byte budget (see the module docs). This is the shared
/// machinery of [`ContextStore`] and [`ExplanationStore`]; `em-stream`
/// builds its content-fingerprint stores on it directly.
pub struct SlotMap<K, V> {
    name: &'static str,
    slots: Mutex<HashMap<K, Arc<Slot<V>>>>,
    counts: Counts,
    clock: Option<Mutex<Clock<K>>>,
    bytes_of: fn(&V) -> usize,
}

impl<K: Eq + Hash + Clone, V> SlotMap<K, V> {
    /// An unbounded (grow-only) map. `name` labels the obs counters
    /// (`store/<name>/hit` …).
    pub fn new(name: &'static str, bytes_of: fn(&V) -> usize) -> Self {
        SlotMap {
            name,
            slots: Mutex::new(HashMap::new()),
            counts: Counts::default(),
            clock: None,
            bytes_of,
        }
    }

    /// A byte-budgeted map: resident cached bytes (as measured by
    /// `bytes_of`) never exceed `budget_bytes`; victims are chosen by the
    /// clock policy. Values larger than the whole budget are computed and
    /// returned but never retained.
    pub fn bounded(name: &'static str, bytes_of: fn(&V) -> usize, budget_bytes: usize) -> Self {
        SlotMap {
            clock: Some(Mutex::new(Clock::new(budget_bytes))),
            ..SlotMap::new(name, bytes_of)
        }
    }

    /// Fetch the slot of `key`; the map lock is held only for the lookup,
    /// never during a computation.
    fn slot_for(&self, key: &K) -> Arc<Slot<V>> {
        let mut map = self.slots.lock().expect("store map lock poisoned");
        Arc::clone(
            map.entry(key.clone())
                .or_insert_with(|| Arc::new(Slot::new())),
        )
    }

    /// Fetch the cached value of `key` or compute it (coalescing
    /// concurrent misses). Under a byte budget this is where victims are
    /// evicted and the freshly computed value is accounted.
    pub fn get_or_compute<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = self.slot_for(key);
        let (value, outcome) = slot.get_or_try_init(compute)?;
        self.counts.record(self.name, outcome);
        if let Some(clock) = &self.clock {
            // Lock order is clock → slots (eviction removes slots while
            // holding the clock); the hit path above touched slots only
            // before taking the clock, so the order is acyclic.
            let mut clock = clock.lock().expect("store clock lock poisoned");
            match outcome {
                Outcome::Hit | Outcome::Coalesced => clock.touch(key),
                Outcome::Miss => {
                    let bytes = (self.bytes_of)(&value);
                    let victims = clock.make_room(bytes);
                    let retained = clock.insert(key.clone(), bytes);
                    let mut evicted = victims.len();
                    {
                        let mut map = self.slots.lock().expect("store map lock poisoned");
                        for victim in &victims {
                            map.remove(victim);
                        }
                        if !retained {
                            map.remove(key);
                            evicted += 1;
                        }
                    }
                    self.counts.record_evict(self.name, evicted);
                    em_obs::gauge!(
                        &format!("store/{}/bytes_peak", self.name),
                        clock.peak as u64
                    );
                }
            }
        }
        Ok(value)
    }

    pub fn stats(&self) -> StoreStats {
        self.counts.stats()
    }

    /// Bytes currently retained by the budgeted cache (0 when unbounded).
    pub fn resident_bytes(&self) -> usize {
        self.clock
            .as_ref()
            .map(|c| c.lock().expect("store clock lock poisoned").resident)
            .unwrap_or(0)
    }

    /// High-water mark of [`Self::resident_bytes`] (0 when unbounded).
    pub fn peak_bytes(&self) -> usize {
        self.clock
            .as_ref()
            .map(|c| c.lock().expect("store clock lock poisoned").peak)
            .unwrap_or(0)
    }

    /// The configured byte budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.clock
            .as_ref()
            .map(|c| c.lock().expect("store clock lock poisoned").budget)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn mix_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

/// Content fingerprint of a pair. Record ids alone are not an identity:
/// the scaling experiments reuse ids 0/1 for pairs of different sizes, so
/// the fingerprint folds in every attribute value of both records.
pub fn pair_fingerprint(pair: &EntityPair) -> u64 {
    let mut h = FNV_OFFSET;
    for record in [pair.left(), pair.right()] {
        h = mix_u64(h, record.id);
        h = mix_u64(h, record.values().len() as u64);
        for value in record.values() {
            h = mix_u64(h, value.len() as u64);
            h = fnv1a(h, value.as_bytes());
        }
    }
    h
}

/// [`pair_fingerprint`] without the record ids: two pairs whose attribute
/// values agree byte-for-byte share this fingerprint even when the records
/// came from different collection rows. The streaming pipeline keys its
/// perturbation and explanation stores on it, so exact-duplicate listings
/// (ubiquitous in raw product feeds) pay for matcher queries once.
pub fn pair_content_fingerprint(pair: &EntityPair) -> u64 {
    let mut h = FNV_OFFSET;
    for record in [pair.left(), pair.right()] {
        h = mix_u64(h, record.values().len() as u64);
        for value in record.values() {
            h = mix_u64(h, value.len() as u64);
            h = fnv1a(h, value.as_bytes());
        }
    }
    h
}

/// Fingerprint of the CREW options that shape the clustering tail. The
/// perturbation options are deliberately excluded — the explain keys carry
/// the budget separately, and the perturbation sub-cache is shared by all
/// variants that only differ in tail options.
pub fn crew_options_fingerprint(o: &CrewOptions) -> u64 {
    let mut h = FNV_OFFSET;
    h = mix_u64(h, o.surrogate.kernel_width.to_bits());
    h = mix_u64(h, o.surrogate.lambda.to_bits());
    h = mix_u64(h, o.knowledge.semantic.to_bits());
    h = mix_u64(h, o.knowledge.attribute.to_bits());
    h = mix_u64(h, o.knowledge.importance.to_bits());
    h = mix_u64(
        h,
        match o.algorithm {
            ClusterAlgorithm::Agglomerative => 0,
            ClusterAlgorithm::KMedoids => 1,
        },
    );
    h = mix_u64(
        h,
        match o.linkage {
            Linkage::Single => 0,
            Linkage::Complete => 1,
            Linkage::Average => 2,
            Linkage::Ward => 3,
        },
    );
    h = mix_u64(h, o.max_clusters as u64);
    h = mix_u64(h, o.tau.to_bits());
    h = mix_u64(h, o.cannot_link_quantile.to_bits());
    // Semantic backend selection changes the distance matrix for large
    // vocabularies, so it is part of the cache identity (thread budget
    // excluded: output is thread-invariant by construction).
    h = mix_u64(
        h,
        match o.semantic.backend {
            em_embed::SemanticBackend::Exact => 0,
            em_embed::SemanticBackend::Auto => 1,
            em_embed::SemanticBackend::Ann => 2,
        },
    );
    h = mix_u64(h, o.semantic.neighbors as u64);
    h = mix_u64(h, o.semantic.auto_threshold as u64);
    h = mix_u64(h, o.semantic.ann.tables as u64);
    h = mix_u64(h, o.semantic.ann.bits as u64);
    h = mix_u64(h, o.semantic.ann.seed);
    h = mix_u64(h, o.semantic.ann.rerank as u64);
    h
}

/// Cache identity of a prepared context. Float knobs are keyed by their
/// bit patterns (`GeneratorConfig` carries `f64`s and derives neither `Eq`
/// nor `Hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextKey {
    family: Family,
    entities: usize,
    pairs: usize,
    match_rate_bits: u64,
    hard_negative_rate_bits: u64,
    seed: u64,
}

impl ContextKey {
    pub fn new(family: Family, config: &GeneratorConfig) -> Self {
        ContextKey {
            family,
            entities: config.entities,
            pairs: config.pairs,
            match_rate_bits: config.match_rate.to_bits(),
            hard_negative_rate_bits: config.hard_negative_rate.to_bits(),
            seed: config.seed,
        }
    }
}

/// Shared store of prepared evaluation contexts.
pub struct ContextStore {
    map: SlotMap<ContextKey, EvalContext>,
}

impl Default for ContextStore {
    fn default() -> Self {
        ContextStore::new()
    }
}

impl ContextStore {
    pub fn new() -> Self {
        // Contexts are never byte-budgeted: a handful exist per run and
        // every one is re-read by later experiments.
        ContextStore {
            map: SlotMap::new("context", |_| 0),
        }
    }

    /// Fetch (or prepare once) the context of `(family, config)`.
    pub fn get(
        &self,
        family: Family,
        config: GeneratorConfig,
    ) -> Result<Arc<EvalContext>, crate::EvalError> {
        let key = ContextKey::new(family, &config);
        self.map.get_or_compute(&key, || {
            // Root-anchored: which experiment pays a shared miss is
            // schedule-dependent, so nesting under the caller would make
            // the aggregated trace vary across `--jobs` values.
            let _span = em_obs::root_span!("store/context");
            EvalContext::prepare(family, config)
        })
    }

    pub fn stats(&self) -> StoreStats {
        self.map.stats()
    }
}

/// A CREW perturbation set together with its cold-computation wall-clock.
pub struct TimedSet {
    pub set: PerturbationSet,
    /// Seconds the first computation of this set took.
    pub elapsed: f64,
}

impl TimedSet {
    /// Accounting size under a store byte budget.
    pub fn approx_bytes(&self) -> usize {
        self.set.approx_bytes() + 16
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PerturbKey {
    context: ContextKey,
    matcher: MatcherKind,
    pair: u64,
    samples: usize,
    seed: u64,
    threads: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ExplainKey {
    context: ContextKey,
    matcher: MatcherKind,
    explainer: ExplainerKind,
    pair: u64,
    samples: usize,
    seed: u64,
    threads: usize,
    /// [`crew_options_fingerprint`] for CREW, 0 for every other kind
    /// (their options are fully determined by the budget).
    options: u64,
}

/// Byte budgets of a bounded [`ExplanationStore`], split per sub-store
/// (the perturbation sets and the finished explanations have very
/// different sizes, so one shared number would starve one of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBudget {
    pub explanation_bytes: usize,
    pub perturbation_bytes: usize,
}

impl StoreBudget {
    /// Split one total budget: perturbation sets dominate (masks ×
    /// samples), so they get three quarters of it.
    pub fn total(bytes: usize) -> Self {
        StoreBudget {
            explanation_bytes: bytes / 4,
            perturbation_bytes: bytes - bytes / 4,
        }
    }
}

/// Shared store of explanation outputs (plus the CREW perturbation-set
/// sub-cache).
pub struct ExplanationStore {
    explanations: SlotMap<ExplainKey, ExplanationOutput>,
    perturbations: SlotMap<PerturbKey, TimedSet>,
}

impl Default for ExplanationStore {
    fn default() -> Self {
        ExplanationStore::new()
    }
}

impl ExplanationStore {
    pub fn new() -> Self {
        ExplanationStore {
            explanations: SlotMap::new("explain", |o| o.approx_bytes()),
            perturbations: SlotMap::new("perturb_set", |t| t.approx_bytes()),
        }
    }

    /// A memory-bounded store: cached bytes never exceed the budget;
    /// entries evicted by the clock policy are recomputed (bitwise
    /// identically) if requested again.
    pub fn bounded(budget: StoreBudget) -> Self {
        ExplanationStore {
            explanations: SlotMap::bounded(
                "explain",
                |o| o.approx_bytes(),
                budget.explanation_bytes,
            ),
            perturbations: SlotMap::bounded(
                "perturb_set",
                |t| t.approx_bytes(),
                budget.perturbation_bytes,
            ),
        }
    }

    /// Explain `pair` with default CREW options (the common case).
    pub fn explain(
        &self,
        ctx: &Arc<EvalContext>,
        matcher: MatcherKind,
        kind: ExplainerKind,
        budget: ExplainBudget,
        pair: &EntityPair,
    ) -> Result<Arc<ExplanationOutput>, crate::EvalError> {
        self.explain_with_options(ctx, matcher, kind, budget, pair, &CrewOptions::default())
    }

    /// Explain `pair`, caching under the full key. Cached entries are
    /// bitwise identical to a fresh [`explain_pair_opts`] run; their
    /// `elapsed` is the recorded cold time (for CREW: perturbation-set
    /// cold time plus this variant's clustering tail).
    pub fn explain_with_options(
        &self,
        ctx: &Arc<EvalContext>,
        matcher: MatcherKind,
        kind: ExplainerKind,
        budget: ExplainBudget,
        pair: &EntityPair,
        options: &CrewOptions,
    ) -> Result<Arc<ExplanationOutput>, crate::EvalError> {
        self.explain_cached(ctx, matcher, kind, budget, pair, options, true)
    }

    /// [`ExplanationStore::explain_with_options`]; with `share_set`
    /// false, a CREW miss builds its perturbation set outside the
    /// perturbation sub-store and drops it once explained (same key,
    /// slot and bytes either way).
    #[allow(clippy::too_many_arguments)]
    fn explain_cached(
        &self,
        ctx: &Arc<EvalContext>,
        matcher: MatcherKind,
        kind: ExplainerKind,
        budget: ExplainBudget,
        pair: &EntityPair,
        options: &CrewOptions,
        share_set: bool,
    ) -> Result<Arc<ExplanationOutput>, crate::EvalError> {
        let context = ContextKey::new(ctx.family, &ctx.config);
        let key = ExplainKey {
            context,
            matcher,
            explainer: kind,
            pair: pair_fingerprint(pair),
            samples: budget.samples,
            seed: budget.seed,
            threads: budget.threads,
            options: if kind == ExplainerKind::Crew {
                crew_options_fingerprint(options)
            } else {
                0
            },
        };
        self.explanations.get_or_compute(&key, || {
            // Root-anchored for the same reason as `store/context`: the
            // payer of a shared miss is schedule-dependent. Stage spans
            // of the explainer run nest under this anchor.
            let _span = em_obs::root_span!("store/explain");
            if kind == ExplainerKind::Crew {
                let crew = build_crew(ctx, budget, options.clone());
                let tokenized = TokenizedPair::new(pair.clone());
                let timed = if share_set {
                    self.perturbation_set(ctx, matcher, budget, pair)?
                } else {
                    // Same span as a shared miss, so traces keep their shape.
                    let _span = em_obs::root_span!("store/perturb_set");
                    Arc::new(timed_set(ctx, matcher, &crew, &tokenized)?)
                };
                let t0 = Instant::now();
                let ce = crew.explain_clusters_with_set(&tokenized, &timed.set)?;
                Ok(crew_output(ce, timed.elapsed + t0.elapsed().as_secs_f64()))
            } else {
                let trained = ctx.matcher(matcher)?;
                explain_pair_opts(kind, ctx, budget, trained.as_ref(), pair, options)
            }
        })
    }

    /// Fetch (or compute once) the CREW perturbation set of
    /// `(context, matcher, budget, pair)` — the only stage that queries
    /// the matcher. Shared by every CREW variant on the same budget.
    pub fn perturbation_set(
        &self,
        ctx: &Arc<EvalContext>,
        matcher: MatcherKind,
        budget: ExplainBudget,
        pair: &EntityPair,
    ) -> Result<Arc<TimedSet>, crate::EvalError> {
        let key = PerturbKey {
            context: ContextKey::new(ctx.family, &ctx.config),
            matcher,
            pair: pair_fingerprint(pair),
            samples: budget.samples,
            seed: budget.seed,
            threads: budget.threads,
        };
        self.perturbations.get_or_compute(&key, || {
            let _span = em_obs::root_span!("store/perturb_set");
            let crew = build_crew(ctx, budget, CrewOptions::default());
            timed_set(ctx, matcher, &crew, &TokenizedPair::new(pair.clone()))
        })
    }

    pub fn stats(&self) -> StoreStats {
        self.explanations.stats()
    }

    pub fn perturbation_stats(&self) -> StoreStats {
        self.perturbations.stats()
    }

    /// Peak resident bytes across both budgeted sub-stores (0 when
    /// unbounded).
    pub fn peak_bytes(&self) -> usize {
        self.explanations.peak_bytes() + self.perturbations.peak_bytes()
    }
}

/// Build and time the CREW perturbation set of `tokenized`. Only the
/// budget-derived perturbation options of `crew` matter, so every CREW
/// variant on one budget builds the same set.
fn timed_set(
    ctx: &EvalContext,
    matcher: MatcherKind,
    crew: &crew_core::Crew,
    tokenized: &TokenizedPair,
) -> Result<TimedSet, crate::EvalError> {
    let trained = ctx.matcher(matcher)?;
    let t0 = Instant::now();
    let set = crew.perturbation_set(trained.as_ref(), tokenized)?;
    Ok(TimedSet {
        set,
        elapsed: t0.elapsed().as_secs_f64(),
    })
}

/// One evaluation session: the experiment configuration plus the shared
/// stores every runner draws from. All seventeen experiments take a
/// session, so a full `run_all` sweep prepares each context once and
/// explains each distinct (matcher, explainer, pair, budget) tuple once.
pub struct EvalSession {
    config: ExperimentConfig,
    contexts: ContextStore,
    explanations: ExplanationStore,
    /// Memo of the T3/T4 shared headline aggregation.
    pub(crate) headline: Slot<Vec<crate::experiments::tables::HeadlineRow>>,
}

impl EvalSession {
    pub fn new(config: ExperimentConfig) -> Self {
        EvalSession {
            config,
            contexts: ContextStore::new(),
            explanations: ExplanationStore::new(),
            headline: Slot::new(),
        }
    }

    /// A session whose explanation store is byte-budgeted (the context
    /// store stays unbounded — see [`ContextStore::new`]).
    pub fn with_budget(config: ExperimentConfig, budget: StoreBudget) -> Self {
        EvalSession {
            explanations: ExplanationStore::bounded(budget),
            ..EvalSession::new(config)
        }
    }

    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    pub fn contexts(&self) -> &ContextStore {
        &self.contexts
    }

    pub fn explanations(&self) -> &ExplanationStore {
        &self.explanations
    }

    /// The shared context of `family` under this session's configuration.
    pub fn context(&self, family: Family) -> Result<Arc<EvalContext>, crate::EvalError> {
        self.contexts.get(family, self.config.generator(family))
    }

    /// Explain `pair` with the session's configured matcher and budget.
    pub fn explain(
        &self,
        kind: ExplainerKind,
        ctx: &Arc<EvalContext>,
        pair: &EntityPair,
    ) -> Result<Arc<ExplanationOutput>, crate::EvalError> {
        self.explanations
            .explain(ctx, self.config.matcher, kind, self.config.budget(), pair)
    }

    /// Explain `pair` with an explicit matcher kind (model-zoo sweeps).
    pub fn explain_for(
        &self,
        matcher: MatcherKind,
        kind: ExplainerKind,
        ctx: &Arc<EvalContext>,
        pair: &EntityPair,
    ) -> Result<Arc<ExplanationOutput>, crate::EvalError> {
        self.explanations
            .explain(ctx, matcher, kind, self.config.budget(), pair)
    }

    /// [`EvalSession::explain_for`] without retaining a CREW perturbation
    /// set: the explanation is cached under the same key and
    /// single-flight slot, with the same bytes, but a CREW miss builds
    /// its set outside the perturbation sub-store, tokenizing the pair
    /// once, and drops it once explained. For callers that never ask for
    /// a second CREW configuration of a pair, such as a server answering
    /// repeats from the explanation store.
    pub fn explain_for_unshared_set(
        &self,
        matcher: MatcherKind,
        kind: ExplainerKind,
        ctx: &Arc<EvalContext>,
        pair: &EntityPair,
    ) -> Result<Arc<ExplanationOutput>, crate::EvalError> {
        self.explanations.explain_cached(
            ctx,
            matcher,
            kind,
            self.config.budget(),
            pair,
            &CrewOptions::default(),
            false,
        )
    }

    /// CREW with explicit options (ablations), on the session budget.
    pub fn explain_crew_with(
        &self,
        ctx: &Arc<EvalContext>,
        matcher: MatcherKind,
        pair: &EntityPair,
        options: &CrewOptions,
    ) -> Result<Arc<ExplanationOutput>, crate::EvalError> {
        self.explanations.explain_with_options(
            ctx,
            matcher,
            ExplainerKind::Crew,
            self.config.budget(),
            pair,
            options,
        )
    }

    /// The shared CREW perturbation set of `pair` on the session budget.
    pub fn perturbation_set(
        &self,
        ctx: &Arc<EvalContext>,
        matcher: MatcherKind,
        pair: &EntityPair,
    ) -> Result<Arc<TimedSet>, crate::EvalError> {
        self.explanations
            .perturbation_set(ctx, matcher, self.config.budget(), pair)
    }

    /// One-line hit/miss summary across all stores (logged by `run_all`).
    pub fn stats_summary(&self) -> String {
        format!(
            "store stats: contexts {}, explanations {}, perturbation sets {}",
            self.contexts.stats(),
            self.explanations.stats(),
            self.explanations.perturbation_stats(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explainers::explain_pair;

    fn session() -> EvalSession {
        EvalSession::new(ExperimentConfig::smoke())
    }

    #[test]
    fn context_store_reuses_instances() {
        let s = session();
        let a = s.context(Family::Restaurants).unwrap();
        let b = s.context(Family::Restaurants).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = s.contexts().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_generator_configs_get_distinct_contexts() {
        let s = session();
        let a = s.context(Family::Restaurants).unwrap();
        let mut other = s.config().generator(Family::Restaurants);
        other.seed ^= 1;
        let b = s.contexts().get(Family::Restaurants, other).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn explanation_store_hits_are_the_same_arc() {
        let s = session();
        let ctx = s.context(Family::Restaurants).unwrap();
        let pair = &ctx.pairs_to_explain(1)[0].pair;
        let a = s.explain(ExplainerKind::Lime, &ctx, pair).unwrap();
        let b = s.explain(ExplainerKind::Lime, &ctx, pair).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.elapsed, a.elapsed, "hits keep the recorded cold time");
    }

    #[test]
    fn stored_crew_explanation_matches_fresh_run() {
        let s = session();
        let ctx = s.context(Family::Restaurants).unwrap();
        let pair = &ctx.pairs_to_explain(1)[0].pair;
        let matcher = ctx.matcher(s.config().matcher).unwrap();
        let stored = s.explain(ExplainerKind::Crew, &ctx, pair).unwrap();
        let fresh = explain_pair(
            ExplainerKind::Crew,
            &ctx,
            s.config().budget(),
            matcher.as_ref(),
            pair,
        )
        .unwrap();
        assert_eq!(stored.word_level.weights, fresh.word_level.weights);
        assert_eq!(stored.cluster_info, fresh.cluster_info);
        let su: Vec<_> = stored.units.iter().map(|u| &u.member_indices).collect();
        let fu: Vec<_> = fresh.units.iter().map(|u| &u.member_indices).collect();
        assert_eq!(su, fu);
    }

    #[test]
    fn unshared_set_explains_are_cached_like_shared_ones() {
        let (shared, unshared) = (session(), session());
        let ctx = shared.context(Family::Restaurants).unwrap();
        let pair = &ctx.pairs_to_explain(1)[0].pair;
        let matcher = shared.config().matcher;
        let want = shared
            .explain_for(matcher, ExplainerKind::Crew, &ctx, pair)
            .unwrap();
        let got = unshared
            .explain_for_unshared_set(matcher, ExplainerKind::Crew, &ctx, pair)
            .unwrap();
        let bits = |o: &ExplanationOutput| -> Vec<u64> {
            let mut v: Vec<u64> = o.word_level.weights.iter().map(|w| w.to_bits()).collect();
            for u in &o.units {
                v.push(u.weight.to_bits());
                v.extend(u.member_indices.iter().map(|&m| m as u64));
            }
            v
        };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.cluster_info, want.cluster_info);
        // No set was kept, and the explanation sits under the shared key.
        assert_eq!(
            unshared.explanations().perturbation_stats(),
            StoreStats::default()
        );
        let again = unshared
            .explain_for(matcher, ExplainerKind::Crew, &ctx, pair)
            .unwrap();
        assert!(Arc::ptr_eq(&got, &again));
        let e = unshared.explanations().stats();
        assert_eq!((e.hits, e.misses), (1, 1));
    }

    #[test]
    fn crew_variants_share_one_perturbation_set() {
        let s = session();
        let ctx = s.context(Family::Restaurants).unwrap();
        let pair = &ctx.pairs_to_explain(1)[0].pair;
        let matcher = s.config().matcher;
        s.explain(ExplainerKind::Crew, &ctx, pair).unwrap();
        let ablated = CrewOptions {
            knowledge: crew_core::KnowledgeWeights::only_semantic(),
            ..Default::default()
        };
        s.explain_crew_with(&ctx, matcher, pair, &ablated).unwrap();
        let p = s.explanations().perturbation_stats();
        assert_eq!((p.hits, p.misses), (1, 1));
        let e = s.explanations().stats();
        assert_eq!((e.hits, e.misses), (0, 2), "distinct option fingerprints");
    }

    #[test]
    fn pair_fingerprint_distinguishes_content_not_just_ids() {
        let a = em_synth::scaling_pair(40, 7);
        let b = em_synth::scaling_pair(80, 7);
        assert_ne!(pair_fingerprint(&a), pair_fingerprint(&b));
        assert_eq!(pair_fingerprint(&a), pair_fingerprint(&a));
    }

    #[test]
    fn content_fingerprint_ignores_record_ids() {
        use em_data::{Record, Schema};
        let schema = Arc::new(Schema::new(vec!["title"]));
        let pair_a = EntityPair::new(
            Arc::clone(&schema),
            Record::new(1, vec!["sonix tv".into()]),
            Record::new(2, vec!["sonix television".into()]),
        )
        .unwrap();
        let pair_b = EntityPair::new(
            Arc::clone(&schema),
            Record::new(77, vec!["sonix tv".into()]),
            Record::new(99, vec!["sonix television".into()]),
        )
        .unwrap();
        assert_ne!(pair_fingerprint(&pair_a), pair_fingerprint(&pair_b));
        assert_eq!(
            pair_content_fingerprint(&pair_a),
            pair_content_fingerprint(&pair_b)
        );
        let different = EntityPair::new(
            schema,
            Record::new(1, vec!["sonix tv".into()]),
            Record::new(2, vec!["ashford kettle".into()]),
        )
        .unwrap();
        assert_ne!(
            pair_content_fingerprint(&pair_a),
            pair_content_fingerprint(&different)
        );
    }

    #[test]
    fn options_fingerprint_separates_variants() {
        let base = CrewOptions::default();
        let tweaked = CrewOptions {
            tau: 0.8,
            ..CrewOptions::default()
        };
        assert_ne!(
            crew_options_fingerprint(&base),
            crew_options_fingerprint(&tweaked)
        );
        // The perturbation options are not part of the fingerprint.
        let mut budget_only = CrewOptions::default();
        budget_only.perturb.samples = 9999;
        assert_eq!(
            crew_options_fingerprint(&base),
            crew_options_fingerprint(&budget_only)
        );
    }

    #[test]
    fn slot_map_respects_byte_budget_and_evicts_clockwise() {
        // Values of 100 "bytes" each under a 250-byte budget: at most two
        // fit; the third insert evicts the least-recently-touched.
        let map: SlotMap<u32, Vec<u8>> = SlotMap::bounded("unit_test", |v| v.len(), 250);
        let compute = |k: u32| move || Ok::<_, ()>(vec![k as u8; 100]);
        map.get_or_compute(&1, compute(1)).unwrap();
        map.get_or_compute(&2, compute(2)).unwrap();
        assert_eq!(map.resident_bytes(), 200);
        // Touch 1 so the clock grants it a second chance over 2.
        map.get_or_compute(&1, compute(1)).unwrap();
        map.get_or_compute(&3, compute(3)).unwrap();
        assert!(map.resident_bytes() <= 250);
        let stats = map.stats();
        assert_eq!(stats.evictions, 1);
        // Key 2 was the victim: asking again recomputes (a miss), while 1
        // is still a hit.
        let before = map.stats().misses;
        map.get_or_compute(&1, compute(1)).unwrap();
        assert_eq!(map.stats().misses, before);
        map.get_or_compute(&2, compute(2)).unwrap();
        assert_eq!(map.stats().misses, before + 1);
        assert!(map.peak_bytes() <= 250);
        assert_eq!(map.budget_bytes(), Some(250));
    }

    #[test]
    fn slot_map_never_retains_oversized_values() {
        let map: SlotMap<u32, Vec<u8>> = SlotMap::bounded("unit_test_big", |v| v.len(), 50);
        map.get_or_compute(&1, || Ok::<_, ()>(vec![0u8; 500]))
            .unwrap();
        assert_eq!(map.resident_bytes(), 0);
        assert_eq!(map.stats().evictions, 1);
        assert!(map.peak_bytes() <= 50);
        // The value is still served to the caller and a re-request
        // recomputes instead of hitting.
        map.get_or_compute(&1, || Ok::<_, ()>(vec![0u8; 500]))
            .unwrap();
        assert_eq!(map.stats().misses, 2);
    }

    #[test]
    fn unbounded_slot_map_reports_zero_budget_metrics() {
        let map: SlotMap<u32, Vec<u8>> = SlotMap::new("unit_unbounded", |v| v.len());
        map.get_or_compute(&1, || Ok::<_, ()>(vec![0u8; 500]))
            .unwrap();
        assert_eq!(map.resident_bytes(), 0);
        assert_eq!(map.peak_bytes(), 0);
        assert_eq!(map.budget_bytes(), None);
        assert_eq!(map.stats().evictions, 0);
    }
}
