//! The server proper: accept loop, per-connection handlers, the routing
//! layer, and the dispatcher thread that drains the [`Coalescer`].
//!
//! Threading model (the worker/web split the ROADMAP cites):
//!
//! * **accept thread** — blocks in `TcpListener::accept`, spawns one
//!   handler thread per connection (capped at
//!   [`ServeOptions::max_connections`]), and joins them all on shutdown.
//! * **handler threads** — parse requests under a read timeout and
//!   byte caps ([`crate::http`]), translate bodies into [`Job`]s, and
//!   block on the reply channel. A slow or malformed client costs its
//!   own thread a timeout, never the accept loop or the dispatcher.
//! * **dispatcher thread** — the only caller into the matcher/stores.
//!   Each [`Coalescer::next_batch`] batch (whatever queued while the
//!   previous one ran) is deduplicated (bucketed by pair fingerprint,
//!   shared only between equal pairs) and answered with one
//!   `predict_proba_batch`, whose replies go out at once, plus one
//!   `EvalSession` store pass (explanations fan out over `em-pool`),
//!   then fanned back out to every coalesced duplicate.
//!
//! Shutdown never drops an accepted request: stop-flag → wake the accept
//! loop → join handlers (each finishes its in-flight request; the
//! dispatcher is still live so replies arrive) → drain the queue → join
//! the dispatcher (which flushes any leftovers first).

use crate::http::{write_response, Connection, Limits, ParseError, Request};
use crate::json::{escape_json, num_json, parse_json, Json};
use crate::queue::{Coalescer, Job, JobKind, Reply, ServeError};
use crew_core::report::{cluster_explanation_to_json, word_explanation_to_json};
use em_data::EntityPair;
use em_eval::{
    pair_fingerprint, EvalContext, EvalSession, ExperimentConfig, ExplainerKind, ExplanationOutput,
    MatcherKind,
};
use em_matchers::Matcher;
use em_synth::Family;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything loaded once at startup and shared by every request: the
/// prepared context (dataset, embeddings), the trained matcher, and the
/// memoized session stores that make cross-request sharing work.
pub struct ServeState {
    pub session: EvalSession,
    pub ctx: Arc<EvalContext>,
    pub matcher: Arc<dyn Matcher>,
    pub matcher_kind: MatcherKind,
    /// Probability cutoff reported as `"match"` in predict responses.
    pub threshold: f64,
}

impl ServeState {
    /// Load the serving state: prepare the context and train the
    /// configured matcher eagerly, so the first request pays no
    /// training latency.
    pub fn load(family: Family, config: ExperimentConfig) -> Result<Self, em_eval::EvalError> {
        let session = EvalSession::new(config);
        let matcher_kind = session.config().matcher;
        let ctx = session.context(family)?;
        let matcher = ctx.matcher(matcher_kind)?;
        Ok(ServeState {
            session,
            ctx,
            matcher,
            matcher_kind,
            threshold: 0.5,
        })
    }
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (tests, load_gen).
    pub addr: String,
    /// Maximum jobs answered in one batch pass.
    pub max_batch: usize,
    /// `em-pool` fan-out width for the explanation stage of a batch.
    pub query_jobs: usize,
    /// Per-connection read (and write) timeout: a stalled client is cut
    /// off after this long, and shutdown join latency is bounded by it.
    pub read_timeout: Duration,
    /// Parser byte caps.
    pub limits: Limits,
    /// Concurrent connections beyond this are answered 503 and closed.
    pub max_connections: usize,
    /// Pairs accepted in one request body.
    pub max_pairs_per_request: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 64,
            query_jobs: em_pool::default_threads(),
            read_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            max_connections: 64,
            max_pairs_per_request: 64,
        }
    }
}

struct Shared {
    state: Arc<ServeState>,
    queue: Coalescer,
    stop: AtomicBool,
    opts: ServeOptions,
}

/// Handle to a running server. Dropping it performs a graceful shutdown;
/// call [`shutdown`](ServerHandle::shutdown) to do it explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, start the dispatcher and then the accept thread, and return
    /// once both are running. The bound address (with the resolved port)
    /// is on the handle.
    ///
    /// A thread counts as running once it has allocated the buffer it
    /// reuses for its whole life. That first allocation binds the thread
    /// to a malloc arena, and glibc hands out the arenas of exited
    /// threads last-released-first. Starting the threads one at a time,
    /// in the reverse of the order shutdown joins them, gives a new
    /// dispatcher the arena its predecessor freed its explanations into.
    /// Left to race the connection threads for an arena, it could land
    /// in a different one after each restart, and every arena keeps the
    /// memory freed into it, so peak RSS would grow.
    pub fn start(state: Arc<ServeState>, opts: ServeOptions) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state,
            queue: Coalescer::new(opts.max_batch),
            stop: AtomicBool::new(false),
            opts,
        });

        let (ready, running) = channel();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let batch = Vec::with_capacity(shared.opts.max_batch);
                let _ = ready.send(());
                dispatch_loop(&shared, batch)
            })
        };
        if running.recv().is_err() {
            let _ = dispatcher.join();
            return Err(std::io::Error::other("dispatcher thread failed to start"));
        }
        let (ready, running) = channel();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let handlers = Vec::with_capacity(shared.opts.max_connections);
                let _ = ready.send(());
                accept_loop(&shared, listener, handlers)
            })
        };
        if running.recv().is_err() {
            let _ = accept.join();
            shared.queue.drain();
            let _ = dispatcher.join();
            return Err(std::io::Error::other("accept thread failed to start"));
        }

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolved port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hit/miss stats of the underlying session (for assertions and the
    /// load generator's sharing proof).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.shared.state
    }

    /// Graceful shutdown: every accepted request is answered before the
    /// threads exit. Idempotent. Join latency is bounded by
    /// [`ServeOptions::read_timeout`] (idle keep-alive connections must
    /// time out before their handler notices the stop flag).
    pub fn shutdown(&mut self) {
        if self.accept.is_none() && self.dispatcher.is_none() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept thread blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag and start joining handlers.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Handlers are gone, so nothing can submit anymore; flush what's
        // queued and let the dispatcher exit.
        self.shared.queue.drain();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, mut handlers: Vec<JoinHandle<()>>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The shutdown wake-up connection (or a late client): close
            // without reading.
            break;
        }
        let _span = em_obs::root_span!("serve/accept");
        em_obs::counter!("serve/connections", 1);
        handlers.retain(|h| !h.is_finished());
        if handlers.len() >= shared.opts.max_connections {
            em_obs::counter!("serve/rejected_over_capacity", 1);
            let mut stream = stream;
            let _ = write_response(
                &mut stream,
                503,
                "application/json",
                b"{\"error\":\"too many connections\"}",
                true,
            );
            continue;
        }
        let shared = Arc::clone(shared);
        handlers.push(std::thread::spawn(move || {
            handle_connection(&shared, stream)
        }));
    }
    // Handlers finish their in-flight request and exit on the stop flag
    // (or their read timeout); the dispatcher is still running, so every
    // submitted job gets its reply.
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut conn = Connection::new(stream);
    loop {
        let parsed = {
            let _span = em_obs::root_span!("serve/parse");
            conn.read_request(&shared.opts.limits)
        };
        match parsed {
            Ok(None) => break,
            Ok(Some(req)) => {
                em_obs::counter!("serve/requests", 1);
                let (status, body) = match route(shared, &req) {
                    Ok(body) => (200, body),
                    Err(e) => (e.status(), error_body(&e.message())),
                };
                let close = !req.keep_alive() || shared.stop.load(Ordering::SeqCst);
                if write_response(
                    conn.stream_mut(),
                    status,
                    "application/json",
                    body.as_bytes(),
                    close,
                )
                .is_err()
                    || close
                {
                    break;
                }
            }
            Err(e) => {
                let status = match e {
                    ParseError::Malformed(_) => Some(400),
                    ParseError::TooLarge(_) => Some(413),
                    ParseError::TimedOut => Some(408),
                    // Idle keep-alive timeout, peer vanished mid-message,
                    // transport error: nobody is listening — just close.
                    ParseError::TimedOutIdle | ParseError::Truncated | ParseError::Io(_) => None,
                };
                if let Some(status) = status {
                    em_obs::counter!("serve/bad_requests", 1);
                    let _ = write_response(
                        conn.stream_mut(),
                        status,
                        "application/json",
                        error_body(&e.to_string()).as_bytes(),
                        true,
                    );
                }
                break;
            }
        }
    }
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape_json(message))
}

fn route(shared: &Arc<Shared>, req: &Request) -> Result<String, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Ok("{\"status\":\"ok\"}".to_string()),
        ("GET", "/stats") => Ok(stats_body(shared)),
        ("POST", "/predict") => handle_batch(shared, &parse_body(&req.body)?, JobKind::Predict),
        ("POST", "/explain") => {
            let doc = parse_body(&req.body)?;
            let explainer = explainer_from(&doc)?;
            handle_batch(shared, &doc, JobKind::Explain(explainer))
        }
        ("GET" | "POST", "/predict" | "/explain" | "/health" | "/stats") => {
            Err(ServeError::MethodNotAllowed)
        }
        _ => Err(ServeError::NotFound),
    }
}

fn stats_body(shared: &Shared) -> String {
    let state = &shared.state;
    let stats_json = |s: em_eval::StoreStats| {
        format!(
            "{{\"hits\":{},\"misses\":{},\"coalesced\":{},\"evictions\":{}}}",
            s.hits, s.misses, s.coalesced, s.evictions
        )
    };
    format!(
        "{{\"matcher\":\"{}\",\"family\":\"{:?}\",\"explanations\":{},\"perturbation_sets\":{},\"queue_depth\":{}}}",
        state.matcher_kind.label(),
        state.ctx.family,
        stats_json(state.session.explanations().stats()),
        stats_json(state.session.explanations().perturbation_stats()),
        shared.queue.depth(),
    )
}

fn explainer_from(doc: &Json) -> Result<ExplainerKind, ServeError> {
    match doc.get("explainer") {
        None => Ok(ExplainerKind::Crew),
        Some(v) => {
            let label = v
                .as_str()
                .ok_or_else(|| ServeError::BadRequest("'explainer' must be a string".into()))?;
            ExplainerKind::all()
                .into_iter()
                .find(|k| k.label() == label)
                .ok_or_else(|| ServeError::Unprocessable(format!("unknown explainer '{label}'")))
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Json, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
    parse_json(text).map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))
}

/// Read the request's pairs, enqueue one job per pair, block for the
/// replies, and serialise the response in request order.
fn handle_batch(shared: &Arc<Shared>, doc: &Json, kind: JobKind) -> Result<String, ServeError> {
    let pairs = parse_pairs(shared, doc)?;
    let (tx, rx) = channel();
    let n = pairs.len();
    for (index, pair) in pairs.into_iter().enumerate() {
        let job = Job {
            kind,
            fingerprint: pair_fingerprint(&pair),
            pair,
            index,
            reply: tx.clone(),
        };
        if let Err(job) = shared.queue.submit(job) {
            let _ = job.reply.send((job.index, Err(ServeError::ShuttingDown)));
        }
    }
    drop(tx);

    let mut results: Vec<Option<Result<Reply, ServeError>>> = vec![None; n];
    for (index, result) in rx {
        results[index] = Some(result);
    }
    let mut out = String::from("{\"results\":[");
    for (i, slot) in results.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // A missing slot means the dispatcher died mid-batch — surface
        // it as a whole-request failure rather than a partial body.
        let reply =
            slot.ok_or_else(|| ServeError::Internal("dispatcher dropped a reply".into()))??;
        out.push_str(&reply_json(shared, &reply));
    }
    out.push_str("]}");
    Ok(out)
}

fn reply_json(shared: &Arc<Shared>, reply: &Reply) -> String {
    match reply {
        Reply::Probability(p) => format!(
            "{{\"probability\":{},\"match\":{}}}",
            num_json(*p),
            *p >= shared.state.threshold
        ),
        Reply::Explanation(output) => format!(
            "{{\"explainer\":\"{}\",\"explanation\":{}}}",
            output.kind.label(),
            explanation_json(output, &shared.state)
        ),
    }
}

/// Deterministic explanation payload via the shared `crew_core::report`
/// serializers. Deliberately excludes `elapsed` (the only
/// schedule-dependent field), so a served response is bitwise identical
/// to one rendered from a direct `EvalSession` call.
pub fn explanation_json(output: &ExplanationOutput, state: &ServeState) -> String {
    let schema = state.ctx.dataset.schema();
    match &output.cluster_explanation {
        Some(ce) => cluster_explanation_to_json(ce, schema),
        None => word_explanation_to_json(&output.word_level, schema),
    }
}

fn parse_pairs(shared: &Arc<Shared>, doc: &Json) -> Result<Vec<EntityPair>, ServeError> {
    let items = doc
        .get("pairs")
        .and_then(Json::as_array)
        .ok_or_else(|| ServeError::BadRequest("body must have a 'pairs' array".into()))?;
    if items.is_empty() {
        return Err(ServeError::BadRequest("'pairs' is empty".into()));
    }
    if items.len() > shared.opts.max_pairs_per_request {
        return Err(ServeError::Unprocessable(format!(
            "too many pairs in one request (max {})",
            shared.opts.max_pairs_per_request
        )));
    }
    let width = shared.state.ctx.dataset.schema().len();
    items
        .iter()
        .map(|item| {
            let side = |key: &str| -> Result<Vec<String>, ServeError> {
                let values = item
                    .get(key)
                    .and_then(Json::as_array)
                    .ok_or_else(|| ServeError::BadRequest(format!("pair missing '{key}' array")))?;
                if values.len() != width {
                    return Err(ServeError::Unprocessable(format!(
                        "'{key}' has {} values, schema has {width} attributes",
                        values.len()
                    )));
                }
                values
                    .iter()
                    .map(|v| {
                        v.as_str().map(str::to_string).ok_or_else(|| {
                            ServeError::BadRequest(format!("'{key}' values must be strings"))
                        })
                    })
                    .collect()
            };
            shared
                .state
                .ctx
                .pair_from_values(side("left")?, side("right")?)
                .map_err(|e| ServeError::Unprocessable(e.to_string()))
        })
        .collect()
}

/// The dispatcher: one batch at a time, dedup → one backend pass → fan
/// replies back out. `batch` is refilled in place for the thread's whole
/// life.
fn dispatch_loop(shared: &Arc<Shared>, mut batch: Vec<Job>) {
    while shared.queue.next_batch(&mut batch) {
        em_obs::counter!("serve/batches", 1);
        batch = run_batch(&shared.state, shared.opts.query_jobs, batch);
    }
}

/// Where one job's answer goes: its request's reply channel and its
/// position in that request.
struct Waiter {
    kind: JobKind,
    index: usize,
    reply: Sender<(usize, Result<Reply, ServeError>)>,
}

impl Waiter {
    fn send(&self, result: Result<Reply, ServeError>) {
        // A dead receiver (client hung up) is fine — drop the reply.
        let _ = self.reply.send((self.index, result));
    }
}

/// Work items of one batch after dedup: unique pairs in first-seen
/// order, plus each job's waiter and slot for the reply fan-out.
struct Deduped {
    jobs: Vec<(Waiter, usize)>,
    predict_pairs: Vec<EntityPair>,
    explain_work: Vec<(ExplainerKind, EntityPair)>,
    /// The batch's own buffer, emptied, for the dispatcher to refill.
    spent: Vec<Job>,
}

fn coalesce(mut batch: Vec<Job>) -> Deduped {
    // `(kind, fingerprint)` → the unique slots filed under it. The
    // fingerprint only buckets: a job shares a slot only with an equal
    // pair, so two pairs whose fingerprints collide get separate answers.
    let mut buckets: HashMap<(JobKind, u64), Vec<usize>> = HashMap::with_capacity(batch.len());
    let mut predict_pairs: Vec<EntityPair> = Vec::new();
    let mut explain_work: Vec<(ExplainerKind, EntityPair)> = Vec::new();
    let mut jobs = Vec::with_capacity(batch.len());
    let mut coalesced = 0usize;
    for Job {
        kind,
        pair,
        fingerprint,
        index,
        reply,
    } in batch.drain(..)
    {
        let bucket = buckets.entry((kind, fingerprint)).or_default();
        let shared = bucket.iter().copied().find(|&slot| match kind {
            JobKind::Predict => predict_pairs[slot] == pair,
            JobKind::Explain(_) => explain_work[slot].1 == pair,
        });
        let slot = match shared {
            Some(slot) => {
                coalesced += 1;
                slot
            }
            None => {
                let slot = match kind {
                    JobKind::Predict => {
                        predict_pairs.push(pair);
                        predict_pairs.len() - 1
                    }
                    JobKind::Explain(explainer) => {
                        explain_work.push((explainer, pair));
                        explain_work.len() - 1
                    }
                };
                bucket.push(slot);
                slot
            }
        };
        jobs.push((Waiter { kind, index, reply }, slot));
    }
    // Always bump the counter (even by 0) so the trace schema check can
    // assert its presence on quiet runs.
    em_obs::counter!("serve/coalesced", coalesced as u64);
    Deduped {
        jobs,
        predict_pairs,
        explain_work,
        spent: batch,
    }
}

/// Answer one batch and hand back its emptied buffer. Predict replies
/// go out as soon as `predict_proba_batch` returns, so a predict never
/// waits for a cold CREW run that shares its batch.
fn run_batch(state: &ServeState, query_jobs: usize, batch: Vec<Job>) -> Vec<Job> {
    let deduped = {
        let _span = em_obs::root_span!("serve/coalesce");
        coalesce(batch)
    };
    let explanations = {
        let _span = em_obs::root_span!("serve/query");
        if !deduped.predict_pairs.is_empty() {
            let probabilities = state.matcher.predict_proba_batch(&deduped.predict_pairs);
            for (waiter, slot) in &deduped.jobs {
                if waiter.kind == JobKind::Predict {
                    waiter.send(Ok(Reply::Probability(probabilities[*slot])));
                }
            }
        }
        // Explanations fan out over the pool; results land in
        // index-keyed slots so the fan-out order never shows. Repeats are
        // answered from the explanation store and no request asks for
        // another CREW configuration of a pair, so a miss drops its
        // perturbation set once explained.
        let n = deduped.explain_work.len();
        let slots: Vec<OnceLock<Result<Arc<ExplanationOutput>, ServeError>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        em_pool::global().run(n, query_jobs, &|i| {
            let (kind, pair) = &deduped.explain_work[i];
            let result = state
                .session
                .explain_for_unshared_set(state.matcher_kind, *kind, &state.ctx, pair)
                .map_err(|e| ServeError::Internal(e.to_string()));
            let _ = slots[i].set(result);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|| Err(ServeError::Internal("explain slot unfilled".into())))
            })
            .collect::<Vec<_>>()
    };

    for (waiter, slot) in &deduped.jobs {
        if let JobKind::Explain(_) = waiter.kind {
            waiter.send(explanations[*slot].clone().map(Reply::Explanation));
        }
    }
    deduped.spent
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Record, Schema};

    fn pair(schema: &Arc<Schema>, left: &str, right: &str) -> EntityPair {
        EntityPair::new(
            Arc::clone(schema),
            Record::new(0, vec![left.to_string()]),
            Record::new(1, vec![right.to_string()]),
        )
        .unwrap()
    }

    #[test]
    fn coalesce_shares_slots_only_between_equal_pairs() {
        let schema = Arc::new(Schema::new(vec!["title"]));
        let a = pair(&schema, "sonix tv 55", "sonix television 55");
        let b = pair(&schema, "veltron laptop", "koyama blender");
        let (reply, _rx) = channel();
        // Every job carries the same forced fingerprint, as two colliding
        // pairs would; only the true duplicates of `a` may share its slot.
        let jobs = [
            (JobKind::Predict, &a),
            (JobKind::Predict, &b),
            (JobKind::Predict, &a),
            (JobKind::Explain(ExplainerKind::Crew), &b),
            (JobKind::Explain(ExplainerKind::Crew), &a),
            (JobKind::Explain(ExplainerKind::Crew), &b),
        ];
        let batch = jobs
            .iter()
            .enumerate()
            .map(|(index, &(kind, p))| Job {
                kind,
                pair: p.clone(),
                fingerprint: 0x5eed,
                index,
                reply: reply.clone(),
            })
            .collect();
        let deduped = coalesce(batch);
        assert_eq!(deduped.predict_pairs, vec![a.clone(), b.clone()]);
        assert_eq!(
            deduped.explain_work,
            vec![(ExplainerKind::Crew, b), (ExplainerKind::Crew, a)]
        );
        let slots: Vec<(usize, usize)> = deduped
            .jobs
            .iter()
            .map(|(job, slot)| (job.index, *slot))
            .collect();
        assert_eq!(slots, vec![(0, 0), (1, 1), (2, 0), (3, 0), (4, 1), (5, 0)]);
    }

    #[test]
    fn run_batch_answers_predicts_before_the_explain_fan_out() {
        let state =
            ServeState::load(Family::Restaurants, ExperimentConfig::smoke()).expect("state load");
        let pair = state.ctx.pairs_to_explain(1).remove(0).pair;
        let (reply, replies) = channel();
        let batch = [JobKind::Explain(ExplainerKind::Crew), JobKind::Predict]
            .into_iter()
            .enumerate()
            .map(|(index, kind)| Job {
                kind,
                fingerprint: pair_fingerprint(&pair),
                pair: pair.clone(),
                index,
                reply: reply.clone(),
            })
            .collect();
        drop(reply);
        let spent = run_batch(&state, 1, batch);
        assert!(spent.is_empty());
        let order: Vec<usize> = replies
            .iter()
            .map(|(index, result)| {
                assert!(result.is_ok(), "job {index} failed");
                index
            })
            .collect();
        assert_eq!(order, vec![1, 0], "the predict must not wait for CREW");
    }
}
