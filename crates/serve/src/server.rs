//! The server proper: the accept loop, the per-connection handlers and
//! the routing layer. Each connection thread answers its own requests.
//!
//! Threading model:
//!
//! * **accept thread** — blocks in `TcpListener::accept`, spawns one
//!   handler thread per connection (capped at
//!   [`ServeOptions::max_connections`]), and joins them all on shutdown.
//! * **handler threads** — parse requests under a read timeout and byte
//!   caps ([`crate::http`]) and answer each one on the spot. A
//!   `/predict` or `/explain` is deduplicated (bucketed by pair
//!   fingerprint, shared only between equal pairs), then answered with
//!   one `predict_proba_batch` call, or with one `EvalSession` store pass
//!   whose explanations fan out over `em-pool`. A slow or malformed
//!   client costs its own thread a timeout, and a cold CREW run holds up
//!   only the requests that wait for its explanation.
//!
//! Requests share work through the session's stores: a repeated explain
//! is a store hit, and concurrent first explains of one pair wait for a
//! single computation in the store's single-flight slot. A panic in the
//! model answers its own request 500; the connection and the server
//! keep serving.
//!
//! Shutdown never drops an accepted request: stop flag → wake the accept
//! loop → join the handlers, each of which finishes its in-flight
//! request first.

use crate::http::{write_response, Connection, Limits, ParseError, Request};
use crate::json::{escape_json, num_json, parse_json, Json};
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service-level failure, answered as `{"error": …}` with its status.
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
    /// Backend failure or a panic in the model (500).
    Internal(String),
}

impl ServeError {
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound => 404,
            ServeError::MethodNotAllowed => 405,
            ServeError::Unprocessable(_) => 422,
            ServeError::Internal(_) => 500,
        }
    }

    pub fn message(&self) -> String {
        match self {
            ServeError::BadRequest(m) | ServeError::Unprocessable(m) | ServeError::Internal(m) => {
                m.clone()
            }
            ServeError::NotFound => "no such endpoint".to_string(),
            ServeError::MethodNotAllowed => "method not allowed".to_string(),
        }
    }
}

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
    /// `em-pool` fan-out width over the unique pairs of one `/explain`
    /// request, the connection thread included.
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
    stop: AtomicBool,
    /// `/predict` and `/explain` requests between parse and reply,
    /// reported as `in_flight` on `/stats`.
    in_flight: AtomicUsize,
    opts: ServeOptions,
}

/// Counts one request in [`Shared::in_flight`] while it lives; the
/// count drops on unwind too.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        InFlight(count)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle to a running server. Dropping it performs a graceful shutdown;
/// call [`shutdown`](ServerHandle::shutdown) to do it explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind and start the accept thread. The bound address (with the
    /// resolved port) is on the handle.
    pub fn start(state: Arc<ServeState>, opts: ServeOptions) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state,
            stop: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            opts,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
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
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept thread blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag and join the handlers.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
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
    // (or their read timeout).
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

fn route(shared: &Shared, req: &Request) -> Result<String, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Ok("{\"status\":\"ok\"}".to_string()),
        ("GET", "/stats") => Ok(stats_body(shared)),
        ("POST", path @ ("/predict" | "/explain")) => {
            let _in_flight = InFlight::enter(&shared.in_flight);
            let doc = parse_body(&req.body)?;
            let explainer = match path {
                "/explain" => Some(explainer_from(&doc)?),
                _ => None,
            };
            answer(shared, &doc, explainer)
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
        "{{\"matcher\":\"{}\",\"family\":\"{:?}\",\"explanations\":{},\"perturbation_sets\":{},\"in_flight\":{}}}",
        state.matcher_kind.label(),
        state.ctx.family,
        stats_json(state.session.explanations().stats()),
        stats_json(state.session.explanations().perturbation_stats()),
        shared.in_flight.load(Ordering::SeqCst),
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

/// Answer one `/predict` (no `explainer`) or `/explain` request on the
/// calling connection thread: dedup its pairs, do the model work once
/// per unique pair, and render the results in request order.
fn answer(
    shared: &Shared,
    doc: &Json,
    explainer: Option<ExplainerKind>,
) -> Result<String, ServeError> {
    let pairs = parse_pairs(shared, doc)?;
    em_obs::counter!("serve/batches", 1);
    let deduped = {
        let _span = em_obs::root_span!("serve/coalesce");
        coalesce(pairs, pair_fingerprint)
    };
    let state = &shared.state;
    let rendered: Vec<String> = match explainer {
        None => model_work(|| state.matcher.predict_proba_batch(&deduped.unique))?
            .into_iter()
            .map(|p| {
                format!(
                    "{{\"probability\":{},\"match\":{}}}",
                    num_json(p),
                    p >= state.threshold
                )
            })
            .collect(),
        Some(kind) => {
            model_work(|| explain_all(state, shared.opts.query_jobs, kind, &deduped.unique))??
                .iter()
                .map(|output| {
                    format!(
                        "{{\"explainer\":\"{}\",\"explanation\":{}}}",
                        output.kind.label(),
                        explanation_json(output, state)
                    )
                })
                .collect()
        }
    };
    let mut out = String::from("{\"results\":[");
    for (i, &slot) in deduped.slots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rendered[slot]);
    }
    out.push_str("]}");
    Ok(out)
}

/// Run a request's model work under the `serve/query` span. A panic in
/// it answers this request 500; the connection and the server keep
/// serving.
fn model_work<T>(work: impl FnOnce() -> T) -> Result<T, ServeError> {
    let _span = em_obs::root_span!("serve/query");
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        ServeError::Internal(format!("the model panicked: {what}"))
    })
}

/// Explain each unique pair, fanned out over the pool; results land in
/// index-keyed slots, so the fan-out order never shows. Repeats are
/// answered from the explanation store, whose single-flight slots also
/// make concurrent first requests for one pair share a computation. No
/// request asks for another CREW configuration of a pair, so a miss
/// drops its perturbation set once explained.
fn explain_all(
    state: &ServeState,
    query_jobs: usize,
    kind: ExplainerKind,
    pairs: &[EntityPair],
) -> Result<Vec<Arc<ExplanationOutput>>, ServeError> {
    let slots: Vec<OnceLock<Result<Arc<ExplanationOutput>, ServeError>>> =
        pairs.iter().map(|_| OnceLock::new()).collect();
    em_pool::global().run(pairs.len(), query_jobs, &|i| {
        let result = state
            .session
            .explain_for_unshared_set(state.matcher_kind, kind, &state.ctx, &pairs[i])
            .map_err(|e| ServeError::Internal(e.to_string()));
        let _ = slots[i].set(result);
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("the pool runs every index"))
        .collect()
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

fn parse_pairs(shared: &Shared, doc: &Json) -> Result<Vec<EntityPair>, ServeError> {
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

/// A request's pairs after dedup: the unique pairs in first-seen order,
/// and for each request position the index of its unique pair.
struct Deduped {
    unique: Vec<EntityPair>,
    slots: Vec<usize>,
}

/// Deduplicate a request's pairs. The fingerprint only buckets: a pair
/// shares a slot only with an equal pair, so two pairs whose
/// fingerprints collide get separate answers.
fn coalesce(pairs: Vec<EntityPair>, fingerprint: impl Fn(&EntityPair) -> u64) -> Deduped {
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::with_capacity(pairs.len());
    let mut unique: Vec<EntityPair> = Vec::with_capacity(pairs.len());
    let mut slots = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let bucket = buckets.entry(fingerprint(&pair)).or_default();
        let slot = match bucket.iter().copied().find(|&slot| unique[slot] == pair) {
            Some(slot) => slot,
            None => {
                unique.push(pair);
                bucket.push(unique.len() - 1);
                unique.len() - 1
            }
        };
        slots.push(slot);
    }
    // Always bump the counter (even by 0) so the trace schema check can
    // assert its presence on quiet runs.
    em_obs::counter!("serve/coalesced", (slots.len() - unique.len()) as u64);
    Deduped { unique, slots }
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
        // Every pair gets the same forced fingerprint, as two colliding
        // pairs would; only the true duplicates of a pair share its slot.
        let request = vec![b.clone(), a.clone(), b.clone(), a.clone(), b.clone()];
        let deduped = coalesce(request, |_| 0x5eed);
        assert_eq!(deduped.unique, vec![b, a]);
        assert_eq!(deduped.slots, vec![0, 1, 0, 1, 0]);
    }
}
