//! Service-level tests for `em-serve`: response equivalence with direct
//! `EvalSession` calls (the store≡fresh discipline of `eval_store.rs`
//! extended to the network boundary), backend sharing under concurrent
//! identical requests, requests on different connections that never wait
//! for each other, a panicking model, and clean error handling for
//! malformed, slow, and oversized clients over real sockets.

mod common;

use common::GatedMatcher;
use em_data::{EntityPair, Side};
use em_eval::{EvalSession, ExperimentConfig};
use em_matchers::Matcher;
use em_serve::{
    explanation_json, num_json, parse_json, write_request, Connection, Json, Limits, Response,
    ServeOptions, ServeState, Server, ServerHandle,
};
use em_synth::Family;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const FAMILY: Family = Family::Restaurants;

fn fresh_state() -> Arc<ServeState> {
    Arc::new(ServeState::load(FAMILY, ExperimentConfig::smoke()).expect("state load"))
}

/// One state shared by the tests that never touch the stores'
/// hit/miss counters (error handling, timeouts); tests that assert on
/// store stats build their own.
fn shared_state() -> Arc<ServeState> {
    static STATE: OnceLock<Arc<ServeState>> = OnceLock::new();
    Arc::clone(STATE.get_or_init(fresh_state))
}

fn start(state: Arc<ServeState>, opts: ServeOptions) -> ServerHandle {
    Server::start(state, opts).expect("server start")
}

/// A client connection whose reads give up after `timeout`.
fn connect(addr: SocketAddr, timeout: Duration) -> Connection<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(timeout)).unwrap();
    Connection::new(stream)
}

/// Send one request on `conn` and read its response.
fn send(conn: &mut Connection<TcpStream>, method: &str, path: &str, body: &str) -> Response {
    write_request(conn.stream_mut(), method, path, body.as_bytes()).expect("write");
    conn.read_response(&Limits::default()).expect("response")
}

/// Open a connection, send one request, read one response.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    send(
        &mut connect(addr, Duration::from_secs(30)),
        method,
        path,
        body,
    )
}

/// Render the explain request body of a pair.
fn explain_body(pair: &em_data::EntityPair) -> String {
    let side = |r: &em_data::Record| {
        let vals: Vec<String> = r
            .values()
            .iter()
            .map(|v| format!("\"{}\"", em_serve::escape_json(v)))
            .collect();
        format!("[{}]", vals.join(","))
    };
    format!(
        "{{\"pairs\":[{{\"left\":{},\"right\":{}}}]}}",
        side(pair.left()),
        side(pair.right())
    )
}

/// Responses from the server — N concurrent clients over one session —
/// must be bitwise identical to direct `EvalSession` calls for the same
/// pairs, and invariant to the explain fan-out width (`query_jobs` 1
/// vs 4).
#[test]
fn served_responses_equal_direct_session_calls_at_any_job_count() {
    let config = ExperimentConfig::smoke();
    let direct = EvalSession::new(config.clone());
    let ctx = direct.context(FAMILY).expect("context");
    let pairs: Vec<em_data::EntityPair> = ctx
        .pairs_to_explain(3)
        .into_iter()
        .map(|lp| lp.pair)
        .collect();
    let matcher = ctx.matcher(config.matcher).expect("matcher");

    let mut served: Vec<Vec<(String, String)>> = Vec::new();
    for query_jobs in [1usize, 4] {
        let state = fresh_state();
        let server = start(
            Arc::clone(&state),
            ServeOptions {
                query_jobs,
                ..ServeOptions::default()
            },
        );
        let addr = server.addr();
        // Concurrent clients: every pair explained and predicted at once.
        let mut results = vec![(String::new(), String::new()); pairs.len()];
        std::thread::scope(|scope| {
            for (slot, pair) in results.iter_mut().zip(&pairs) {
                scope.spawn(move || {
                    let body = explain_body(pair);
                    let explain = request(addr, "POST", "/explain", &body);
                    let predict = request(addr, "POST", "/predict", &body);
                    assert_eq!(
                        explain.status,
                        200,
                        "{}",
                        String::from_utf8_lossy(&explain.body)
                    );
                    assert_eq!(predict.status, 200);
                    *slot = (
                        String::from_utf8(explain.body).unwrap(),
                        String::from_utf8(predict.body).unwrap(),
                    );
                });
            }
        });
        served.push(results);
    }
    assert_eq!(
        served[0], served[1],
        "responses changed between query_jobs 1 and 4"
    );

    // Direct session calls rendered through the same serializers.
    let served_state = fresh_state();
    for (i, pair) in pairs.iter().enumerate() {
        let output = direct
            .explain_for(config.matcher, em_eval::ExplainerKind::Crew, &ctx, pair)
            .expect("direct explain");
        let expected_explain = format!(
            "{{\"results\":[{{\"explainer\":\"crew\",\"explanation\":{}}}]}}",
            explanation_json(&output, &served_state)
        );
        assert_eq!(served[0][i].0, expected_explain, "explain of pair {i}");

        let p = matcher.predict_proba(pair);
        let expected_predict = format!(
            "{{\"results\":[{{\"probability\":{},\"match\":{}}}]}}",
            num_json(p),
            p >= served_state.threshold
        );
        assert_eq!(served[0][i].1, expected_predict, "predict of pair {i}");
    }
}

/// Four concurrent clients asking for the same explanation must share
/// one backend computation — whether the sharing happens in one batch
/// (dedup) or in the explanation store, the store can only record ONE
/// miss for the four requests.
#[test]
fn concurrent_identical_explains_share_one_computation() {
    let state = fresh_state();
    let server = start(Arc::clone(&state), ServeOptions::default());
    let addr = server.addr();
    let pair = state.ctx.pairs_to_explain(1).remove(0).pair;
    let body = explain_body(&pair);

    let clients = 4;
    let mut bodies = vec![String::new(); clients];
    std::thread::scope(|scope| {
        for slot in bodies.iter_mut() {
            scope.spawn(|| {
                let resp = request(addr, "POST", "/explain", &body);
                assert_eq!(resp.status, 200);
                *slot = String::from_utf8(resp.body).unwrap();
            });
        }
    });
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "divergent replies");

    let explain_stats = state.session.explanations().stats();
    let perturb_stats = state.session.explanations().perturbation_stats();
    assert_eq!(
        explain_stats.misses, 1,
        "4 identical explains must cost exactly one explanation computation: {explain_stats:?}"
    );
    // The one set is built inside that miss and never retained.
    assert_eq!(
        perturb_stats,
        em_eval::StoreStats::default(),
        "a server must keep no perturbation set: {perturb_stats:?}"
    );
}

/// Protocol-level garbage and bad routes get clean 4xx answers and the
/// server stays fully responsive afterwards.
#[test]
fn malformed_clients_get_clean_errors_and_server_survives() {
    let state = shared_state();
    let server = start(Arc::clone(&state), ServeOptions::default());
    let addr = server.addr();
    let schema_width = state.ctx.dataset.schema().len();

    // Raw garbage on the wire -> 400 and close.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"NONSENSE!!\r\n\r\n").unwrap();
        let mut conn = Connection::new(stream);
        let resp = conn.read_response(&Limits::default()).expect("a response");
        assert_eq!(resp.status, 400);
        // The server closes after a parse error; the next read is EOF.
        assert!(conn.read_response(&Limits::default()).is_err());
    }

    // Declared body over the cap -> 413 before the body is even sent.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .unwrap();
        let resp = Connection::new(stream)
            .read_response(&Limits::default())
            .expect("a response");
        assert_eq!(resp.status, 413);
    }

    // Routing and body validation errors, all as JSON error objects.
    let wrong_width = format!(
        "{{\"pairs\":[{{\"left\":[{}],\"right\":[\"x\"]}}]}}",
        vec!["\"v\""; schema_width + 1].join(",")
    );
    for (method, path, body, want) in [
        ("GET", "/nope", "", 404),
        ("GET", "/predict", "", 405),
        ("POST", "/health", "", 405),
        ("POST", "/predict", "{not json", 400),
        ("POST", "/predict", "{\"pairs\":[]}", 400),
        ("POST", "/predict", "{\"pairs\":0}", 400),
        ("POST", "/explain", &wrong_width, 422),
        (
            "POST",
            "/explain",
            "{\"pairs\":[{\"left\":[\"a\"],\"right\":[\"b\"]}],\"explainer\":\"astrology\"}",
            422,
        ),
    ] {
        let resp = request(addr, method, path, body);
        assert_eq!(resp.status, want, "{method} {path} {body}");
        let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).expect("JSON error body");
        assert!(doc.get("error").is_some(), "error body missing 'error'");
    }

    // After all that abuse: still healthy.
    let resp = request(addr, "GET", "/health", "");
    assert_eq!(resp.status, 200);
    let stats = request(addr, "GET", "/stats", "");
    assert_eq!(stats.status, 200);
    let stats = parse_json(std::str::from_utf8(&stats.body).unwrap()).expect("stats JSON");
    // Nothing is in flight, the failed requests included.
    assert_eq!(stats.get("in_flight").and_then(Json::as_f64), Some(0.0));
}

/// Opens the gate when dropped, so a failing test still lets the
/// server's shutdown join the held request.
struct OpenOnDrop<'a>(&'a GatedMatcher);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A fresh-session state over the shared context that answers
/// `/predict` with `matcher`. CREW still queries the context's own
/// trained matcher.
fn state_with_matcher(matcher: Arc<dyn Matcher>) -> Arc<ServeState> {
    let loaded = shared_state();
    Arc::new(ServeState {
        session: EvalSession::new(ExperimentConfig::smoke()),
        ctx: Arc::clone(&loaded.ctx),
        matcher,
        matcher_kind: loaded.matcher_kind,
        threshold: loaded.threshold,
    })
}

/// A cold explain on one connection is answered while a predict on
/// another connection is still inside the matcher: each connection
/// thread does its own request's model work.
#[test]
fn an_explain_is_answered_while_another_connection_is_inside_the_matcher() {
    let (entered, entries) = channel();
    let gate = GatedMatcher::new(Arc::clone(&shared_state().matcher), entered);
    let state = state_with_matcher(Arc::clone(&gate) as Arc<dyn Matcher>);
    let pairs = state.ctx.pairs_to_explain(2);
    let server = start(Arc::clone(&state), ServeOptions::default());
    let _open_on_exit = OpenOnDrop(&gate);
    let addr = server.addr();

    let held = {
        let body = explain_body(&pairs[0].pair);
        std::thread::spawn(move || request(addr, "POST", "/predict", &body))
    };
    entries
        .recv_timeout(Duration::from_secs(30))
        .expect("the predict never reached the matcher");
    // Connection B: its read gives up rather than hang if the explain
    // waits for connection A's predict.
    let explain = send(
        &mut connect(addr, Duration::from_secs(10)),
        "POST",
        "/explain",
        &explain_body(&pairs[1].pair),
    );
    assert_eq!(
        explain.status,
        200,
        "{}",
        String::from_utf8_lossy(&explain.body)
    );
    assert_eq!(state.session.explanations().stats().misses, 1);

    gate.open();
    assert_eq!(held.join().expect("predict client").status, 200);
}

/// Marks the pairs on which [`PanickingMatcher`] panics.
const PANIC_MARKER: &str = "__panic__";

/// Panics on every batch holding a pair whose left record carries
/// [`PANIC_MARKER`]; otherwise defers to `inner`.
struct PanickingMatcher {
    inner: Arc<dyn Matcher>,
}

impl Matcher for PanickingMatcher {
    fn name(&self) -> &str {
        "panicking"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.predict_proba_batch(std::slice::from_ref(pair))[0]
    }

    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        let marked = |p: &EntityPair| p.left().values().iter().any(|v| v.contains(PANIC_MARKER));
        assert!(
            !pairs.iter().any(marked),
            "the model failed on a marked pair"
        );
        self.inner.predict_proba_batch(pairs)
    }
}

/// A panic in the model answers its own request 500 with an error
/// body; the same keep-alive connection and the server keep serving.
#[test]
fn a_panicking_model_answers_500_and_the_connection_keeps_serving() {
    let state = state_with_matcher(Arc::new(PanickingMatcher {
        inner: Arc::clone(&shared_state().matcher),
    }));
    let server = start(Arc::clone(&state), ServeOptions::default());
    let addr = server.addr();
    let pair = state.ctx.pairs_to_explain(1).remove(0).pair;
    let mut marked = pair.clone();
    let title = format!("{PANIC_MARKER} {}", pair.left().value(0));
    marked.record_mut(Side::Left).set_value(0, title);

    let mut conn = connect(addr, Duration::from_secs(10));
    let failed = send(&mut conn, "POST", "/predict", &explain_body(&marked));
    assert_eq!(failed.status, 500);
    let doc = parse_json(std::str::from_utf8(&failed.body).unwrap()).expect("JSON error body");
    assert!(doc.get("error").is_some(), "error body missing 'error'");

    let next = send(&mut conn, "POST", "/predict", &explain_body(&pair));
    assert_eq!(next.status, 200, "{}", String::from_utf8_lossy(&next.body));
    assert_eq!(send(&mut conn, "GET", "/health", "").status, 200);
    let stats = send(&mut conn, "GET", "/stats", "");
    let stats = parse_json(std::str::from_utf8(&stats.body).unwrap()).expect("stats JSON");
    assert_eq!(stats.get("in_flight").and_then(Json::as_f64), Some(0.0));
}

/// A client that stalls mid-request is timed out (408) without wedging
/// the accept loop; fresh clients are served immediately after.
#[test]
fn slow_clients_time_out_without_wedging_the_server() {
    let state = shared_state();
    let server = start(
        Arc::clone(&state),
        ServeOptions {
            read_timeout: Duration::from_millis(150),
            ..ServeOptions::default()
        },
    );
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Half a request, then silence: the server must cut us off.
    stream
        .write_all(b"POST /predict HTTP/1.1\r\nContent-")
        .unwrap();
    let resp = Connection::new(stream)
        .read_response(&Limits::default())
        .expect("timeout response");
    assert_eq!(resp.status, 408);

    // The stalled client never blocked anyone else.
    let resp = request(addr, "GET", "/health", "");
    assert_eq!(resp.status, 200);
}
