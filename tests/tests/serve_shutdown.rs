//! Graceful-shutdown robustness for `em-serve`, with the `em-obs` span
//! tree as the witness. Lives in its own test binary because the obs
//! registry is process-global: enabling it here must not race the other
//! serve suites.
//!
//! The contract: `shutdown()` lets every in-flight request complete on
//! its connection thread (never drops an accepted request), and closes
//! the listener so the exact same address can be rebound immediately.
//! The collected trace must show the four serve roots (`serve/accept`,
//! `serve/parse`, `serve/coalesce`, `serve/query`) as well-formed
//! depth-0 spans with coherent counters.

mod common;

use common::GatedMatcher;
use em_data::EntityPair;
use em_eval::{EvalSession, ExperimentConfig};
use em_matchers::Matcher;
use em_serve::{
    parse_json, write_request, Connection, Json, Limits, Response, ServeOptions, ServeState, Server,
};
use em_synth::Family;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn predict_body(pair: &EntityPair) -> String {
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

fn connect(addr: SocketAddr) -> Connection<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    Connection::new(stream)
}

fn send(conn: &mut Connection<TcpStream>, method: &str, path: &str, body: &str) -> Response {
    write_request(conn.stream_mut(), method, path, body.as_bytes()).expect("write");
    conn.read_response(&Limits::default()).expect("response")
}

/// Ask the server again and again until `done` accepts its answer.
fn poll(
    conn: &mut Connection<TcpStream>,
    path: &str,
    what: &str,
    done: impl Fn(&Response) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done(&send(conn, "GET", path, "")) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn shutdown_answers_queued_requests_releases_the_port_and_leaves_a_clean_trace() {
    em_obs::set_enabled(true);
    em_obs::reset();

    let loaded = ServeState::load(Family::Restaurants, ExperimentConfig::smoke()).expect("load");
    let (entered, entries) = channel();
    let gate = GatedMatcher::new(Arc::clone(&loaded.matcher), entered);
    let state = Arc::new(ServeState {
        session: EvalSession::new(ExperimentConfig::smoke()),
        ctx: Arc::clone(&loaded.ctx),
        matcher: Arc::clone(&gate) as Arc<dyn Matcher>,
        matcher_kind: loaded.matcher_kind,
        threshold: loaded.threshold,
    });
    let bodies: Vec<String> = state
        .ctx
        .pairs_to_explain(2)
        .iter()
        .map(|lp| predict_body(&lp.pair))
        .collect();

    let mut server =
        Server::start(Arc::clone(&state), ServeOptions::default()).expect("server start");
    let addr = server.addr();
    // A keep-alive connection for watching the server's state.
    let mut probe = connect(addr);
    let client = |body: String| {
        std::thread::spawn(move || send(&mut connect(addr), "POST", "/predict", &body))
    };

    // Each predict enters the gated matcher on its own connection thread,
    // so both are held there at once.
    let first = client(bodies[0].clone());
    let second = client(bodies[1].clone());
    for which in ["first", "second"] {
        entries
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("the {which} predict never reached the matcher"));
    }
    let stats = send(&mut probe, "GET", "/stats", "");
    let doc = parse_json(std::str::from_utf8(&stats.body).unwrap()).expect("stats JSON");
    assert_eq!(doc.get("in_flight").and_then(Json::as_f64), Some(2.0));

    // Start shutdown with both requests in flight. Once the stop flag is
    // up the server announces `Connection: close`; only then does the
    // gate open.
    let stopping = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    poll(&mut probe, "/health", "shutdown to start", |resp| {
        resp.header("connection") == Some("close")
    });
    gate.open();

    for (what, handle) in [("first", first), ("second", second)] {
        let resp = handle.join().expect("client thread");
        assert_eq!(
            resp.status,
            200,
            "{what} request dropped during shutdown: {}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(!resp.body.is_empty(), "empty body for the {what} request");
    }
    let mut server = stopping.join().expect("shutdown thread");

    // Shutdown is idempotent.
    server.shutdown();

    // The listener is really closed: the exact same address rebinds.
    let reborn = Server::start(
        Arc::clone(&state),
        ServeOptions {
            addr: addr.to_string(),
            ..ServeOptions::default()
        },
    )
    .expect("rebinding the same address after shutdown must succeed");
    assert_eq!(reborn.addr(), addr);
    assert_eq!(send(&mut connect(addr), "GET", "/health", "").status, 200);
    drop(reborn); // Drop is a shutdown too.

    // The span tree: all four serve roots present, at depth 0, each
    // having fired at least once across the two server lifetimes.
    let report = em_obs::collect();
    em_obs::set_enabled(false);
    assert!(!report.is_empty(), "obs collected nothing");
    for root in [
        "serve/accept",
        "serve/parse",
        "serve/coalesce",
        "serve/query",
    ] {
        let span = report
            .span(root)
            .unwrap_or_else(|| panic!("span {root} missing from:\n{}", report.structure()));
        assert_eq!(span.depth, 0, "{root} is not a root span");
        assert!(span.count >= 1, "{root} never fired");
    }

    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    // Two predicts, the probe's polls and the reborn server's health check.
    assert!(counter("serve/requests").expect("serve/requests counter") >= 4);
    // One batch per predict request.
    assert_eq!(counter("serve/batches"), Some(2));
    assert!(counter("serve/connections").expect("serve/connections counter") >= 4);
    // Always published, even when nothing merged.
    assert!(
        counter("serve/coalesced").is_some(),
        "serve/coalesced counter missing"
    );
}
