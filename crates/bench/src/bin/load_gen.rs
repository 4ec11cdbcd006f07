//! Closed-loop load generator for the online explanation service
//! (`em-serve`): starts the server in-process, drives it with N
//! concurrent keep-alive clients over a small shared pair pool (so
//! concurrent identical requests are guaranteed and the explanation
//! store has repeats to share), and emits `BENCH_serve[_smoke].json` with
//! p50/p99 latency and throughput rows.
//!
//! The run *fails* unless the session stores prove query sharing
//! (explanation/perturbation hits + coalesced misses > 0) — that is the
//! acceptance gate for cross-request sharing, checked in CI. Each
//! connection thread answers its own requests, so requests share work
//! only through the stores: hits, and single-flight waits on a
//! computation another request started.
//!
//! ```text
//! cargo run --release -p em-bench --bin load_gen               # full
//! cargo run --release -p em-bench --bin load_gen -- --smoke    # seconds
//! cargo run --release -p em-bench --bin load_gen -- --trace    # + spans
//! cargo run --release -p em-bench --bin load_gen -- --clients 16 --requests 200
//! ```

use em_rngs::{Rng, SeedableRng};
use em_serve::{parse_json, write_request, Connection, Limits, ServeOptions, ServeState, Server};
use em_synth::Family;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// `--flag N` or `--flag=N`, any position.
fn arg_usize(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            return args.get(i + 1).and_then(|v| v.parse().ok());
        }
        if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            return v.parse().ok();
        }
    }
    None
}

fn fail(msg: &str) -> ! {
    eprintln!("load_gen: {msg}");
    std::process::exit(1);
}

/// Render one request body from a pair's attribute values.
fn pair_body(pair: &em_data::EntityPair) -> String {
    let side = |record: &em_data::Record| {
        let values: Vec<String> = record
            .values()
            .iter()
            .map(|v| format!("\"{}\"", em_serve::escape_json(v)))
            .collect();
        format!("[{}]", values.join(","))
    };
    format!(
        "{{\"pairs\":[{{\"left\":{},\"right\":{}}}]}}",
        side(pair.left()),
        side(pair.right())
    )
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_ns[rank] as f64
}

fn main() {
    let (name, smoke) = em_bench::run_name("serve");
    let clients = arg_usize("--clients").unwrap_or(if smoke { 4 } else { 8 });
    let requests = arg_usize("--requests").unwrap_or(if smoke { 16 } else { 80 });
    let query_jobs = em_bench::jobs_from_args();
    // A small pair pool is the point: with more clients than distinct
    // pairs, concurrent identical requests are guaranteed, so the
    // stores have repeats and in-flight computations to share.
    let pool_size = arg_usize("--pairs").unwrap_or(if smoke { 2 } else { 4 });

    eprintln!(
        "load_gen: {clients} clients x {requests} requests over {pool_size} pairs \
         (query jobs {query_jobs})"
    );
    let state = ServeState::load(Family::Restaurants, em_eval::ExperimentConfig::smoke())
        .unwrap_or_else(|e| fail(&format!("state load failed: {e}")));
    let state = Arc::new(state);
    let bodies: Vec<String> = state
        .ctx
        .pairs_to_explain(pool_size)
        .iter()
        .map(|lp| pair_body(&lp.pair))
        .collect();
    if bodies.len() < pool_size {
        fail("test split smaller than the requested pair pool");
    }

    let traced = em_bench::trace_start();
    let mut server = Server::start(
        Arc::clone(&state),
        ServeOptions {
            query_jobs,
            read_timeout: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("server start failed: {e}")));
    let addr = server.addr();
    eprintln!("load_gen: serving on {addr}");

    // Closed-loop clients on a dedicated pool. NOT the global pool: the
    // server's connection threads fan explanation work out over
    // `em_pool::global()`, and clients parked in global workers while
    // blocking on their own replies would starve it.
    let results: Vec<OnceLock<(Vec<u64>, Vec<u64>)>> =
        (0..clients).map(|_| OnceLock::new()).collect();
    let client_pool = em_pool::WorkerPool::new(clients.saturating_sub(1));
    let t0 = Instant::now();
    client_pool.run(clients, clients, &|c| {
        let mut rng = em_rngs::rngs::StdRng::seed_from_u64(0xc11e ^ c as u64);
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| fail(&format!("client {c} connect failed: {e}")));
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let _ = stream.set_nodelay(true);
        let mut conn = Connection::new(stream);
        let mut predict_ns = Vec::new();
        let mut explain_ns = Vec::new();
        for r in 0..requests {
            let body = &bodies[rng.gen_range(0..bodies.len())];
            // Every third request asks for an explanation; the rest are
            // match predictions (the realistic traffic skew).
            let explain = r % 3 == 2;
            let path = if explain { "/explain" } else { "/predict" };
            let t = Instant::now();
            write_request(conn.stream_mut(), "POST", path, body.as_bytes())
                .unwrap_or_else(|e| fail(&format!("client {c} write failed: {e}")));
            let resp = conn
                .read_response(&Limits::default())
                .unwrap_or_else(|e| fail(&format!("client {c} read failed: {e}")));
            let ns = t.elapsed().as_nanos() as u64;
            if resp.status != 200 {
                fail(&format!(
                    "client {c} got {} on {path}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                ));
            }
            let doc = parse_json(std::str::from_utf8(&resp.body).unwrap_or(""))
                .unwrap_or_else(|e| fail(&format!("client {c} got invalid JSON: {e}")));
            match doc.get("results").and_then(em_serve::Json::as_array) {
                Some(items) if items.len() == 1 => {}
                _ => fail(&format!("client {c} got a malformed results array")),
            }
            if explain {
                explain_ns.push(ns);
            } else {
                predict_ns.push(ns);
            }
        }
        let _ = results[c].set((predict_ns, explain_ns));
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    server.shutdown();
    if traced {
        em_bench::trace_finish("serve");
    }

    // Deterministic aggregation: client-indexed slots, sorted merges.
    let mut predict_ns = Vec::new();
    let mut explain_ns = Vec::new();
    for slot in &results {
        let (p, e) = slot
            .get()
            .unwrap_or_else(|| fail("a client exited without reporting"));
        predict_ns.extend_from_slice(p);
        explain_ns.extend_from_slice(e);
    }
    predict_ns.sort_unstable();
    explain_ns.sort_unstable();
    let total_requests = predict_ns.len() + explain_ns.len();
    let requests_per_sec = total_requests as f64 / wall_secs.max(1e-9);
    eprintln!(
        "load_gen: {total_requests} requests in {wall_secs:.2}s ({requests_per_sec:.0} req/s); \
         predict p50 {:.2} ms p99 {:.2} ms; explain p50 {:.2} ms p99 {:.2} ms",
        percentile(&predict_ns, 50.0) / 1e6,
        percentile(&predict_ns, 99.0) / 1e6,
        percentile(&explain_ns, 50.0) / 1e6,
        percentile(&explain_ns, 99.0) / 1e6,
    );

    // The sharing proof: concurrent identical pairs must have shared
    // backend work through the session stores. A run that answered every
    // explain with a fresh computation is a regression, not a bench.
    let explain_stats = state.session.explanations().stats();
    let perturb_stats = state.session.explanations().perturbation_stats();
    em_bench::log_store_stats(
        "load_gen",
        &[
            ("explanations", explain_stats),
            ("perturbation sets", perturb_stats),
        ],
    );
    let shared_queries =
        explain_stats.hits + explain_stats.coalesced + perturb_stats.hits + perturb_stats.coalesced;
    if shared_queries == 0 {
        fail("no store hits or coalesced misses: concurrent identical pairs did not share queries");
    }
    eprintln!("load_gen: {shared_queries} shared matcher-query lookups (hits + coalesced)");

    let mut bench = em_bench::BenchReport::new(&name, smoke);
    let mut row = |id: &str, value: f64| {
        bench.results.push(em_bench::BenchResult {
            group: "serve".to_string(),
            id: id.to_string(),
            median_ns: value,
            samples: 1,
            iterations_per_sample: 1,
        });
    };
    row("predict_p50", percentile(&predict_ns, 50.0));
    row("predict_p99", percentile(&predict_ns, 99.0));
    row("explain_p50", percentile(&explain_ns, 50.0));
    row("explain_p99", percentile(&explain_ns, 99.0));
    // Inverse throughput so the CI gate's bigger-is-worse rule applies.
    row(
        "ns_per_request",
        wall_secs * 1e9 / total_requests.max(1) as f64,
    );
    row("requests_per_sec", requests_per_sec);
    row("shared_queries", shared_queries as f64);
    row("total", wall_secs * 1e9);
    match bench.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench JSON: {e}"),
    }
}
