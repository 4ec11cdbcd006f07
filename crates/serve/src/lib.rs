//! # em-serve
//!
//! The online explanation service: a zero-dependency HTTP/1.1 server
//! (std `TcpListener`, in-tree parser and JSON — same hermetic spirit as
//! `em-rngs`/`em-pool`/`em-obs`) that loads a trained matcher and
//! embeddings once and serves `POST /predict` and `POST /explain`.
//!
//! Each connection thread answers its own requests: a request's
//! duplicate pairs are merged, a `/predict` is one `predict_proba_batch`
//! call, and an `/explain` fans its pairs out over `em-pool` into the
//! `EvalSession` stores. Requests share work through those stores: a
//! repeat explain is a hit, and concurrent first explains of one pair
//! wait for a single computation. A panic in the model answers its own
//! request 500 and the server keeps serving. `em-obs` spans
//! (`serve/accept`, `serve/parse`, `serve/coalesce`, `serve/query`)
//! attribute per-request latency, and store-hit counters prove the
//! sharing. See DESIGN.md § Serving architecture.
//!
//! ## Protocol
//!
//! ```text
//! POST /predict  {"pairs":[{"left":["v1",...],"right":["w1",...]}]}
//!   -> {"results":[{"probability":0.93,"match":true}]}
//! POST /explain  {"pairs":[...],"explainer":"crew"}   // label optional
//!   -> {"results":[{"explainer":"crew","explanation":{...}}]}
//! GET  /health   -> {"status":"ok"}
//! GET  /stats    -> store hit/miss/coalesced counters, requests in flight
//! ```
//!
//! Attribute arrays must match the serving context's schema width.
//! Errors come back as `{"error":"..."}` with 400/404/405/408/413/422/
//! 500/503; a slow or malformed client is cut off by per-connection read
//! timeouts and byte caps without wedging the accept loop.

pub mod http;
pub mod json;
pub mod server;

pub use http::{
    reason, write_request, write_response, Connection, Limits, ParseError, Request, Response,
};
pub use json::{escape_json, num_json, parse_json, Json, JsonError};
pub use server::{explanation_json, ServeError, ServeOptions, ServeState, Server, ServerHandle};
