//! What the two serve workloads share: a raw framed connection that
//! moves pre-encoded bytes, request classes, reply checks and the
//! in-process replay of recorded requests through the server's layers.

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use moma_datagen::Scenario;
use moma_model::LdsId;
use moma_server::frame::{read_frame, write_frame};
use moma_server::{Engine, Json};

use crate::measure::{Histogram, Tracer};

/// One connection that sends request bytes as they are and returns the
/// reply bytes as they came: the timed loops must not pay for building
/// or parsing JSON on the client side.
pub struct Wire {
    stream: TcpStream,
}

impl Wire {
    pub fn connect(addr: &str) -> io::Result<Wire> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        stream.set_nodelay(true)?;
        Ok(Wire { stream })
    }

    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Send a request built as JSON and parse the reply; for set-up and
    /// end-of-run bookkeeping, never inside a timed loop.
    pub fn call(&mut self, request: &Json) -> Json {
        let reply = self
            .round_trip(request.to_string().as_bytes())
            .expect("server answers");
        parse(&reply)
    }

    /// [`Wire::call`] for a request that must succeed.
    pub fn call_ok(&mut self, request: &Json) -> Json {
        let reply = self.call(request);
        assert!(is_ok(&reply), "request {request} failed: {reply}");
        reply
    }
}

pub fn parse(bytes: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(bytes).expect("replies are UTF-8")).expect("replies are JSON")
}

pub fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Every reply object leads with its `ok` member, so success can be
/// read off the first bytes without parsing the document.
pub fn ok_prefix(reply: &[u8]) -> bool {
    reply.starts_with(br#"{"ok":true"#)
}

pub fn lds_name(s: &Scenario, id: LdsId) -> String {
    s.registry.lds(id).name()
}

/// A request ready to send, with the class it is reported under.
pub struct Prepared {
    pub class: usize,
    pub bytes: Vec<u8>,
}

/// Per-layer times of replaying recorded requests in-process, per
/// request class: frame read → JSON parse → engine → JSON encode →
/// frame write.
pub struct ReplayStats {
    /// Whole in-process handling per request, per class.
    pub handled: Vec<Histogram>,
    /// Engine time alone, per class.
    pub engine: Vec<Histogram>,
    pub requests: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
}

/// Replay `requests` through the layers a served request crosses, with
/// a span around each. `execute` is the engine call (read or write
/// path). Replies are checked to be `ok`; returns the failures.
pub fn replay_requests(
    tr: &mut Tracer,
    classes: usize,
    requests: &[&Prepared],
    mut execute: impl FnMut(&Json) -> Json,
) -> (ReplayStats, u64) {
    let mut stats = ReplayStats {
        handled: vec![Histogram::new(); classes],
        engine: vec![Histogram::new(); classes],
        requests: requests.len() as u64,
        req_bytes: 0,
        resp_bytes: 0,
    };
    let mut failed = 0;
    let mut framed = Vec::new();
    let mut sink = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        framed.clear();
        write_frame(&mut framed, &req.bytes).expect("in-memory write");
        tr.set_op(i as u32);
        let t0 = Instant::now();
        let root = tr.begin("request");
        let payload = tr.span("frame.read", |_| {
            read_frame(&mut &framed[..])
                .expect("in-memory read")
                .expect("one frame")
        });
        let doc = tr.span("json.parse", |_| parse(&payload));
        let e0 = Instant::now();
        let reply = tr.span("engine", |_| execute(&doc));
        let engine_ns = e0.elapsed().as_nanos() as u64;
        let encoded = tr.span("json.encode", |_| reply.to_string());
        sink.clear();
        tr.span("frame.write", |_| {
            write_frame(&mut sink, encoded.as_bytes()).expect("in-memory write")
        });
        tr.end(root);
        stats.handled[req.class].record_ns(t0.elapsed().as_nanos() as u64);
        stats.engine[req.class].record_ns(engine_ns);
        stats.req_bytes += req.bytes.len() as u64;
        stats.resp_bytes += encoded.len() as u64;
        failed += u64::from(!is_ok(&reply));
    }
    (stats, failed)
}

/// Median parse time per byte over `documents`, nanoseconds — the JSON
/// layer's cost on the workload's own requests and replies.
pub fn json_ns_per_byte(documents: &[&[u8]]) -> f64 {
    let bytes: usize = documents.iter().map(|d| d.len()).sum();
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for d in documents {
                std::hint::black_box(parse(d));
            }
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    crate::measure::median(&runs) / bytes.max(1) as f64
}

/// An engine over the scenario's sources, at the benchmark's thread
/// count.
pub fn engine_over(s: &Scenario) -> Engine {
    Engine::new(s.registry.clone(), crate::common::par())
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_server::protocol;

    #[test]
    fn replay_crosses_every_layer_once_per_request() {
        let s = Scenario::small();
        let mut engine = engine_over(&s);
        let (d, g) = (lds_name(&s, s.ids.pub_dblp), lds_name(&s, s.ids.pub_gs));
        let primed = engine.execute(&protocol::match_request(
            "m", &d, &g, "title", "title", "trigram", 0.75,
        ));
        assert!(is_ok(&primed) && ok_prefix(primed.to_string().as_bytes()));
        let reqs: Vec<Prepared> = (1..=4)
            .map(|limit| Prepared {
                class: limit as usize % 2,
                bytes: protocol::query_request("m", limit, None)
                    .to_string()
                    .into_bytes(),
            })
            .collect();
        let refs: Vec<&Prepared> = reqs.iter().collect();
        let mut tr = Tracer::with_capacity(64);
        let (stats, failed) = replay_requests(&mut tr, 2, &refs, |r| engine.execute_read(r));
        assert_eq!((failed, stats.requests), (0, 4));
        assert_eq!(stats.handled[0].len() + stats.handled[1].len(), 4);
        assert_eq!(tr.spans().len(), 4 * 6);
        assert!(stats.resp_bytes > stats.req_bytes);
        let docs: Vec<&[u8]> = reqs.iter().map(|r| r.bytes.as_slice()).collect();
        assert!(json_ns_per_byte(&docs) > 0.0);
        assert!(!ok_prefix(br#"{"ok":false,"error":"x"}"#));
    }
}
