//! Minimal blocking client for the serving protocol (used by
//! `moma_load`, the smoke scripts and the end-to-end tests).

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::commands::Cmd;
use crate::frame::{read_frame, write_frame};
use crate::json::Json;

/// One connection to a `moma serve` instance.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7207`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Connect, retrying until `timeout` elapses — for scripts that
    /// race server startup.
    pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Send one request and read its response.
    pub fn call(&mut self, req: &Json) -> io::Result<Json> {
        write_frame(&mut self.stream, req.to_string().as_bytes())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let text = std::str::from_utf8(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// [`Client::call`], but a non-`ok` response becomes an `Err` with
    /// the server's error message.
    pub fn call_ok(&mut self, req: &Json) -> io::Result<Json> {
        let resp = self.call(req)?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(resp)
        } else {
            let msg = resp.str_field("error").unwrap_or("request failed");
            Err(io::Error::other(format!(
                "{msg} (request: {})",
                req.str_field("cmd").unwrap_or("?")
            )))
        }
    }

    /// Run a batch of query items (see [`crate::protocol::query_item`])
    /// in one frame, returning the per-item responses.
    pub fn batch_query(&mut self, items: Vec<Json>) -> io::Result<Vec<Json>> {
        self.batch_call(crate::protocol::batch_query_request(items))
    }

    /// Apply a batch of delta items (see [`crate::protocol::delta_item`])
    /// in one frame — the server logs them as one WAL group commit.
    pub fn batch_delta(&mut self, items: Vec<Json>) -> io::Result<Vec<Json>> {
        self.batch_call(crate::protocol::batch_delta_request(items))
    }

    /// Fetch the server's `stats`. Against a sharded server the
    /// response carries the merged aggregate view plus a per-shard
    /// breakdown under `"shards"` and the `shard_count` field.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.call_ok(&crate::protocol::bare_request(Cmd::Stats.name()))
    }

    /// Query a mapping's correspondences (`limit == 0` means all rows).
    /// A sharded server routes this to the shard owning the mapping and
    /// annotates the response with its `"shard"`.
    pub fn query(&mut self, name: &str, limit: u64, min_sim: Option<f64>) -> io::Result<Json> {
        self.call_ok(&crate::protocol::query_request(name, limit, min_sim))
    }

    fn batch_call(&mut self, req: Json) -> io::Result<Vec<Json>> {
        // Move the per-item results out of the envelope rather than
        // cloning them — batches exist to amortize per-op overhead.
        if let Some(Json::Arr(results)) = self.call_ok(&req)?.take_field("results") {
            return Ok(results);
        }
        Err(io::Error::other("batch response missing `results`"))
    }
}
