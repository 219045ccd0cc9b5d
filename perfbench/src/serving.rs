//! The client side of the traced pass's serve part: a blocking HTTP/1.1
//! client of the harness's own (so only the server side is the program under test),
//! a `/metrics` reader, and the closed loop that drives `/analyze`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One `Connection: close` request; returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let raw = String::from_utf8_lossy(&raw);
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, body.to_string()))
}

/// The unsigned integer value of `"key":N` in a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Counters read from `GET /metrics`.
pub struct Scrape {
    pub queue_wait_sum_ns: u64,
    pub queue_wait_count: u64,
    pub sheds: u64,
}

pub fn scrape(addr: SocketAddr) -> Scrape {
    let (status, text) = request(addr, "GET", "/metrics", "").expect("GET /metrics");
    assert_eq!(status, 200, "GET /metrics answered {status}");
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or_else(|| panic!("/metrics has no {name}"))
    };
    Scrape {
        queue_wait_sum_ns: value("metadis_queue_wait_ns_sum"),
        queue_wait_count: value("metadis_queue_wait_ns_count"),
        sheds: value("metadis_requests_shed_total"),
    }
}

/// One `/analyze` exchange as the client saw it.
pub struct Reply {
    pub latency_ms: f64,
    /// The server's pipeline wall time for the request (`wall_ns`).
    pub analysis_ms: f64,
    /// HTTP 200, no degradations, and the instruction count the
    /// in-process analysis of the same file produced.
    pub ok: bool,
}

/// Ask the server to analyze input `i` and check the answer against
/// `expected[i]`, the in-process instruction count.
fn analyze(addr: SocketAddr, paths: &[String], expected: &[u64], i: usize) -> Reply {
    let sent = Instant::now();
    let answer = request(addr, "POST", "/analyze", &paths[i]);
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    let (ok, analysis_ms) = match answer {
        Ok((200, body)) => (
            json_u64(&body, "instructions") == Some(expected[i])
                && json_u64(&body, "degradations") == Some(0),
            json_u64(&body, "wall_ns").unwrap_or(0) as f64 / 1e6,
        ),
        _ => (false, 0.0),
    };
    Reply {
        latency_ms,
        analysis_ms,
        ok,
    }
}

/// Closed loop from one connection: send the next input of `order`, round
/// after round, as soon as the previous reply arrived, until `duration` has
/// passed. Replies come back in arrival order.
pub fn closed_loop(
    addr: SocketAddr,
    paths: &[String],
    expected: &[u64],
    order: &[usize],
    duration: Duration,
) -> Vec<Reply> {
    let start = Instant::now();
    let mut replies = Vec::new();
    while start.elapsed() < duration {
        let i = order[replies.len() % order.len()];
        replies.push(analyze(addr, paths, expected, i));
    }
    replies
}
