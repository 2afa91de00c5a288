//! Open-loop HTTP load generator: one process, at most `nproc` threads,
//! one connection per thread at a time.
//!
//! Every request has a due time fixed before the phase starts. A thread
//! sends each request at its due time, or as soon as its previous
//! request has returned if that is later; latency is timed from the due
//! time, so a stall is charged to every request it delays, and the
//! lateness of each send is reported next to it. Request bodies are
//! rendered before the phase starts, so the generator does no JSON work
//! on the clock.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::Answer;

/// What a slot sends.
#[derive(Debug, Clone)]
pub enum Op {
    /// `POST /predict` with a pre-rendered body; `window` indexes the
    /// caller's window table.
    Predict {
        /// Window table index.
        window: usize,
        /// Rendered JSON body.
        body: String,
    },
    /// `POST /reload` with a pre-rendered body.
    Reload {
        /// Rendered JSON body.
        body: String,
    },
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Due time, measured from the phase start.
    pub due: Duration,
    /// What to send.
    pub op: Op,
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Whether the slot was a reload.
    pub reload: bool,
    /// Window table index (predicts only).
    pub window: usize,
    /// How the request ended.
    pub answer: Answer,
    /// Milliseconds from due time to the end of the round trip.
    pub latency_ms: f64,
    /// Milliseconds the send started after its due time.
    pub late_ms: f64,
    /// Seconds from the phase start to the end of the round trip.
    pub done_s: f64,
}

/// Threads (and connections) the machine allows the generator.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs one phase: `schedules[k]` is thread `k`'s slot list in due
/// order. Panics if more threads than `nproc` are asked for.
pub fn run(addr: SocketAddr, schedules: &[Vec<Slot>]) -> Vec<Sample> {
    let threads = schedules.len();
    assert!(
        threads >= 1 && threads <= nproc(),
        "load generator asked for {threads} threads/connections, nproc is {}",
        nproc()
    );
    let start = Instant::now();
    let mut out = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> =
            schedules.iter().map(|slots| s.spawn(move || run_thread(addr, start, slots))).collect();
        for h in handles {
            out.extend(h.join().expect("load generator thread panicked"));
        }
    });
    out
}

fn run_thread(addr: SocketAddr, start: Instant, slots: &[Slot]) -> Vec<Sample> {
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        let due = start + slot.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (reload, window, answer) = match &slot.op {
            Op::Predict { window, body } => (false, *window, predict(addr, body)),
            Op::Reload { body } => (true, 0, reload(addr, body)),
        };
        let done = Instant::now();
        out.push(Sample {
            reload,
            window,
            answer,
            latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            done_s: done.duration_since(start).as_secs_f64(),
        });
    }
    out
}

/// Renders a `/predict` body. `f32` `Display` is the shortest text that
/// parses back to the same bits.
pub fn predict_body(window: &[f32], tod: f32, deadline_ms: Option<u64>) -> String {
    let mut body = String::with_capacity(32 + window.len() * 9);
    body.push_str("{\"window\":[");
    for (i, v) in window.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&v.to_string());
    }
    body.push_str(&format!("],\"tod\":{tod}"));
    if let Some(ms) = deadline_ms {
        body.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    body.push('}');
    body
}

/// One `/predict` round trip.
pub fn predict(addr: SocketAddr, body: &str) -> Answer {
    match post(addr, "/predict", body) {
        Ok((code, resp)) => parse_predict(code, &resp),
        Err(e) => Answer::Transport(e.to_string()),
    }
}

/// One `/reload` round trip; `OK` carries no values.
pub fn reload(addr: SocketAddr, body: &str) -> Answer {
    match post(addr, "/reload", body) {
        Ok((200, _)) => Answer::Ok(Vec::new()),
        Ok((code, resp)) => Answer::Refused(format!("reload answered {code}: {resp}")),
        Err(e) => Answer::Transport(e.to_string()),
    }
}

/// Reads the serve status and prediction out of a `/predict` answer.
/// Prediction values are parsed as `f32` directly from their text, so
/// an answer compares bit for bit with an in-process one; `null`
/// (a non-finite value) becomes NaN.
pub fn parse_predict(code: u16, body: &str) -> Answer {
    let status = body
        .split_once("\"status\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(s, _)| s.to_string());
    match (code, status.as_deref()) {
        (200, Some("OK")) => {
            let Some((_, rest)) = body.split_once("\"prediction\":[") else {
                return Answer::Transport("OK answer without a prediction".into());
            };
            let Some((list, _)) = rest.split_once(']') else {
                return Answer::Transport("unterminated prediction".into());
            };
            let values: Result<Vec<f32>, _> = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| if s == "null" { Ok(f32::NAN) } else { s.parse::<f32>() })
                .collect();
            match values {
                Ok(v) => Answer::Ok(v),
                Err(e) => Answer::Transport(format!("bad prediction value: {e}")),
            }
        }
        (_, Some(s)) => Answer::Refused(s.to_string()),
        (_, None) => Answer::Refused(format!("HTTP {code}")),
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let raw = String::from_utf8_lossy(&raw);
    let (head, body) =
        raw.split_once("\r\n\r\n").ok_or_else(|| std::io::Error::other("malformed HTTP answer"))?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    Ok((code, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_answers_parse_bit_exactly() {
        let vals = [0.1f32, -3.25, 55.123_456, 1e-7];
        let body = format!(
            "{{\"status\":\"OK\",\"prediction\":[{}]}}",
            vals.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",")
        );
        let Answer::Ok(got) = parse_predict(200, &body) else { panic!("not OK") };
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(parse_predict(503, "{\"status\":\"SHED\"}"), Answer::Refused("SHED".into()));
        assert_eq!(
            parse_predict(200, "{\"status\":\"DEGRADED\",\"prediction\":[1]}"),
            Answer::Refused("DEGRADED".into())
        );
        let Answer::Ok(nan) = parse_predict(200, "{\"status\":\"OK\",\"prediction\":[1,null]}")
        else {
            panic!("not OK")
        };
        assert!(nan[1].is_nan());
    }

    #[test]
    fn predict_body_round_trips_values() {
        let body = predict_body(&[1.5, 2.0], 0.25, Some(40));
        assert_eq!(body, "{\"window\":[1.5,2],\"tod\":0.25,\"deadline_ms\":40}");
    }

    #[test]
    #[should_panic(expected = "threads/connections")]
    fn refuses_more_threads_than_cores() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let schedules = vec![Vec::new(); nproc() + 1];
        run(addr, &schedules);
    }
}
