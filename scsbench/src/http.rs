//! A keep-alive HTTP/1.1 client for `scs_service::Server`, just enough
//! to send `GET`s and read `Content-Length`-framed JSON replies.

use scs_service::QueryRequest;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// Sends one `GET` and returns the status code and body.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.write_all(head.as_bytes())?;
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("reply head is not UTF-8"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("reply has no status code"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::other("reply has no Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_end..head_end + len].to_vec())
            .map_err(|_| io::Error::other("reply body is not UTF-8"))?;
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

pub fn query_path(r: &QueryRequest) -> String {
    format!(
        "/query?q={}&alpha={}&beta={}&algo={}",
        r.q.0, r.alpha, r.beta, r.algo
    )
}

/// The fields of a `/query` reply the benchmark checks and times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub epoch: u64,
    pub cached: bool,
    pub n_upper: usize,
    pub n_lower: usize,
    pub edges: usize,
    pub min_weight: Option<f64>,
    pub service_us: u64,
    pub total_us: u64,
}

/// Parses a `/query` reply body; `None` if a field is missing.
pub fn parse_answer(body: &str) -> Option<Answer> {
    let field = |key: &str| -> Option<&str> {
        let pat = format!("\"{key}\":");
        let rest = &body[body.find(&pat)? + pat.len()..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    };
    let num = |key: &str| field(key)?.parse::<u64>().ok();
    Some(Answer {
        epoch: num("epoch")?,
        cached: field("cached")? == "true",
        n_upper: num("n_upper")? as usize,
        n_lower: num("n_lower")? as usize,
        edges: num("edges")? as usize,
        min_weight: match field("min_weight")? {
            "null" => None,
            w => Some(w.parse().ok()?),
        },
        service_us: num("service_us")?,
        total_us: num("total_us")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_query_reply() {
        let body = "{\"q\":7,\"alpha\":8,\"beta\":8,\"algo\":\"auto\",\"epoch\":0,\
                    \"cached\":true,\"coalesced\":false,\"n_upper\":12,\"n_lower\":30,\
                    \"edges\":411,\"min_weight\":0.8731,\"service_us\":3,\"total_us\":2150}\n";
        let a = parse_answer(body).unwrap();
        assert_eq!(
            a,
            Answer {
                epoch: 0,
                cached: true,
                n_upper: 12,
                n_lower: 30,
                edges: 411,
                min_weight: Some(0.8731),
                service_us: 3,
                total_us: 2150,
            }
        );
        assert!(parse_answer("{\"error\":\"x\"}").is_none());
    }
}
