//! A keep-alive HTTP/1.1 client connection: requests are pre-serialized,
//! each is sent with one write, and the connection is reused until the
//! server answers `Connection: close`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest a single response may take before the run gives up on it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// From the first request byte written to the last response byte read.
    pub elapsed: Duration,
}

pub struct Connection {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

/// The bytes of one request with the given method, target and body.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

impl Connection {
    pub fn new(addr: &str) -> Self {
        Connection {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Sends one pre-serialized request and reads the whole response,
    /// opening a connection first when there is none to reuse.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, String> {
        let started = Instant::now();
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(&self.addr)
                    .map_err(|e| format!("connect {}: {e}", self.addr))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| format!("nodelay: {e}"))?;
                stream
                    .set_read_timeout(Some(RESPONSE_TIMEOUT))
                    .map_err(|e| format!("read timeout: {e}"))?;
                self.stream.insert(BufReader::new(stream))
            }
        };
        let result = exchange(stream, request);
        let (status, body, close) = match result {
            Ok(parts) => parts,
            Err(error) => {
                self.stream = None;
                return Err(error);
            }
        };
        let elapsed = started.elapsed();
        if close {
            self.stream = None;
        }
        Ok(Response {
            status,
            body,
            elapsed,
        })
    }
}

/// Writes `request`, then reads the status line, the headers and exactly
/// `Content-Length` body bytes. Returns the status, the body and whether
/// the server closes the connection after this response.
fn exchange(
    stream: &mut BufReader<TcpStream>,
    request: &[u8],
) -> Result<(u16, Vec<u8>, bool), String> {
    stream
        .get_mut()
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    let mut line = String::new();
    stream
        .read_line(&mut line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length = None;
    let mut close = false;
    loop {
        line.clear();
        let read = stream
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        if read == 0 {
            return Err("connection closed inside the response head".to_string());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut body = vec![0u8; length];
    stream
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok((status, body, close))
}
