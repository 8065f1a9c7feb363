//! Blocking HTTP/1.1 client for the campaign server (std-only).
//!
//! The client keeps one connection alive across requests: a
//! `submit`/`status`/`stream` sequence re-uses the same TCP stream
//! instead of paying a fresh handshake per call. A request that finds
//! the cached connection stale (the server closed it while idle) is
//! retried once on a fresh connection before it could have been
//! processed; streamed bodies end with the server closing, so those
//! connections are not cached back.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;

use hh_sim::json::{self, Json};

/// A client bound to one server address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    /// Cached keep-alive connection; `None` until the first request or
    /// after a response that closed (or tainted) the stream.
    conn: Mutex<Option<BufReader<TcpStream>>>,
}

impl Clone for Client {
    /// Clones the address only; the clone opens its own connection.
    fn clone(&self) -> Self {
        Self::new(&self.addr)
    }
}

/// One decoded response.
#[derive(Debug)]
struct HttpResponse {
    status: u16,
    body: Vec<u8>,
}

impl Client {
    /// Creates a client for `addr` (`host:port`).
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            conn: Mutex::new(None),
        }
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, String> {
        self.request_to(method, path, body, None)
            .map_err(|e| format!("{method} {path} against {}: {e}", self.addr))
    }

    /// Sends one request over the cached keep-alive connection
    /// (connecting fresh when there is none); a streamed (chunked) body
    /// is copied to `tee` as it arrives when given, in addition to
    /// being collected.
    fn request_to(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        tee: Option<&mut dyn Write>,
    ) -> io::Result<HttpResponse> {
        let mut cached = self.conn.lock().expect("client connection poisoned").take();
        loop {
            let reused = cached.is_some();
            let mut reader = match cached.take() {
                Some(reader) => reader,
                None => BufReader::new(TcpStream::connect(&self.addr)?),
            };
            // Send and read the status line in one fallible step: a
            // stale cached connection fails here — before the server
            // can have processed anything — and is retried once fresh.
            let opened = send_request(&mut reader, &self.addr, method, path, body)
                .and_then(|()| read_crlf_line(&mut reader))
                .and_then(|line| {
                    if line.is_empty() {
                        // EOF on a dead connection reads as an empty line.
                        Err(bad("connection closed before status line"))
                    } else {
                        Ok(line)
                    }
                });
            match opened {
                Ok(status_line) => {
                    let (response, alive) = read_response(&mut reader, &status_line, tee)?;
                    if alive {
                        *self.conn.lock().expect("client connection poisoned") = Some(reader);
                    }
                    return Ok(response);
                }
                Err(_) if reused => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn expect_ok(&self, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
        let resp = self.request(method, path, body)?;
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        if (200..300).contains(&resp.status) {
            Ok(text)
        } else {
            Err(format!("{method} {path}: HTTP {}: {text}", resp.status))
        }
    }

    /// Submits a job-spec JSON document; returns the job id.
    ///
    /// # Errors
    ///
    /// Transport failures, non-2xx responses (the server's validation
    /// message is included), or an id-less response.
    pub fn submit(&self, spec_json: &str) -> Result<u64, String> {
        let body = self.expect_ok("POST", "/jobs", Some(spec_json))?;
        json::parse(&body)
            .map_err(|e| format!("submit response {body:?}: {e}"))?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("submit response without id: {body}"))
    }

    /// Fetches a job's status JSON.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx responses (404 for unknown jobs).
    pub fn status(&self, id: u64) -> Result<String, String> {
        self.expect_ok("GET", &format!("/jobs/{id}"), None)
    }

    /// Cancels a job; returns the server's response body.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx responses.
    pub fn cancel(&self, id: u64) -> Result<String, String> {
        self.expect_ok("DELETE", &format!("/jobs/{id}"), None)
    }

    /// Streams a job's NDJSON to `out` as chunks arrive, blocking until
    /// the job's stream ends.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx responses.
    pub fn stream(&self, id: u64, out: &mut impl Write) -> Result<(), String> {
        let path = format!("/jobs/{id}/stream");
        let resp = self
            .request_to("GET", &path, None, Some(out))
            .map_err(|e| format!("GET {path} against {}: {e}", self.addr))?;
        if (200..300).contains(&resp.status) {
            Ok(())
        } else {
            Err(format!(
                "GET {path}: HTTP {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ))
        }
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx responses.
    pub fn healthz(&self) -> Result<String, String> {
        self.expect_ok("GET", "/healthz", None)
    }

    /// `GET /metrics`.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx responses.
    pub fn metrics(&self) -> Result<String, String> {
        self.expect_ok("GET", "/metrics", None)
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures or non-2xx responses.
    pub fn shutdown(&self) -> Result<(), String> {
        self.expect_ok("POST", "/shutdown", None).map(|_| ())
    }
}

/// Writes one keep-alive request onto the cached stream.
fn send_request(
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    let stream = reader.get_mut();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

/// Reads the headers and body following an already-read status line.
/// Returns the response and whether the connection may be cached for
/// the next request — only when the body was fully framed by
/// `Content-Length` and the server did not announce `Connection:
/// close` (the server closes after chunked streams, so those are never
/// cached back).
fn read_response(
    reader: &mut BufReader<TcpStream>,
    status_line: &str,
    mut tee: Option<&mut dyn Write>,
) -> io::Result<(HttpResponse, bool)> {
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        let line = read_crlf_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }

    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_crlf_line(reader)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                // Consume the trailing CRLF after the last chunk.
                let _ = read_crlf_line(reader);
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            if let Some(tee) = tee.as_deref_mut() {
                tee.write_all(&chunk)?;
            }
            body.extend_from_slice(&chunk);
        }
    } else if let Some(len) = content_length {
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    let alive = !close && !chunked && content_length.is_some();
    Ok((HttpResponse { status, body }, alive))
}

fn read_crlf_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut raw = Vec::new();
    reader.read_until(b'\n', &mut raw)?;
    while matches!(raw.last(), Some(b'\n' | b'\r')) {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| bad("non-UTF-8 response line"))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}
