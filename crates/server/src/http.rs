//! Hand-rolled HTTP/1.1 message layer (std-only).
//!
//! Modeled on firecracker's `micro_http`: a blocking request reader
//! over `BufRead` with hard size limits, a plain response writer, and a
//! chunked-transfer writer for the NDJSON streaming endpoint. Only the
//! slice of HTTP/1.1 the campaign server needs is implemented — GET /
//! POST / DELETE, `Content-Length` bodies, keep-alive connections, and
//! `Transfer-Encoding: chunked` responses.

use std::io::{self, BufRead, Read, Write};

use hh_sim::json::quote;

/// Upper bound on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a request body (job specs are a few hundred bytes).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Request methods the server routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// Request target as sent (path only; no scheme/authority support).
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// Clean end of stream before a request line: the peer closed an
    /// idle keep-alive connection. Not an error worth responding to.
    Eof,
    /// Malformed request — respond `400` with the message.
    BadRequest(String),
    /// A `POST`/`DELETE` with a body but no `Content-Length` — `411`.
    LengthRequired,
    /// Head or body over the hard limits — respond `431`/`413`.
    TooLarge(String),
    /// The transport failed mid-request.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Eof => write!(f, "connection closed"),
            ParseError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ParseError::LengthRequired => write!(f, "Content-Length required"),
            ParseError::TooLarge(msg) => write!(f, "request too large: {msg}"),
            ParseError::Io(e) => write!(f, "request I/O: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Reads one `\r\n`-terminated line, charging its bytes against
/// `budget`. Returns the line without the terminator.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, ParseError> {
    let mut raw = Vec::new();
    // Read byte-wise up to the budget so a header flood cannot buffer
    // unbounded memory before we notice it is over the limit.
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if raw.is_empty() {
                    return Err(ParseError::Eof);
                }
                return Err(ParseError::BadRequest("truncated line".to_string()));
            }
            Ok(_) => {}
            Err(e) => return Err(ParseError::Io(e)),
        }
        if *budget == 0 {
            return Err(ParseError::TooLarge(format!(
                "request head over {MAX_HEAD_BYTES} bytes"
            )));
        }
        *budget -= 1;
        if byte[0] == b'\n' {
            break;
        }
        raw.push(byte[0]);
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| ParseError::BadRequest("non-UTF-8 header".to_string()))
}

/// Reads and parses one request, enforcing [`MAX_HEAD_BYTES`] /
/// [`MAX_BODY_BYTES`].
///
/// # Errors
///
/// [`ParseError::Eof`] on a cleanly closed idle connection; the other
/// variants map to `4xx` responses.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut budget)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(ParseError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "DELETE" => Method::Delete,
        other => {
            return Err(ParseError::BadRequest(format!(
                "unsupported method {other}"
            )))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(ParseError::BadRequest(format!(
                "unsupported version {other}"
            )))
        }
    };

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget) {
            Ok(line) => line,
            Err(ParseError::Eof) => {
                return Err(ParseError::BadRequest("truncated headers".to_string()))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::BadRequest(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => Some(
            v.parse::<usize>()
                .map_err(|_| ParseError::BadRequest(format!("unparseable Content-Length {v:?}")))?,
        ),
        None => None,
    };
    let body = match content_length {
        Some(len) if len > MAX_BODY_BYTES => {
            return Err(ParseError::TooLarge(format!(
                "body of {len} bytes over the {MAX_BODY_BYTES}-byte limit"
            )))
        }
        Some(len) => {
            // Grow with the bytes that actually arrive: a lying
            // Content-Length must not reserve memory the peer never sends.
            let mut body = Vec::new();
            reader
                .take(len as u64)
                .read_to_end(&mut body)
                .map_err(ParseError::Io)?;
            if body.len() < len {
                return Err(ParseError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            body
        }
        // A POST that wants to carry a body must declare its length;
        // bodyless POSTs (e.g. /shutdown) are fine.
        None if method == Method::Post => Vec::new(),
        None => Vec::new(),
    };

    let keep_alive = match headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
    {
        Some(v) if v == "close" => false,
        Some(v) if v == "keep-alive" => true,
        _ => http11,
    };

    Ok(Request {
        method,
        path: path.to_string(),
        headers,
        body,
        keep_alive,
    })
}

/// Reason phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// A complete (non-chunked) response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (the server speaks JSON throughout).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// Writes status line, headers and body.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Maps a [`ParseError`] to the `4xx` response it deserves (`None` for
/// [`ParseError::Eof`]/[`ParseError::Io`], which get no response).
pub fn error_response(err: &ParseError) -> Option<Response> {
    let (status, msg) = match err {
        ParseError::Eof | ParseError::Io(_) => return None,
        ParseError::BadRequest(msg) => (400, msg.clone()),
        ParseError::LengthRequired => (411, "Content-Length required".to_string()),
        ParseError::TooLarge(msg) => {
            let status = if msg.contains("head") { 431 } else { 413 };
            (status, msg.clone())
        }
    };
    Some(Response::json(
        status,
        format!("{{\"error\": {}}}", quote(&msg)),
    ))
}

/// Writer for a `Transfer-Encoding: chunked` response body.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    inner: W,
    finished: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the body writer. Chunked
    /// responses always close the connection when done: the streaming
    /// endpoint is a terminal request.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn start(mut inner: W, status: u16, content_type: &str) -> io::Result<Self> {
        write!(
            inner,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
            content_type,
        )?;
        inner.flush()?;
        Ok(Self {
            inner,
            finished: false,
        })
    }

    /// Sends one chunk (empty input sends nothing — an empty chunk
    /// would terminate the stream).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.inner, "{:x}\r\n", data.len())?;
        self.inner.write_all(data)?;
        self.inner.write_all(b"\r\n")?;
        self.inner.flush()
    }

    /// Sends the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sim::check;
    use std::io::{BufReader, Cursor};

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse(b"GET /jobs/7 HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/jobs/7");
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{\"a\": 1}\n");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /jobs\r\n\r\n",
            b"GET /jobs HTTP/1.1 extra\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
            b"PATCH /jobs HTTP/1.1\r\n\r\n",
            b"GET /jobs HTTP/2\r\n\r\n",
        ] {
            let err = parse(raw).expect_err("must reject");
            assert!(
                matches!(err, ParseError::BadRequest(_)),
                "{raw:?} gave {err:?}"
            );
            let resp = error_response(&err).expect("400 response");
            assert_eq!(resp.status, 400);
        }
    }

    #[test]
    fn rejects_bad_content_length_and_headers() {
        let err = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: many\r\n\r\n").unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "got {err:?}");
        let err = parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)), "got {err:?}");
        // Missing Content-Length on a bodyless POST is fine.
        let req = parse(b"POST /shutdown HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn enforces_size_limits() {
        // Oversized head: one huge header.
        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
        raw.extend_from_slice(b"\r\n\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, ParseError::TooLarge(_)), "got {err:?}");
        assert_eq!(error_response(&err).unwrap().status, 431);

        // Oversized body: declared length over the limit, body not sent.
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::TooLarge(_)), "got {err:?}");
        assert_eq!(error_response(&err).unwrap().status, 413);
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let err = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, ParseError::Io(_)), "got {err:?}");
        assert!(error_response(&err).is_none());
    }

    #[test]
    fn keep_alive_connection_serves_sequential_requests() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n\
                    POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}\
                    GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let first = read_request(&mut reader).unwrap();
        assert_eq!(
            (first.method, first.path.as_str()),
            (Method::Get, "/healthz")
        );
        assert!(first.keep_alive);
        let second = read_request(&mut reader).unwrap();
        assert_eq!(second.method, Method::Post);
        assert_eq!(second.body, b"{}");
        assert!(second.keep_alive);
        let third = read_request(&mut reader).unwrap();
        assert_eq!(third.path, "/metrics");
        assert!(!third.keep_alive, "Connection: close honoured");
        // The stream is drained: the next read is a clean EOF.
        assert!(matches!(read_request(&mut reader), Err(ParseError::Eof)));
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn response_and_chunked_writer_emit_wire_format() {
        let mut wire = Vec::new();
        Response::json(200, "{\"ok\": true}")
            .write_to(&mut wire, true)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"), "{text}");

        let mut wire = Vec::new();
        let mut chunked = ChunkedWriter::start(&mut wire, 200, "application/x-ndjson").unwrap();
        chunked.write_chunk(b"{\"cell\": 0}\n").unwrap();
        chunked.write_chunk(b"").unwrap(); // no-op, must not terminate
        chunked.write_chunk(b"{\"cell\": 1}\n").unwrap();
        chunked.finish().unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(
            text.ends_with("c\r\n{\"cell\": 0}\n\r\nc\r\n{\"cell\": 1}\n\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn mutated_requests_never_panic() {
        let docs: [&[u8]; 3] = [
            b"GET /jobs/7 HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"a\": 1}\n",
            b"DELETE /jobs/3 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ];
        assert!(docs.iter().all(|doc| parse(doc).is_ok()));
        // Bytes that steer the parser into its interesting branches.
        const ALPHABET: &[u8] = b"\r\n: /0123456789GETPOSDLH.-content-length\xff";
        check::cases(0x47_7b, check::DEFAULT_CASES * 4, |rng| {
            let mut bytes = docs[rng.gen_range(0..docs.len())].to_vec();
            check::mutate(rng, &mut bytes, ALPHABET);
            match read_request(&mut Cursor::new(&bytes)) {
                Ok(req) => {
                    // Everything decoded was read out of the input.
                    let header_bytes: usize =
                        req.headers.iter().map(|(n, v)| n.len() + v.len()).sum();
                    assert!(req.path.len() + header_bytes + req.body.len() <= bytes.len());
                }
                // Running out of input mid-body is the one transport
                // failure an in-memory reader can produce.
                Err(ParseError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                Err(ParseError::Eof) => assert!(bytes.is_empty(), "Eof on {} bytes", bytes.len()),
                Err(e) => assert!(error_response(&e).is_some_and(|r| r.status >= 400)),
            }
        });
    }

    #[test]
    fn json_escape_handles_specials() {
        let body = |msg: &str| {
            let resp = error_response(&ParseError::BadRequest(msg.to_string())).unwrap();
            String::from_utf8(resp.body).unwrap()
        };
        assert_eq!(body("plain"), "{\"error\": \"plain\"}");
        assert_eq!(body("a\"b\\c\nd"), "{\"error\": \"a\\\"b\\\\c\\nd\"}");
        assert_eq!(body("\u{1}"), "{\"error\": \"\\u0001\"}");
    }
}
