//! A deliberately small HTTP/1.1 implementation over `std::net` — just
//! the subset the job protocol needs, hand-rolled so the main workspace
//! keeps its zero-registry-dependency property.
//!
//! Server side: request-line + header parsing, `Content-Length` bodies,
//! fixed responses, and a [`ChunkedWriter`] for streaming bodies
//! (`Transfer-Encoding: chunked`). Client side: [`request`] sends one
//! request, reads the response head with the server's header reader
//! (same caps), and decodes either body framing the server writes (a
//! response with neither is an error); [`Response::stream_body`] exposes
//! streamed bodies incrementally so telemetry can be relayed line by
//! line as epochs arrive. Connections are `close`-only: one request per
//! TCP connection keeps the state machine trivial and the daemon robust.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use crate::error::WireError;

/// Cap on request head + body sizes; a job spec is a few hundred bytes,
/// so anything near this is a protocol error, not a workload.
pub const MAX_BODY: usize = 64 * 1024;
const MAX_HEAD_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 64;
/// Cap on a single chunk a peer may claim in chunked framing. A hostile
/// `ffffffffffffffff\r\n` size line must not turn into an exabyte
/// allocation (which would abort the process, not error).
const MAX_CHUNK: usize = 16 * 1024 * 1024;

/// True for the error kinds a socket deadline expiry produces
/// (`WouldBlock` on Unix `SO_RCVTIMEO`/`SO_SNDTIMEO`, `TimedOut`
/// elsewhere) — the signature of a slow-loris peer.
pub fn is_deadline(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request path (no query handling; the protocol does not need it).
    pub path: String,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

fn read_line_crlf<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            // EOF before the terminator: the peer tore the connection
            // mid-line. Surfaced as `UnexpectedEof` so the server maps it
            // to the retryable 408, not a permanent 400 — a torn request
            // is a transport failure, not a malformed client.
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ));
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_HEAD_LINE {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "header line too long"));
                }
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF8 head"))
}

/// Wraps a transport failure while reading the request: deadline
/// expiries and torn connections become the typed (retryable) 408,
/// everything else the typed 400 (the connection is torn down either
/// way; the status tells the peer — and `/stats` — which defense
/// fired).
fn read_err(context: &str, e: &io::Error) -> WireError {
    if is_deadline(e) {
        WireError::timeout(format_args!("{context} stalled past the read deadline"))
    } else if e.kind() == io::ErrorKind::UnexpectedEof {
        // A request torn mid-flight (peer vanished, connection cut) is a
        // transport failure: 408 so a retrying client tries again, where
        // a syntactically bad request stays a permanent 400.
        WireError::timeout(format_args!("{context} incomplete: connection closed mid-request"))
    } else {
        WireError::bad_request(format_args!("{context}: {e}"))
    }
}

/// Reads the header lines after a start line, up to the blank line that
/// ends the head, with lowercased names — for requests and responses
/// alike.
fn read_headers<R: BufRead>(r: &mut R) -> Result<Vec<(String, String)>, WireError> {
    let bad = WireError::bad_request;
    let mut headers = Vec::new();
    loop {
        let line = read_line_crlf(r).map_err(|e| read_err("header", &e))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (k, v) =
            line.split_once(':').ok_or_else(|| bad("header line missing ':' separator"))?;
        headers.push((k.trim().to_lowercase(), v.trim().to_string()));
    }
}

/// Reads and parses one request from `r`.
///
/// Every malformed input is a typed error, never a panic: oversized
/// lines, header floods, bad `Content-Length`, short bodies, and
/// deadline expiries all map to 400/408 (see the hostile-input fuzz
/// loop in `tests/serve.rs`).
///
/// # Errors
///
/// A `bad-request` [`WireError`] on malformed framing, a `timeout` one
/// when the peer dribbles past the read deadline.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, WireError> {
    let bad = WireError::bad_request;
    let line = read_line_crlf(r).map_err(|e| read_err("request line", &e))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?.to_uppercase();
    let path = parts.next().ok_or_else(|| bad("request line missing path"))?.to_string();
    let version = parts.next().ok_or_else(|| bad("request line missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let headers = read_headers(r)?;
    let len = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v.parse::<usize>().map_err(|_| bad("unparseable content-length"))?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| read_err("body", &e))?;
    Ok(Request { method, path, headers, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes a complete response with a known body, and a `Retry-After`
/// header when `retry_after_s` is set.
///
/// # Errors
///
/// Propagates transport write failures.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    retry_after_s: Option<u64>,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    )?;
    if let Some(s) = retry_after_s {
        write!(w, "Retry-After: {s}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Writes the typed JSON error body for `e`, with its `Retry-After`
/// hint when it carries one.
///
/// # Errors
///
/// Propagates transport write failures.
pub fn write_error<W: Write>(w: &mut W, e: &WireError) -> io::Result<()> {
    let body = e.json_body();
    write_response(w, e.http_status(), "application/json", e.retry_after_s, body.as_bytes())
}

/// A `Transfer-Encoding: chunked` body writer. Each [`Self::chunk`] call
/// is flushed immediately so clients observe epochs as they happen;
/// [`Self::finish`] writes the terminating zero chunk.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head for a streamed body and returns the
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn start(mut w: W, status: u16, content_type: &str) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n",
            status,
            reason(status),
            content_type,
        )?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Streams one chunk (empty input is a no-op: a zero-length chunk
    /// would terminate the body).
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminates the body.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// A client-side response: status, headers, and a body reader that
/// decodes both framings.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Lowercased response headers.
    pub headers: Vec<(String, String)>,
    body: BodyReader,
}

impl Response {
    /// First value of response header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Reads the whole body into memory.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn into_body(mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(chunk) = self.body.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Streams the body chunk by chunk through `f`, returning the total
    /// byte count.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and errors from `f`.
    pub fn stream_body<F: FnMut(&[u8]) -> io::Result<()>>(mut self, mut f: F) -> io::Result<usize> {
        let mut total = 0;
        while let Some(chunk) = self.body.next_chunk()? {
            total += chunk.len();
            f(&chunk)?;
        }
        Ok(total)
    }
}

/// Incremental body decoder (chunked or content-length framing).
#[derive(Debug)]
enum Framing {
    Length(usize),
    Chunked,
}

#[derive(Debug)]
struct BodyReader {
    r: BufReader<TcpStream>,
    framing: Framing,
    done: bool,
}

impl BodyReader {
    /// The next piece of the body, or `None` at the end.
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.done {
            return Ok(None);
        }
        match self.framing {
            Framing::Length(remaining) => {
                if remaining == 0 {
                    self.done = true;
                    return Ok(None);
                }
                let take = remaining.min(16 * 1024);
                let mut buf = vec![0u8; take];
                self.r.read_exact(&mut buf)?;
                self.framing = Framing::Length(remaining - take);
                Ok(Some(buf))
            }
            Framing::Chunked => {
                let line = read_line_crlf(&mut self.r)?;
                // Tolerate (and ignore) chunk extensions after ';'.
                let size_text = line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(size_text, 16).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad chunk size line")
                })?;
                // A hostile size must error, not abort on allocation.
                if size > MAX_CHUNK {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "chunk size exceeds the 16 MiB cap",
                    ));
                }
                if size == 0 {
                    // Trailing CRLF after the last-chunk line.
                    let _ = read_line_crlf(&mut self.r);
                    self.done = true;
                    return Ok(None);
                }
                let mut buf = vec![0u8; size];
                self.r.read_exact(&mut buf)?;
                let mut crlf = [0u8; 2];
                self.r.read_exact(&mut crlf)?;
                Ok(Some(buf))
            }
        }
    }
}

/// Sends one request to `addr` and returns the parsed response head with
/// a streaming body reader. `headers` are extra request headers.
///
/// # Errors
///
/// Propagates connect/transport failures and malformed responses.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    let mut w = stream.try_clone()?;
    write!(w, "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n")?;
    for (k, v) in headers {
        write!(w, "{k}: {v}\r\n")?;
    }
    write!(w, "Content-Length: {}\r\n\r\n", body.len())?;
    w.write_all(body)?;
    w.flush()?;
    let mut r = BufReader::new(stream);
    let status_line = read_line_crlf(&mut r)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let resp_headers = read_headers(&mut r).map_err(io::Error::other)?;
    let framing = if resp_headers.iter().any(|(k, v)| k == "transfer-encoding" && v == "chunked") {
        Framing::Chunked
    } else if let Some((_, v)) = resp_headers.iter().find(|(k, _)| k == "content-length") {
        Framing::Length(
            v.parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?,
        )
    } else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "response without body framing"));
    };
    Ok(Response { status, headers: resp_headers, body: BodyReader { r, framing, done: false } })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nX-Tenant: alice\r\n\
                    Content-Length: 5\r\n\r\nhello";
        let mut r = io::BufReader::new(&raw[..]);
        let req = read_request(&mut r).expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_malformed_heads() {
        for raw in [
            &b"\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET /x SPDY/9\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"[..],
        ] {
            let mut r = io::BufReader::new(raw);
            assert!(read_request(&mut r).is_err());
        }
    }

    /// A reader that yields a prefix, then fails like an expired socket
    /// deadline.
    struct StallAfter {
        data: Vec<u8>,
        at: usize,
    }

    impl io::Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let n = buf.len().min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn deadline_expiry_is_the_typed_timeout_not_a_bad_request() {
        // Stall mid-head and mid-body: both must classify as timeout.
        for raw in
            [&b"GET /stats HT"[..], &b"POST /jobs HTTP/1.1\r\nContent-Length: 40\r\n\r\nsui"[..]]
        {
            let mut r = io::BufReader::new(StallAfter { data: raw.to_vec(), at: 0 });
            let err = read_request(&mut r).expect_err("stalled request");
            assert_eq!(err.code, "timeout", "{raw:?}");
            assert_eq!(err.http_status(), 408);
        }
    }

    #[test]
    fn hostile_chunk_sizes_error_instead_of_allocating() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut r = BufReader::new(stream.try_clone().expect("clone"));
            read_request(&mut r).expect("request");
            // A chunked response claiming an absurd chunk size.
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                      ffffffffffffff\r\nnope\r\n0\r\n\r\n",
                )
                .unwrap();
        });
        let resp = request(&addr, "GET", "/x", &[], b"").unwrap();
        let err = resp.into_body().expect_err("hostile chunk size");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        server.join().unwrap();
    }

    #[test]
    fn extra_headers_ride_the_response() {
        let mut buf = Vec::new();
        write_response(&mut buf, 429, "application/json", Some(3), b"{}").unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{s}");
        assert!(s.contains("Retry-After: 3\r\n"), "{s}");
        assert!(s.ends_with("\r\n\r\n{}"), "{s}");
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut buf = Vec::new();
        {
            let mut w = ChunkedWriter::start(&mut buf, 200, "text/plain").expect("head");
            w.chunk(b"hello ").expect("chunk");
            w.chunk(b"").expect("empty chunk is a no-op");
            w.chunk(b"world").expect("chunk");
            w.finish().expect("finish");
        }
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Transfer-Encoding: chunked"), "{s}");
        assert!(s.ends_with("6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n"), "{s}");
    }

    #[test]
    fn request_response_round_trip_over_tcp() {
        // A one-shot echo server: proves the client decodes both
        // framings produced by our own writers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for i in 0..2 {
                let (stream, _) = listener.accept().expect("accept");
                let mut r = BufReader::new(stream.try_clone().expect("clone"));
                let req = read_request(&mut r).expect("request");
                let mut w = stream;
                if i == 0 {
                    write_response(&mut w, 200, "text/plain", None, &req.body).expect("respond");
                } else {
                    let mut cw = ChunkedWriter::start(&mut w, 200, "text/plain").expect("head");
                    for piece in req.body.chunks(3) {
                        cw.chunk(piece).expect("chunk");
                    }
                    cw.finish().expect("finish");
                }
            }
        });
        for _ in 0..2 {
            let resp =
                request(&addr, "POST", "/echo", &[("x-tenant", "t")], b"payload-bytes").unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.into_body().unwrap(), b"payload-bytes");
        }
        server.join().expect("server thread");
    }
}
