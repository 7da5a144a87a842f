//! Wire dispatch for one accepted connection.  The first request line
//! decides the protocol: `GET ` / `POST ` prefixes route to the HTTP/1.1
//! handler (one request per connection), anything else opens a
//! line-protocol session.
//!
//! Line protocol (one command per line, responses framed by
//! [`crate::Response::render_line`]).  The *client speaks first* — the
//! server cannot tell the protocols apart before the first request line —
//! and the `HELLO` banner precedes the response to that first command:
//!
//! ```text
//! HELLO xqjg-serve/1 session=<id>        <- banner, once the first command arrives
//! QUERY <xquery on one line>             -> RESULT/ITEMS/END or ERR
//! EXPLAIN <xquery on one line>           -> EXPLAIN/|.../END or ERR
//! SET <knob> <value>                     -> OK <knob>=<value> (XQJG_ prefix optional)
//! SET <knob>                             -> OK (resets the knob to its default)
//! MODE interpreter|stacked|joingraph     -> OK mode=<mode>
//! STATS                                  -> STATS <counters>
//! CANCEL <session-id>                    -> OK cancelled <id> or ERR session
//! ID                                     -> OK session=<id>
//! PING                                   -> OK pong
//! QUIT                                   -> OK bye (server closes)
//! ```
//!
//! Each connection reads through one buffer.  A line longer than
//! [`MAX_LINE`] bytes, or an HTTP body announced longer than [`MAX_BODY`],
//! is answered `ERR protocol` (line protocol) or `413` (HTTP) and the
//! connection closed; nothing is allocated for the announced length.  A
//! panic while serving a request is answered `ERR internal` or `500`, the
//! session is closed, and the worker goes on to its next connection.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::Engine;
use crate::response::{Response, ServeError};
use crate::session::Session;

/// Read timeout installed on every accepted socket so blocked readers can
/// observe the shutdown flag.
pub(crate) const READ_POLL: Duration = Duration::from_millis(100);

/// Longest line — a line-protocol command, an HTTP request or header
/// line — a connection may send.
pub const MAX_LINE: usize = 1 << 20;

/// Largest HTTP request body a connection may announce.
pub const MAX_BODY: usize = 1 << 20;

/// Run `f`, turning a panic into an `internal` [`ServeError`] that carries
/// the panic message — the boundary between one request and the worker
/// thread serving it.
pub(crate) fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, ServeError> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        ServeError::internal(format!("request handler panicked: {message}"))
    })
}

/// What one read from a connection produced.
enum Incoming<T> {
    Data(T),
    /// The peer sent, or announced, more than a cap allows.
    TooLarge,
    /// EOF, a read error, or server shutdown.
    Closed,
}

/// One accepted connection: the socket behind one read buffer, plus the
/// shutdown flag its reads poll.
struct Conn<'s> {
    reader: BufReader<TcpStream>,
    shutdown: &'s AtomicBool,
}

impl Conn<'_> {
    /// The buffered, unconsumed bytes, reading more when there are none;
    /// `None` on EOF, a read error or shutdown.  Read timeouts poll the
    /// shutdown flag.
    fn fill(&mut self) -> Option<&[u8]> {
        loop {
            match self.reader.fill_buf() {
                Ok([]) => return None,
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return None;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        Some(self.reader.buffer())
    }

    /// One `\n`-terminated line with every CR dropped, at most
    /// [`MAX_LINE`] bytes before the newline.  A last line without a
    /// newline counts at EOF.
    fn read_line(&mut self) -> Incoming<String> {
        let mut line = Vec::new();
        loop {
            let Some(buf) = self.fill() else {
                if line.is_empty() {
                    return Incoming::Closed;
                }
                return Incoming::Data(String::from_utf8_lossy(&line).into_owned());
            };
            let newline = buf.iter().position(|&b| b == b'\n');
            let take = newline.unwrap_or(buf.len());
            if line.len() + take > MAX_LINE {
                return Incoming::TooLarge;
            }
            line.extend(buf[..take].iter().filter(|&&b| b != b'\r'));
            self.reader.consume(take + usize::from(newline.is_some()));
            if newline.is_some() {
                return Incoming::Data(String::from_utf8_lossy(&line).into_owned());
            }
        }
    }

    /// Exactly `len` body bytes, the buffered ones first; `TooLarge`
    /// before reading or allocating anything when `len` exceeds
    /// [`MAX_BODY`].
    fn read_body(&mut self, len: usize) -> Incoming<Vec<u8>> {
        if len > MAX_BODY {
            return Incoming::TooLarge;
        }
        let mut body = Vec::with_capacity(len);
        while body.len() < len {
            let Some(buf) = self.fill() else {
                return Incoming::Closed;
            };
            let take = buf.len().min(len - body.len());
            body.extend_from_slice(&buf[..take]);
            self.reader.consume(take);
        }
        Incoming::Data(body)
    }

    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.reader.get_mut().write_all(bytes)
    }
}

/// Handle one accepted connection to completion.
pub(crate) fn handle_connection(engine: &Arc<Engine>, stream: TcpStream, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        reader: BufReader::new(stream),
        shutdown,
    };
    let first = match conn.read_line() {
        Incoming::Data(line) => line,
        Incoming::TooLarge => {
            let _ = conn.write_all(line_too_long().render_line().as_bytes());
            return;
        }
        Incoming::Closed => return,
    };
    if first.starts_with("GET ") || first.starts_with("POST ") {
        handle_http(engine, &first, &mut conn);
    } else {
        handle_line_session(engine, first, &mut conn);
    }
}

fn line_too_long() -> Response {
    ServeError::protocol(format!("line longer than {MAX_LINE} bytes")).into()
}

fn handle_line_session(engine: &Arc<Engine>, first: String, conn: &mut Conn<'_>) {
    let mut session = engine.open_session();
    let banner = format!("HELLO xqjg-serve/1 session={}\n", session.id());
    if conn.write_all(banner.as_bytes()).is_err() {
        engine.close_session(session.id());
        return;
    }
    let mut line = Some(first);
    loop {
        let cmd = match line.take() {
            Some(l) => l,
            None => match conn.read_line() {
                Incoming::Data(l) => l,
                Incoming::TooLarge => {
                    let _ = conn.write_all(line_too_long().render_line().as_bytes());
                    break;
                }
                Incoming::Closed => break,
            },
        };
        if cmd.trim().is_empty() {
            continue;
        }
        let (response, quit) = catch_panic(|| dispatch(engine, &mut session, cmd.trim()))
            .unwrap_or_else(|e| (e.into(), true));
        if conn.write_all(response.render_line().as_bytes()).is_err() || quit {
            break;
        }
    }
    engine.close_session(session.id());
}

/// Execute one line-protocol command.  Returns the response and whether
/// the connection should close.
pub fn dispatch(engine: &Engine, session: &mut Session, line: &str) -> (Response, bool) {
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd.to_ascii_uppercase().as_str() {
        "QUERY" if !rest.is_empty() => (engine.execute(session, rest), false),
        "EXPLAIN" if !rest.is_empty() => (engine.explain(session, rest), false),
        "QUERY" | "EXPLAIN" => (
            ServeError::protocol(format!("{cmd} requires a query on the same line")).into(),
            false,
        ),
        "SET" => {
            let (var, value) = match rest.split_once(char::is_whitespace) {
                Some((v, w)) => (v, w.trim()),
                None if !rest.is_empty() => (rest, ""),
                None => {
                    return (
                        ServeError::protocol("SET requires a knob name").into(),
                        false,
                    )
                }
            };
            match session.set_knob(var, value) {
                Ok(()) => (Response::Ok(format!("{var}={value}")), false),
                Err(e) => (ServeError::from(e).into(), false),
            }
        }
        "MODE" => match session.set_mode(rest) {
            Ok(mode) => (Response::Ok(format!("mode={mode:?}")), false),
            Err(e) => (e.into(), false),
        },
        "STATS" => (Response::Stats(engine.stats()), false),
        "CANCEL" => match rest.parse::<u64>() {
            Ok(id) if engine.cancel(id) => (Response::Ok(format!("cancelled {id}")), false),
            Ok(id) => (
                ServeError::session(format!("no such session: {id}")).into(),
                false,
            ),
            Err(_) => (
                ServeError::protocol("CANCEL requires a numeric session id").into(),
                false,
            ),
        },
        "ID" => (Response::Ok(format!("session={}", session.id())), false),
        "PING" => (Response::Ok("pong".to_string()), false),
        "QUIT" => (Response::Ok("bye".to_string()), true),
        other => (
            ServeError::protocol(format!("unknown command {other:?}")).into(),
            false,
        ),
    }
}

fn handle_http(engine: &Arc<Engine>, request_line: &str, conn: &mut Conn<'_>) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let too_large = |conn: &mut Conn<'_>, what: &str| {
        let r = Response::Error(ServeError::protocol(what));
        http_reply(
            conn,
            413,
            "Payload Too Large",
            "application/json",
            &r.render_json(),
        );
    };
    // Drain headers; the only one we act on is Content-Length.  A length
    // too large for `usize` is too large for the body cap as well.
    let mut content_length = 0usize;
    loop {
        match conn.read_line() {
            Incoming::Data(h) if h.trim().is_empty() => break,
            Incoming::Data(h) => {
                if let Some((name, value)) = h.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        let v = value.trim();
                        let digits = !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit());
                        content_length = match v.parse() {
                            Ok(n) => n,
                            Err(_) if digits => usize::MAX,
                            Err(_) => 0,
                        };
                    }
                }
            }
            Incoming::TooLarge => {
                return too_large(conn, &format!("header line longer than {MAX_LINE} bytes"))
            }
            Incoming::Closed => return,
        }
    }
    let body = match conn.read_body(content_length) {
        Incoming::Data(b) => String::from_utf8_lossy(&b).into_owned(),
        Incoming::TooLarge => {
            return too_large(conn, &format!("request body longer than {MAX_BODY} bytes"))
        }
        Incoming::Closed => return,
    };
    let routed = catch_panic(|| match (method, path) {
        ("GET", "/health") => (200, "OK", "text/plain", "ok\n".to_string()),
        ("GET", "/stats") => {
            let r = Response::Stats(engine.stats());
            (200, "OK", "application/json", r.render_json())
        }
        ("POST", "/query") | ("POST", "/explain") => {
            let session = engine.open_session();
            let query = body.trim();
            let r = if query.is_empty() {
                Response::Error(ServeError::protocol("empty request body"))
            } else if path == "/query" {
                engine.execute(&session, query)
            } else {
                engine.explain(&session, query)
            };
            engine.close_session(session.id());
            let (status, reason) = r.http_status();
            (status, reason, "application/json", r.render_json())
        }
        _ => (
            404,
            "Not Found",
            "application/json",
            Response::Error(ServeError::protocol(format!("no route {method} {path}")))
                .render_json(),
        ),
    });
    let (status, reason, content_type, payload) = routed.unwrap_or_else(|e| {
        let r = Response::Error(e);
        let (status, reason) = r.http_status();
        (status, reason, "application/json", r.render_json())
    });
    http_reply(conn, status, reason, content_type, &payload);
}

fn http_reply(conn: &mut Conn<'_>, status: u16, reason: &str, content_type: &str, payload: &str) {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    let _ = conn.write_all(head.as_bytes());
    let _ = conn.write_all(payload.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_handler_becomes_an_internal_error() {
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let owned = catch_panic(|| -> u32 { panic!("boom {}", 7) });
        let borrowed = catch_panic(|| -> u32 { panic!("static boom") });
        std::panic::set_hook(quiet);
        let e = owned.unwrap_err();
        assert_eq!(e.kind, "internal");
        assert!(e.message.contains("boom 7"), "{}", e.message);
        assert!(borrowed.unwrap_err().message.contains("static boom"));
        assert_eq!(catch_panic(|| 5), Ok(5));
        let r = Response::Error(ServeError::internal("x"));
        assert_eq!(r.http_status().0, 500);
        assert!(
            r.render_line().starts_with("ERR internal"),
            "{}",
            r.render_line()
        );
    }
}
