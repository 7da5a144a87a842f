//! End-to-end smoke tests for the query service: real TCP connections,
//! both protocols, concurrent sessions under admission pressure, and a
//! clean shutdown that leaves the admission controller fully drained.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use xqjg_core::{Mode, Processor};
use xqjg_data::{generate_xmark_encoded, XmarkConfig};
use xqjg_serve::{Engine, Server};
use xqjg_store::{AdmissionConfig, ExecConfig};

const Q1: &str = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
const Q4: &str = "//closed_auction/price/text()";

fn processor(scale: f64) -> Processor {
    let doc = generate_xmark_encoded("auction.xml", &XmarkConfig::with_scale(scale));
    let mut p = Processor::new();
    p.load_encoded("auction.xml", doc);
    p.create_default_indexes();
    p
}

fn engine(admission: AdmissionConfig) -> Arc<Engine> {
    Engine::new(processor(0.02), ExecConfig::from_env(), admission)
}

/// A line-protocol test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect and perform the client-speaks-first handshake (PING draws
    /// the HELLO banner).  Returns the client and its session id.
    fn connect(server: &Server) -> (Client, u64) {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut c = Client {
            reader,
            writer: stream,
        };
        c.send("PING");
        let hello = c.line();
        assert!(
            hello.starts_with("HELLO xqjg-serve/1 session="),
            "banner: {hello}"
        );
        let id = hello
            .rsplit_once('=')
            .expect("banner id")
            .1
            .parse()
            .expect("numeric id");
        assert_eq!(c.line(), "OK pong");
        (c, id)
    }

    fn line(&mut self) -> String {
        let mut s = String::new();
        self.reader.read_line(&mut s).expect("read line");
        s.trim_end().to_string()
    }

    fn send(&mut self, cmd: &str) {
        self.writer
            .write_all(format!("{cmd}\n").as_bytes())
            .expect("write");
    }

    /// Send a command and read one single-line response.
    fn roundtrip(&mut self, cmd: &str) -> String {
        self.send(cmd);
        self.line()
    }

    /// Send `QUERY` and collect the framed response up to `END`; returns
    /// (RESULT header, ITEMS payload).
    fn query(&mut self, q: &str) -> (String, String) {
        self.send(&format!("QUERY {q}"));
        let header = self.line();
        if header.starts_with("ERR") {
            return (header, String::new());
        }
        let items = self.line();
        let end = self.line();
        assert_eq!(end, "END", "frame terminator");
        (header, items)
    }
}

/// The reference: single-session items for a query, rendered exactly as
/// the wire protocol renders them.
fn reference_items(engine: &Engine, query: &str, mode: Mode) -> String {
    let prepared = engine.processor().prepare(query).expect("prepare");
    let out = engine
        .processor()
        .execute_prepared_shared(
            &prepared,
            mode,
            &ExecConfig::from_env(),
            &xqjg_store::CancelToken::new(),
        )
        .expect("reference execution");
    let mut s = "ITEMS".to_string();
    for p in out.items {
        s.push(' ');
        s.push_str(&p.0.to_string());
    }
    s
}

#[test]
fn line_protocol_session_lifecycle() {
    let engine = engine(AdmissionConfig::default());
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 4).expect("start");

    let (mut c, id) = Client::connect(&server);
    assert_eq!(c.roundtrip("ID"), format!("OK session={id}"));

    // Queries return the byte-identical item sequence of a single-session
    // execution, in every mode.
    let expected = reference_items(&engine, Q1, Mode::JoinGraph);
    let (header, items) = c.query(Q1);
    assert!(header.starts_with("RESULT rows="), "header: {header}");
    assert_eq!(items, expected);

    assert_eq!(c.roundtrip("MODE interpreter"), "OK mode=Interpreter");
    let expected = reference_items(&engine, Q4, Mode::Interpreter);
    let (_, items) = c.query(Q4);
    assert_eq!(items, expected, "interpreter mode over the wire");
    assert_eq!(c.roundtrip("MODE joingraph"), "OK mode=JoinGraph");

    // SET goes through the one central knob parser: both spellings, typed
    // errors, unknown knobs rejected.
    assert_eq!(
        c.roundtrip("SET batch_capacity 1024"),
        "OK batch_capacity=1024"
    );
    assert_eq!(
        c.roundtrip("SET XQJG_POSTINGS_CACHE off"),
        "OK XQJG_POSTINGS_CACHE=off"
    );
    assert!(c
        .roundtrip("SET batch_capacity lots")
        .starts_with("ERR config"));
    assert!(c.roundtrip("SET warp_drive 1").starts_with("ERR config"));
    // Batch capacities are bounded: a client cannot make one query
    // preallocate a 2^40-slot batch.  (Only the parser runs here; no query
    // executes with such a value.)
    for line in [
        "SET XQJG_BATCH_CAPACITY 1099511627776",
        "SET batch_capacity 1048577",
    ] {
        assert!(c.roundtrip(line).starts_with("ERR config"), "{line}");
    }
    // A removed knob is an unknown knob — it fails loudly instead of
    // being accepted and ignored — and the session stays usable.
    for line in [
        "SET XQJG_VECTORIZE 0",
        "SET vectorize 0",
        "SET XQJG_TYPED_KERNELS off",
        "SET XQJG_ADAPTIVE_BATCH 0",
        "SET threads 2",
        "SET XQJG_THREADS 1",
        "SET XQJG_MORSEL_SIZE 64",
        "SET morsel_size 64",
    ] {
        assert!(c.roundtrip(line).starts_with("ERR config"), "{line}");
    }
    let (_, items) = c.query(Q1);
    assert_eq!(items, reference_items(&engine, Q1, Mode::JoinGraph));

    // EXPLAIN frames free-form plan text with a payload prefix.
    c.send(&format!("EXPLAIN {Q1}"));
    let header = c.line();
    assert!(header.starts_with("EXPLAIN blocks="), "header: {header}");
    let mut saw_payload = false;
    loop {
        let line = c.line();
        if line == "END" {
            break;
        }
        assert!(line.starts_with("| "), "payload framing: {line}");
        saw_payload = true;
    }
    assert!(saw_payload, "EXPLAIN produced plan text");

    // Protocol errors are typed, not connection-fatal.
    assert!(c.roundtrip("FROBNICATE").starts_with("ERR protocol"));
    assert!(c.roundtrip("QUERY").starts_with("ERR protocol"));
    assert!(c
        .roundtrip("QUERY let $x := (return 1")
        .starts_with("ERR parse"));
    assert_eq!(c.roundtrip("QUIT"), "OK bye");

    let stats = engine.stats();
    assert!(stats.queries_ok >= 4, "ok counter: {stats:?}");
    assert!(stats.queries_err >= 1, "err counter: {stats:?}");
    server.shutdown();
    assert!(engine.admission().drained());
}

fn http_roundtrip(server: &Server, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    (head.to_string(), body.to_string())
}

#[test]
fn http_endpoints() {
    let engine = engine(AdmissionConfig::default());
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 4).expect("start");

    let (head, body) = http_roundtrip(&server, "GET /health HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(body, "ok\n");

    let (head, body) = http_roundtrip(&server, "GET /stats HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("\"admission\""), "{body}");

    let expected = reference_items(&engine, Q1, Mode::JoinGraph)
        .trim_start_matches("ITEMS")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(",");
    let request = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        Q1.len(),
        Q1
    );
    let (head, body) = http_roundtrip(&server, &request);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        body.contains(&format!("\"items\":[{expected}]")),
        "byte-identical items over HTTP: {body}"
    );

    let request = format!(
        "POST /explain HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        Q1.len(),
        Q1
    );
    let (head, body) = http_roundtrip(&server, &request);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.starts_with("{\"blocks\":["), "{body}");

    let bad = "POST /query HTTP/1.1\r\nContent-Length: 3\r\n\r\n(((";
    let (head, body) = http_roundtrip(&server, bad);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("\"error\""), "{body}");

    let (head, _) = http_roundtrip(&server, "GET /nope HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    server.shutdown();
    assert!(engine.admission().drained());
}

#[test]
fn oversized_requests_are_refused_and_every_worker_survives() {
    use xqjg_serve::protocol::{MAX_BODY, MAX_LINE};
    let engine = engine(AdmissionConfig::default());
    let workers = 2;
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", workers).expect("start");
    // Each request sends only the header announcing the body.  Several
    // rounds per worker: a worker lost to any of them would leave none to
    // answer the checks below.
    let lengths = [
        "18446744073709551615".to_string(),
        "1000000000000".to_string(),
        "99999999999999999999999".to_string(),
        (MAX_BODY + 1).to_string(),
    ];
    for len in lengths.iter().cycle().take(4 * workers) {
        let request = format!("POST /query HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        let (head, body) = http_roundtrip(&server, &request);
        assert!(head.starts_with("HTTP/1.1 413"), "{len}: {head}");
        assert!(body.contains("\"protocol\""), "{len}: {body}");
    }
    // A header line past the cap (sent whole, so the server reads it all
    // before answering).
    let header = format!("GET /health HTTP/1.1\r\nX: {}", "a".repeat(MAX_LINE - 2));
    let (head, _) = http_roundtrip(&server, &header);
    assert!(head.starts_with("HTTP/1.1 413"), "{head}");
    // A line-protocol command past the cap: `ERR protocol`, then EOF.
    let (mut c, _) = Client::connect(&server);
    c.writer
        .write_all(&vec![b'x'; MAX_LINE + 1])
        .expect("write");
    assert!(c.line().starts_with("ERR protocol"), "over-long command");
    assert_eq!(c.line(), "", "connection closed");

    let (head, body) = http_roundtrip(&server, "GET /health HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(body, "ok\n");
    let (mut c, _) = Client::connect(&server);
    let (header, items) = c.query(Q4);
    assert!(header.starts_with("RESULT"), "{header}");
    assert_eq!(items, reference_items(&engine, Q4, Mode::JoinGraph));
    server.shutdown();
}

#[test]
fn concurrent_sessions_queue_and_stay_byte_identical() {
    // One admission slot, eight clients: while the test holds the slot,
    // every arrival must wait in the FIFO queue, and once released every
    // response must still be byte-identical to the single-session
    // reference.
    let engine = engine(
        AdmissionConfig::default()
            .with_max_sessions(1)
            .with_queue_depth(16)
            .with_queue_timeout(Duration::from_secs(60)),
    );
    let server = Arc::new(Server::start(Arc::clone(&engine), "127.0.0.1:0", 8).expect("start"));
    let expected = Arc::new(reference_items(&engine, Q1, Mode::JoinGraph));

    // Occupy the only slot so the clients' first queries genuinely queue.
    let gate = engine.admission().admit(None, None).expect("gate permit");

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let server = Arc::clone(&server);
            let expected = Arc::clone(&expected);
            std::thread::Builder::new()
                .name(format!("client-{i}"))
                .spawn(move || {
                    let (mut c, _) = Client::connect(&server);
                    for _ in 0..3 {
                        let (header, items) = c.query(Q1);
                        assert!(header.starts_with("RESULT"), "{header}");
                        assert_eq!(items, *expected);
                    }
                    c.roundtrip("QUIT");
                })
                .expect("spawn")
        })
        .collect();
    // Wait until a good share of the fleet is visibly parked in the
    // queue, then open the gate.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while engine.admission().stats().waiting < 4 {
        assert!(std::time::Instant::now() < deadline, "clients never queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(gate);
    for c in clients {
        c.join().expect("client");
    }

    let stats = engine.stats();
    assert_eq!(stats.queries_ok, 24, "{stats:?}");
    assert_eq!(stats.queries_err, 0, "{stats:?}");
    assert!(stats.admission.queued >= 4, "queueing happened: {stats:?}");
    assert_eq!(stats.admission.rejected, 0, "{stats:?}");
    let server = Arc::into_inner(server).expect("sole owner");
    server.shutdown();
    assert!(engine.admission().drained());
}

#[test]
fn cancel_across_sessions_and_unknown_ids() {
    let engine = engine(AdmissionConfig::default());
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", 4).expect("start");

    let (mut a, id_a) = Client::connect(&server);
    let (mut b, _) = Client::connect(&server);
    // B cancels A by id: the registry resolves it.  A's *next* query
    // re-arms its token, so the session stays usable.
    assert_eq!(
        b.roundtrip(&format!("CANCEL {id_a}")),
        format!("OK cancelled {id_a}")
    );
    let (header, _) = a.query(Q1);
    assert!(
        header.starts_with("RESULT"),
        "session survives a stale cancel: {header}"
    );

    assert!(b.roundtrip("CANCEL 999999").starts_with("ERR session"));
    assert!(b.roundtrip("CANCEL soon").starts_with("ERR protocol"));

    drop(a);
    drop(b);
    server.shutdown();
    let stats = engine.stats();
    assert_eq!(stats.admission.in_use, 0, "{stats:?}");
    assert_eq!(stats.sessions, 0, "sessions deregistered: {stats:?}");
}
