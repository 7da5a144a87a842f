//! One run of one workload: generate, set up, check the answers, warm up,
//! measure, and turn the samples into the named metrics.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use xqjg_core::{Prepared, Processor};
use xqjg_serve::protocol::dispatch;
use xqjg_serve::{Engine, Response, Server, DEFAULT_WORKERS};
use xqjg_store::{AdmissionConfig, CancelToken, ExecConfig};

use crate::layers::{run_prepared, run_text, ExecCounts, LayerCounts, Layered};
use crate::paper;
use crate::serve::{Client, Reply};
use crate::setup::{build_processor, generate, verify, Checked, Data, SetupTimes};
use crate::spec::{Path, Workload, END_TO_END, PER_LAYER, QUERIES, SMOKE_SCALE, WARMUP_CYCLES};
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;

const N: usize = QUERIES.len();

/// A traced run exits non-zero above this (not under `--smoke`, whose ten
/// cycles are too few to tell).
const MAX_TRACE_OVERHEAD: f64 = 0.10;

/// Spans allocated before the timed region: a cycle records about a
/// hundred, and no workload reaches 500 traced cycles in a 60 s run.
const SPAN_CAPACITY: usize = 1 << 16;

/// When the timed region ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the cycle during which this many seconds have passed.
    Seconds(f64),
    /// After this many cycles per client (`--smoke`).
    Cycles(usize),
}

impl Stop {
    fn done(self, cycles: usize, started: Instant) -> bool {
        match self {
            Stop::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Stop::Cycles(n) => cycles >= n,
        }
    }

    /// Half the region, for a run that measures in two phases.
    fn half(self) -> Stop {
        match self {
            Stop::Seconds(s) => Stop::Seconds(s / 2.0),
            Stop::Cycles(n) => Stop::Cycles((n / 2).max(1)),
        }
    }

    /// The same region counted in pairs of an untraced and a traced cycle.
    fn pairs(self) -> Stop {
        match self {
            Stop::Cycles(n) => Stop::Cycles((n / 2).max(1)),
            seconds => seconds,
        }
    }
}

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
    pub smoke: bool,
}

/// What the numbers depend on besides the code.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    pub cores: usize,
    /// `ExecConfig::threads`: `min(cores, 4)`.
    pub threads: usize,
    /// Connections of `serve_mix`: `min(cores, 2)`.
    pub clients: usize,
}

impl Machine {
    pub fn detect() -> Machine {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Machine {
            cores,
            threads: cores.min(4),
            clients: cores.min(2),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile.
    pub samples: Option<usize>,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Reasons the run exits non-zero.
    pub problems: Vec<String>,
    pub doc_rows: usize,
    pub clients: usize,
}

/// Latencies of correct replies, and the tally of all replies.
#[derive(Default)]
struct Samples {
    query_ms: [Vec<f64>; N],
    /// Sum of the six latencies, of cycles without a failure.
    cycle_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

type RunQuery<'a> = &'a mut dyn FnMut(usize, &mut String) -> Result<(), String>;
type CheckReply<'a> = &'a dyn Fn(usize, &str) -> bool;

impl Samples {
    /// One in-order pass over Q1–Q6.  `run` leaves the reply in `reply`;
    /// the clock stops before `check` compares it with the checked answer.
    /// A failed query is counted, not sampled.
    fn cycle(&mut self, run: RunQuery, check: CheckReply, reply: &mut String) {
        let mut cycle_ms = 0.0;
        let mut clean = true;
        for q in 0..N {
            let start = Instant::now();
            let ran = run(q, reply);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            self.attempted += 1;
            let failure = match ran {
                Err(e) => Some(e),
                Ok(()) if !check(q, reply) => {
                    Some("reply differs from the checked answer".to_string())
                }
                Ok(()) => None,
            };
            match failure {
                None => {
                    self.query_ms[q].push(ms);
                    cycle_ms += ms;
                }
                Some(why) => {
                    self.failed += 1;
                    clean = false;
                    self.first_failure
                        .get_or_insert_with(|| format!("Q{}: {why}", q + 1));
                }
            }
        }
        if clean {
            self.cycle_ms.push(cycle_ms);
        }
    }

    fn merge(&mut self, other: Samples) {
        for (mine, theirs) in self.query_ms.iter_mut().zip(&other.query_ms) {
            mine.extend(theirs);
        }
        self.cycle_ms.extend(&other.cycle_ms);
        self.tally(other);
    }

    /// Count `other`'s replies without sampling their latencies.
    fn tally(&mut self, other: Samples) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

fn exec_config(w: &Workload, threads: usize) -> ExecConfig {
    // Pinned: never `from_env`.
    let mut cfg = ExecConfig::default()
        .with_plan_cache(w.caches)
        .with_build_cache(w.caches)
        .with_postings_cache(w.caches);
    cfg.threads = threads;
    cfg
}

fn start_server(p: Processor, cfg: &ExecConfig) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let engine = Engine::new(p, cfg.clone(), AdmissionConfig::default());
    let server = Server::start(engine, "127.0.0.1:0", DEFAULT_WORKERS)
        .map_err(|e| format!("cannot start the server: {e}"))?;
    Ok((server, start.elapsed().as_secs_f64()))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The closed loop of one TCP client.
fn client_loop(
    addr: SocketAddr,
    stop: Stop,
    commands: &[String],
    replies: &[Reply],
    start_line: &Barrier,
) -> Result<(Samples, f64), String> {
    let connected = Client::connect(addr);
    // Reach the barrier even when the connection failed, or the others wait.
    start_line.wait();
    let mut client = connected.map_err(|e| format!("cannot connect: {e}"))?;
    let mut samples = Samples::default();
    let mut reply = String::new();
    let started = Instant::now();
    let mut cycles = 0;
    loop {
        samples.cycle(
            &mut |q, reply| {
                client
                    .request(&commands[q], reply)
                    .map_err(|e| e.to_string())
            },
            &|q, got| replies[q].matches(got),
            &mut reply,
        );
        cycles += 1;
        if stop.done(cycles, started) {
            break;
        }
    }
    let region_s = started.elapsed().as_secs_f64();
    client.quit().map_err(|e| format!("QUIT failed: {e}"))?;
    Ok((samples, region_s))
}

/// `clients` closed loops at once; the region lasts until the last ends.
fn tcp_phase(
    addr: SocketAddr,
    clients: usize,
    stop: Stop,
    commands: &[String],
    replies: &[Reply],
) -> Result<(Samples, f64), String> {
    let start_line = Barrier::new(clients);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| client_loop(addr, stop, commands, replies, &start_line)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect()
    });
    let mut all = Samples::default();
    let mut region_s: f64 = 0.0;
    for result in results {
        let (samples, client_s) = result?;
        all.merge(samples);
        region_s = region_s.max(client_s);
    }
    Ok((all, region_s))
}

/// One of the timed parts of a set-up.
type SetupPart = fn(&SetupTimes) -> f64;

/// What a traced run hands to [`layer_metrics`].
struct Traced {
    tracer: Tracer,
    /// Root span of the request as the client sees it.
    request_root: &'static str,
    /// Cycle times the spans must account for (over TCP, all clients at
    /// once, on `serve_mix`).
    client_cycle_ms: Vec<f64>,
    /// In-process untraced cycle times, the base of the tracing overhead.
    untraced_cycle_ms: Vec<f64>,
    /// Counters of the last traced cycle.
    counts: LayerCounts,
    /// `serve_mix` only.
    serve: Option<ServeTrace>,
}

struct ServeTrace {
    /// Cycle times over TCP with one client: no other query contends.
    lone_cycle_ms: Vec<f64>,
    /// What the admission controller tallied over the all-clients phase:
    /// queued, rejected, timed out.
    admission: [u64; 3],
}

/// What measuring a workload yields, whichever way its queries travel.
struct Measured {
    samples: Samples,
    /// Wall time of the timed region (untraced runs).
    region_s: f64,
    traced: Option<Traced>,
    problems: Vec<String>,
    /// `serve_mix`: starting the server of the last set-up, and checking
    /// its replies.
    serve_start_s: f64,
    verify_s: f64,
}

/// The single-client workloads: queries run in this thread on `p`.
fn measure_in_process(
    opts: &Options,
    cfg: &ExecConfig,
    p: &mut Processor,
    checked: &Checked,
) -> Result<Measured, String> {
    let path = opts.workload.path;
    let prepared: Vec<Prepared> = match path {
        Path::Prepared => QUERIES
            .iter()
            .map(|text| p.prepare(text).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    let check = |q: usize, got: &str| got == checked.xml[q];
    let untraced_query =
        |p: &mut Processor, counts: &mut ExecCounts, q: usize, reply: &mut String| {
            let (out, xml) = match path {
                Path::Prepared => run_prepared(p, &prepared[q]),
                _ => run_text(p, QUERIES[q]),
            }?;
            if opts.trace {
                counts.add_outcome(&out, &xml);
            }
            *reply = xml;
            Ok(())
        };
    let mut untraced_counts = ExecCounts::default();
    let mut reply = String::new();

    let mut warm = Samples::default();
    for _ in 0..WARMUP_CYCLES {
        warm.cycle(
            &mut |q, reply| untraced_query(p, &mut untraced_counts, q, reply),
            &check,
            &mut reply,
        );
    }
    if let Some(why) = warm.first_failure {
        return Err(format!("warm-up failed: {why}"));
    }

    let mut samples = Samples::default();
    let mut problems = Vec::new();
    let mut traced = None;
    let started = Instant::now();
    if opts.trace {
        // Untraced and traced cycles alternate, so drift hits both alike.
        let caches = p.caches().clone();
        let cancel = CancelToken::new();
        let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
        let mut traced_samples = Samples::default();
        let mut counts;
        let mut cycle = 0u32;
        loop {
            untraced_counts = ExecCounts::default();
            samples.cycle(
                &mut |q, reply| untraced_query(p, &mut untraced_counts, q, reply),
                &check,
                &mut reply,
            );
            counts = LayerCounts::default();
            traced_samples.cycle(
                &mut |q, reply| {
                    tracer.begin_trace(cycle * N as u32 + q as u32);
                    let mut layered = Layered {
                        tracer: &mut tracer,
                        counts: &mut counts,
                        cfg,
                        caches: &caches,
                        cancel: &cancel,
                    };
                    *reply = match path {
                        Path::Prepared => layered.run_prepared(p, &prepared[q]),
                        _ => layered.run_text(p, QUERIES[q]),
                    }?;
                    Ok(())
                },
                &check,
                &mut reply,
            );
            cycle += 1;
            if opts.stop.pairs().done(cycle as usize, started) {
                break;
            }
        }
        if untraced_counts != counts.exec {
            problems.push(format!(
                "counters differ between the paths: untraced {untraced_counts:?}, traced {:?}",
                counts.exec
            ));
        }
        traced = Some(Traced {
            tracer,
            request_root: "query",
            client_cycle_ms: samples.cycle_ms.clone(),
            untraced_cycle_ms: samples.cycle_ms.clone(),
            counts,
            serve: None,
        });
        samples.tally(traced_samples);
    } else {
        let mut cycles = 0;
        loop {
            samples.cycle(
                &mut |q, reply| untraced_query(p, &mut untraced_counts, q, reply),
                &check,
                &mut reply,
            );
            cycles += 1;
            if opts.stop.done(cycles, started) {
                break;
            }
        }
    }
    Ok(Measured {
        samples,
        region_s: started.elapsed().as_secs_f64(),
        traced,
        problems,
        serve_start_s: 0.0,
        verify_s: 0.0,
    })
}

/// `serve_mix`: `p` goes behind a server; the queries arrive over TCP.
fn measure_served(
    opts: &Options,
    cfg: &ExecConfig,
    clients: usize,
    p: Processor,
    data: &Data,
    checked: &Checked,
) -> Result<Measured, String> {
    let (server, serve_start_s) = start_server(p, cfg)?;
    let engine = Arc::clone(server.engine());
    let commands: Vec<String> = QUERIES.iter().map(|q| format!("QUERY {q}")).collect();
    let mut session = engine.open_session();

    // The reply each query must get: rendered in-process, its items checked
    // against the verified ones.
    let verify_start = Instant::now();
    let mut replies = Vec::with_capacity(N);
    for (q, command) in commands.iter().enumerate() {
        let (response, _) = dispatch(&engine, &mut session, command);
        match &response {
            Response::Result(r) if r.items == checked.items[q] => {}
            other => return Err(format!("Q{}: the server answered {other:?}", q + 1)),
        }
        let reply = Reply::new(&response.render_line()).ok_or("RESULT line without elapsed_us")?;
        replies.push(reply);
    }
    let verify_s = verify_start.elapsed().as_secs_f64();

    let addr = server.local_addr();
    let (warm, _) = tcp_phase(addr, 1, Stop::Cycles(WARMUP_CYCLES), &commands, &replies)?;
    if let Some(why) = warm.first_failure {
        return Err(format!("warm-up over TCP failed: {why}"));
    }

    let mut problems = Vec::new();
    let mut traced = None;
    let (mut samples, region_s);
    if opts.trace {
        // Four phases of a quarter each: all clients over TCP, one client
        // over TCP, the same requests dispatched in-process (untraced and
        // traced cycles alternating), and the layers on a twin processor —
        // the engine's own is out of reach behind the server.
        let stop = opts.stop.half().half();
        let before = engine.stats().admission;
        (samples, _) = tcp_phase(addr, clients, stop, &commands, &replies)?;
        let after = engine.stats().admission;
        let (lone, _) = tcp_phase(addr, 1, stop, &commands, &replies)?;

        let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
        let mut untraced = Samples::default();
        let mut in_process = Samples::default();
        let (mut untraced_items, mut traced_items) = (0u64, 0u64);
        let check = |q: usize, got: &str| replies[q].matches(got);
        let mut reply = String::new();
        let started = Instant::now();
        let mut cycle = 0u32;
        // On a thread of its own, as the server's workers are: the allocator
        // gives the main thread a different arena.
        std::thread::scope(|s| {
            let dispatching = s.spawn(|| loop {
                untraced_items = 0;
                untraced.cycle(
                    &mut |q, reply| {
                        let (response, _) = dispatch(&engine, &mut session, &commands[q]);
                        if let Response::Result(r) = &response {
                            untraced_items += r.items.len() as u64;
                        }
                        *reply = response.render_line();
                        Ok(())
                    },
                    &check,
                    &mut reply,
                );
                traced_items = 0;
                in_process.cycle(
                    &mut |q, reply| {
                        tracer.begin_trace(cycle * N as u32 + q as u32);
                        let root = tracer.enter("serve.request");
                        let (response, _) = tracer.leaf("serve.dispatch", || {
                            dispatch(&engine, &mut session, &commands[q])
                        });
                        *reply = tracer.leaf("serve.render", || response.render_line());
                        tracer.exit(root);
                        if let Response::Result(r) = &response {
                            traced_items += r.items.len() as u64;
                        }
                        Ok(())
                    },
                    &check,
                    &mut reply,
                );
                cycle += 1;
                if stop.pairs().done(cycle as usize, started) {
                    break;
                }
            });
            dispatching
                .join()
                .map_err(|_| "the dispatching thread panicked")
        })?;

        let (mut twin, _) = build_processor(data, cfg, false)?;
        let caches = twin.caches().clone();
        let cancel = CancelToken::new();
        let mut layered_samples = Samples::default();
        let mut counts;
        let check = |q: usize, got: &str| got == checked.xml[q];
        // Fill the twin's caches as the engine's were filled.
        for q in (0..WARMUP_CYCLES).flat_map(|_| 0..N) {
            run_text(&mut twin, QUERIES[q]).map_err(|e| format!("twin Q{}: {e}", q + 1))?;
        }
        let started = Instant::now();
        let first = cycle;
        loop {
            counts = LayerCounts::default();
            layered_samples.cycle(
                &mut |q, reply| {
                    tracer.begin_trace(cycle * N as u32 + q as u32);
                    *reply = Layered {
                        tracer: &mut tracer,
                        counts: &mut counts,
                        cfg,
                        caches: &caches,
                        cancel: &cancel,
                    }
                    .run_text(&mut twin, QUERIES[q])?;
                    Ok(())
                },
                &check,
                &mut reply,
            );
            cycle += 1;
            if stop.done((cycle - first) as usize, started) {
                break;
            }
        }
        // Over the wire only the item count is visible.
        if untraced_items != traced_items || traced_items != counts.exec.items {
            problems.push(format!(
                "items per cycle differ: served {untraced_items}, served under trace \
                 {traced_items}, layered {}",
                counts.exec.items
            ));
        }
        traced = Some(Traced {
            tracer,
            request_root: "serve.request",
            client_cycle_ms: samples.cycle_ms.clone(),
            untraced_cycle_ms: std::mem::take(&mut untraced.cycle_ms),
            counts,
            serve: Some(ServeTrace {
                lone_cycle_ms: lone.cycle_ms.clone(),
                admission: [
                    after.queued - before.queued,
                    after.rejected - before.rejected,
                    after.timeouts - before.timeouts,
                ],
            }),
        });
        for other in [lone, untraced, in_process, layered_samples] {
            samples.tally(other);
        }
        region_s = 0.0;
    } else {
        (samples, region_s) = tcp_phase(addr, clients, opts.stop, &commands, &replies)?;
    }
    engine.close_session(session.id());
    server.shutdown();
    Ok(Measured {
        samples,
        region_s,
        traced,
        problems,
        serve_start_s,
        verify_s,
    })
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let machine = Machine::detect();
    let w = opts.workload;
    let serve = w.path == Path::Serve;
    let (xmark_scale, dblp_scale) = if opts.smoke {
        (SMOKE_SCALE, SMOKE_SCALE)
    } else {
        (w.xmark_scale, w.dblp_scale)
    };
    let cfg = exec_config(w, machine.threads);
    let data = generate(xmark_scale, dblp_scale, opts.seed, serve);

    // Set up several times, keeping one processor alive at a time so the
    // peak memory is that of one set-up; the last is the one measured on.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(w.setup_repeats);
    let mut kept: Option<Processor> = None;
    for i in 0..w.setup_repeats {
        drop(kept.take());
        let (p, mut times) = build_processor(&data, &cfg, opts.trace)?;
        if serve && i + 1 < w.setup_repeats {
            let (server, start_s) = start_server(p, &cfg)?;
            times.serve_start_s = start_s;
            server.shutdown();
        } else {
            kept = Some(p);
        }
        setups.push(times);
    }
    let mut p = kept.ok_or("a workload sets up at least once")?;
    let doc_rows = p.doc().len();

    let verify_start = Instant::now();
    let checked = verify(&mut p, opts.seed, &cfg)?;
    let mut verify_s = verify_start.elapsed().as_secs_f64();

    let mut fidelity = None;
    let measured = if serve {
        measure_served(opts, &cfg, machine.clients, p, &data, &checked)?
    } else {
        let measured = measure_in_process(opts, &cfg, &mut p, &checked)?;
        if opts.trace && w.name == "adhoc_small" {
            fidelity = Some(paper::measure(&mut p, &data, &cfg)?);
        }
        measured
    };
    let Measured {
        samples,
        region_s,
        traced,
        mut problems,
        ..
    } = measured;
    verify_s += measured.verify_s;
    setups.last_mut().expect("set up above").serve_start_s += measured.serve_start_s;

    if samples.failed > 0 {
        problems.push(format!(
            "{} of {} queries failed; first: {}",
            samples.failed,
            samples.attempted,
            samples.first_failure.as_deref().unwrap_or("?")
        ));
    }

    let setup_median = |part: SetupPart| median(&setups.iter().map(part).collect::<Vec<_>>());
    let mut values: BTreeMap<String, (f64, Option<usize>)> = BTreeMap::new();
    let mut set = |name: &str, value: f64, samples: Option<usize>| {
        values.insert(name.to_string(), (value, samples));
    };
    let defs: &[_] = if let Some(t) = &traced {
        layer_metrics(t, &mut set, &mut problems, opts.smoke);
        write_trace(t, opts, &machine)?;
        set("data.generate_s", data.generate_s, None);
        let parts: [(&str, SetupPart); 5] = [
            ("xml.encode_s", |t| t.encode_s),
            ("core.load_s", |t| t.load_s),
            ("store.catalog_s", |t| t.catalog_s),
            ("store.index_build_s", |t| t.index_s),
            ("serve.start_s", |t| t.serve_start_s),
        ];
        for (name, part) in parts {
            set(name, setup_median(part), Some(setups.len()));
        }
        if let Some(text) = &data.text {
            let mb = text.iter().map(String::len).sum::<usize>() as f64 / 1e6;
            set(
                "xml.encode_mb_per_s",
                mb / setup_median(|t| t.encode_s),
                None,
            );
        }
        set(
            "store.index_build_rows_per_s",
            doc_rows as f64 / setup_median(|t| t.index_s),
            None,
        );
        set("doc.rows", doc_rows as f64, None);
        set("harness.verify_s", verify_s, None);
        set(
            "failed_frac",
            samples.failed as f64 / samples.attempted as f64,
            None,
        );
        if let Some(f) = &fidelity {
            set("algebra.stacked_eval_ms", f.stacked_eval_ms, None);
            set("purexml.whole_ms", f.purexml_whole_ms, None);
            set("purexml.segmented_ms", f.purexml_segmented_ms, None);
            set(
                "paper.isolation_speedup_geomean",
                f.isolation_speedup_geomean,
                None,
            );
        }
        &PER_LAYER
    } else {
        let medians: Vec<f64> = samples.query_ms.iter().map(|s| median(s)).collect();
        set(
            "setup_s",
            setup_median(SetupTimes::total),
            Some(setups.len()),
        );
        set(
            "throughput_qps",
            (samples.attempted - samples.failed) as f64 / region_s,
            None,
        );
        set("geomean_p50_ms", geomean(&medians), None);
        for (q, m) in medians.iter().enumerate() {
            set(
                &format!("q{}_p50_ms", q + 1),
                *m,
                Some(samples.query_ms[q].len()),
            );
        }
        set("peak_rss_mb", peak_rss_mb(), None);
        &END_TO_END
    };
    let metrics = defs
        .iter()
        .map(|&(name, unit)| {
            // A metric a workload has no layer for reads 0.
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, None));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect();
    Ok(Report {
        attempted: samples.attempted,
        failed: samples.failed,
        metrics,
        problems,
        doc_rows,
        clients: if serve { machine.clients } else { 1 },
    })
}

/// Per-layer times (ms per cycle, median over cycles) and counts (of the
/// last cycle) from a traced run.
fn layer_metrics(
    t: &Traced,
    set: &mut dyn FnMut(&str, f64, Option<usize>),
    problems: &mut Vec<String>,
    smoke: bool,
) {
    let by_cycle = t.tracer.self_ms_by_cycle(N as u32);
    let cycle_median =
        |per_cycle: &BTreeMap<u32, f64>| median(&per_cycle.values().copied().collect::<Vec<_>>());
    for (name, per_cycle) in &by_cycle {
        set(
            &format!("{name}_ms"),
            cycle_median(per_cycle),
            Some(per_cycle.len()),
        );
    }

    // The spans that account for the request the client timed: on
    // `serve_mix` the dispatch and the rendering (the layer spans there come
    // from re-running the query on a twin), elsewhere every layer span.
    let mut attributed: BTreeMap<u32, f64> = BTreeMap::new();
    let roots = ["query", "serve.request"];
    let of_request = |name: &str| match t.request_root {
        "serve.request" => name.starts_with("serve."),
        _ => true,
    };
    for (name, per_cycle) in &by_cycle {
        if !roots.contains(name) && of_request(name) {
            for (cycle, ms) in per_cycle {
                *attributed.entry(*cycle).or_default() += ms;
            }
        }
    }
    set(
        "mix_p90_ms",
        percentile(&t.client_cycle_ms, 0.9),
        Some(t.client_cycle_ms.len()),
    );
    let client_ms = median(&t.client_cycle_ms);
    let attributed_ms = cycle_median(&attributed);
    set(
        "harness.unattributed_ms",
        client_ms - attributed_ms,
        Some(t.client_cycle_ms.len()),
    );
    if let Some(serve) = &t.serve {
        // One client's view minus dispatch and render is the socket and the
        // connection worker; what more all clients at once see is the
        // contention between their queries.
        let lone_ms = median(&serve.lone_cycle_ms);
        set(
            "serve.wire_ms",
            lone_ms - attributed_ms,
            Some(serve.lone_cycle_ms.len()),
        );
        set(
            "serve.contention_ms",
            client_ms - lone_ms,
            Some(t.client_cycle_ms.len()),
        );
        let names = [
            "serve.admission_queued",
            "serve.admission_rejected",
            "serve.admission_timeouts",
        ];
        for (name, n) in names.into_iter().zip(serve.admission) {
            set(name, n as f64 / t.client_cycle_ms.len().max(1) as f64, None);
        }
    }

    let traced_ms = cycle_median(&t.tracer.root_ms_by_cycle(t.request_root, N as u32));
    let overhead = traced_ms / median(&t.untraced_cycle_ms) - 1.0;
    set(
        "harness.trace_overhead_frac",
        overhead,
        Some(t.untraced_cycle_ms.len()),
    );
    if overhead > MAX_TRACE_OVERHEAD && !smoke {
        problems.push(format!(
            "tracing overhead {overhead:.3} exceeds {MAX_TRACE_OVERHEAD}"
        ));
    }

    let c = &t.counts;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    set("compiler.stacked_ops", c.stacked_ops as f64, None);
    set("core.simplified_ops", c.simplified_ops as f64, None);
    set(
        "core.rewrite_applications",
        c.rewrite_applications as f64,
        None,
    );
    set("core.joingraph_aliases", c.joingraph_aliases as f64, None);
    set(
        "engine.plan_cache_hit_ratio",
        ratio(c.plan_hits, c.plan_lookups),
        None,
    );
    set(
        "engine.rows_examined_per_result",
        ratio(c.exec.rows_examined, c.exec.items),
        None,
    );
    set("engine.index_probes", c.exec.index_probes as f64, None);
    set(
        "engine.build_cache_hits",
        c.exec.build_cache_hits as f64,
        None,
    );
    set(
        "store.postings_hit_ratio",
        ratio(c.postings_hits, c.postings_lookups),
        None,
    );
    set(
        "store.kernel_coverage",
        ratio(c.exec.kernel_rows, c.exec.operator_rows_in),
        None,
    );
    set("store.spill_runs", c.exec.spill_runs as f64, None);
    set("result.items", c.exec.items as f64, None);
    set("result.bytes", c.exec.bytes as f64, None);
}

fn write_trace(t: &Traced, opts: &Options, machine: &Machine) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("{}.trace.json", opts.workload.name));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"cores\":{},\"threads\":{}",
        opts.workload.name, opts.seed, machine.cores, machine.threads
    );
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, t.tracer.to_json(&header)))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))
}
