//! The thread-pooled TCP server: one listener, an accept thread feeding a
//! bounded hand-off queue, and a fixed pool of connection workers.  All of
//! it is `std::net` + `std::thread` — no runtime, no external crates.
//!
//! Shutdown is cooperative and *clean*: the flag flips, the accept loop is
//! unblocked by a self-connection, in-flight readers observe the flag at
//! their next 100 ms read poll, and [`Server::shutdown`] joins every
//! thread before asserting the admission controller has fully drained
//! (every granted byte released, no query active or queued).

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::Engine;
use crate::protocol::{catch_panic, handle_connection};

/// Default size of the connection-worker pool.
pub const DEFAULT_WORKERS: usize = 8;

/// Hand-off queue between the accept thread and the workers.
struct Handoff {
    /// Accepted connections.  Every update is one push or pop, so a
    /// poisoned lock still guards a valid queue.
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
}

/// A running server.  Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, drains the workers and joins every thread.
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handoff: Arc<Handoff>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the accept loop plus `workers` connection handlers.
    pub fn start(engine: Arc<Engine>, addr: &str, workers: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let handoff = Arc::new(Handoff {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shutdown = Arc::clone(&shutdown);
            let handoff = Arc::clone(&handoff);
            threads.push(
                std::thread::Builder::new()
                    .name("xqjg-accept".to_string())
                    .spawn(move || accept_loop(listener, handoff, shutdown))?,
            );
        }
        for i in 0..workers.max(1) {
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            let handoff = Arc::clone(&handoff);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("xqjg-worker-{i}"))
                    .spawn(move || worker_loop(engine, handoff, shutdown))?,
            );
        }
        Ok(Server {
            engine,
            addr,
            shutdown,
            handoff,
            threads,
        })
    }

    /// The bound address (resolves the port when started on `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stop accepting, drain the workers, join every thread, and assert
    /// the admission controller drained (no leaked grant or slot).
    pub fn shutdown(mut self) {
        self.stop();
        assert!(
            self.engine.admission().drained(),
            "admission controller not drained at shutdown: {:?}",
            self.engine.admission().stats()
        );
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop; the probe connection is never handled.
        let _ = TcpStream::connect(self.addr);
        self.handoff.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, handoff: Arc<Handoff>, shutdown: Arc<AtomicBool>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                let mut queue = handoff.queue.lock().unwrap_or_else(PoisonError::into_inner);
                queue.push_back(stream);
                drop(queue);
                handoff.available.notify_one();
            }
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn worker_loop(engine: Arc<Engine>, handoff: Arc<Handoff>, shutdown: Arc<AtomicBool>) {
    loop {
        let stream = {
            let mut queue = handoff.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (q, _) = handoff
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        match stream {
            // The handlers answer a panicking request themselves; this
            // boundary only keeps the worker alive for the next connection.
            Some(stream) => {
                let _ = catch_panic(|| handle_connection(&engine, stream, &shutdown));
            }
            None => return,
        }
    }
}
