//! The listener: accept loop, connection-handler pool, graceful shutdown.
//!
//! One acceptor thread feeds accepted connections through a channel to a
//! fixed pool of handler threads; each handler serves one connection at a
//! time (parse → dispatch → respond → close).  An SSE query stream
//! occupies its handler for the query's lifetime — the pool size is
//! therefore the bound on concurrent *streams*, while the service's worker
//! pool bounds concurrent *engine work* and its admission queue + quotas
//! bound everything else.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] stops accepting, then lets every already-accepted
//! connection finish — in-flight SSE streams run to their `finished` event
//! rather than being cut mid-answer — then drains the service
//! ([`banks_service::Service::drain`]) so no engine work is abandoned:
//!
//! 1. the shutdown flag flips; a wake-up connection unblocks `accept`;
//! 2. the acceptor drops the channel sender and exits;
//! 3. handlers drain the channel and exit when it closes — the endless
//!    SSE tails (`/replication/stream`, `/debug/events/tail`) see the
//!    flag on their next wake (at most one 100 ms tick) and close, so a
//!    connected follower or event tail never holds shutdown up;
//! 4. `Service::drain` waits out any remaining queued/executing queries.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use banks_service::{GraphSnapshot, Service};

use crate::http::Limits;
use crate::routes::{handle_connection, GraphSource, ServerContext};

/// Configures and spawns a [`Server`].
pub struct ServerBuilder {
    service: Arc<Service>,
    addr: String,
    handler_threads: usize,
    limits: Limits,
    graph_source: Option<GraphSource>,
    leader_url: Option<String>,
}

impl ServerBuilder {
    /// The address to bind (default `127.0.0.1:0`: loopback, OS-assigned
    /// port — read it back with [`Server::local_addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Number of connection-handler threads (default 8; at least 1).  This
    /// bounds concurrent HTTP connections, including long-lived SSE
    /// streams; up to 2× this many accepted connections wait in a bounded
    /// hand-off queue, and everything beyond that stays in the kernel
    /// accept backlog (the acceptor blocks rather than buffer without
    /// limit).
    pub fn handler_threads(mut self, threads: usize) -> Self {
        self.handler_threads = threads.max(1);
        self
    }

    /// Overrides the HTTP parser limits (head/body byte caps).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Installs the snapshot factory behind `POST /admin/swap` — typically
    /// "re-extract the graph from the system of record and derive prestige
    /// and index".  Without one, a swap reindexes the currently-served
    /// graph (still a fresh epoch, per the swap contract).
    pub fn graph_source(
        mut self,
        source: impl Fn() -> GraphSnapshot + Send + Sync + 'static,
    ) -> Self {
        self.graph_source = Some(Box::new(source));
        self
    }

    /// Declares the leader this process replicates from.  A follower
    /// rejects `POST /admin/mutate` and `POST /admin/swap` with
    /// `409 Conflict`; when the leader's base URL is known, the response
    /// carries a `Location` header pointing at the same endpoint on the
    /// leader so write traffic can be redirected.
    pub fn leader_url(mut self, url: impl Into<String>) -> Self {
        self.leader_url = Some(url.into());
        self
    }

    /// Binds the listener and spawns the acceptor + handler threads.
    pub fn spawn(self) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&self.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let context = Arc::new(ServerContext {
            service: Arc::clone(&self.service),
            graph_source: self.graph_source,
            limits: self.limits,
            leader_url: self.leader_url,
            shutdown: Arc::clone(&shutdown),
        });

        // A *bounded* hand-off queue: when every handler is busy and the
        // queue is full, the acceptor blocks, the kernel accept backlog
        // fills, and the OS refuses further connections — backpressure
        // ends at the TCP layer instead of as unbounded open fds here.
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            sync_channel(self.handler_threads * 2);
        let rx = Arc::new(Mutex::new(rx));
        let handlers = (0..self.handler_threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let context = Arc::clone(&context);
                std::thread::Builder::new()
                    .name(format!("banks-http-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only to pop; serving happens
                        // unlocked so handlers work in parallel.
                        let stream = rx.lock().expect("conn queue lock").recv();
                        match stream {
                            Ok(stream) => handle_connection(&context, stream),
                            Err(_) => return, // acceptor gone, queue drained
                        }
                    })
                    .expect("spawn handler thread")
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("banks-accept".to_string())
                .spawn(move || {
                    // `tx` moves in here: when this thread returns, the
                    // channel closes and the handlers wind down.
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        match stream {
                            Ok(stream) => {
                                if tx.send(stream).is_err() {
                                    return;
                                }
                            }
                            // Transient accept errors (EMFILE, aborted
                            // handshakes) must not kill the server — but a
                            // persistent one (fd exhaustion) must not spin
                            // the acceptor at full CPU either.
                            Err(_) => {
                                std::thread::sleep(Duration::from_millis(50));
                                continue;
                            }
                        }
                    }
                })
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            local_addr,
            service: self.service,
            shutdown,
            acceptor: Some(acceptor),
            handlers,
        })
    }
}

/// The HTTP/SSE front-end: a running listener over an
/// [`Arc<Service>`](banks_service::Service).
///
/// ```
/// use std::io::{Read, Write};
/// use std::sync::Arc;
///
/// use banks_graph::GraphBuilder;
/// use banks_server::Server;
/// use banks_service::Service;
///
/// let mut b = GraphBuilder::new();
/// let author = b.add_node("author", "Jim Gray");
/// let paper = b.add_node("paper", "Granularity of locks");
/// let writes = b.add_node("writes", "w0");
/// b.add_edge(writes, author).unwrap();
/// b.add_edge(writes, paper).unwrap();
///
/// let service = Arc::new(Service::builder(b.build_default()).workers(2).build());
/// let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
///
/// // Any HTTP client works; here, a raw socket.
/// let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
/// conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
/// let mut response = String::new();
/// conn.read_to_string(&mut response).unwrap();
/// assert!(response.starts_with("HTTP/1.1 200 OK"));
/// assert!(response.contains("\"status\":\"ok\""));
///
/// server.shutdown();
/// ```
pub struct Server {
    local_addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts configuring a server over `service`.
    pub fn builder(service: Arc<Service>) -> ServerBuilder {
        ServerBuilder {
            service,
            addr: "127.0.0.1:0".to_string(),
            handler_threads: 8,
            limits: Limits::default(),
            graph_source: None,
            leader_url: None,
        }
    }

    /// The bound address (useful with the default OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server fronts (shared: submit in-process, read
    /// metrics, swap graphs — the server observes every effect).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, finish every accepted connection
    /// (in-flight SSE streams included), drain the service.  Equivalent to
    /// dropping the server, but explicit.
    pub fn shutdown(self) {}

    fn begin_shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` so the acceptor observes the flag.  The wake-up
        // connection is closed immediately; if it raced an actual accept,
        // the handler simply sees ConnectionClosed and moves on.  A bind
        // to the unspecified address (0.0.0.0 / ::) is not connectable on
        // every platform, so the wake targets loopback on the same port.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let woke = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1)).is_ok();
        if woke {
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
            for handler in self.handlers.drain(..) {
                let _ = handler.join();
            }
        } else {
            // The acceptor could not be woken (firewalled loopback, dead
            // listener): joining would hang forever.  Detach the threads —
            // the flag is set, so the acceptor exits at its next accept
            // and takes the handlers with it — and still drain the engine
            // work below.
            self.acceptor.take();
            self.handlers.clear();
        }
        self.service.drain();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}
