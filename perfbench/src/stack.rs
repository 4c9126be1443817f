//! The system under test, in-process: a durable leader `Service` behind a
//! `Server`, and a durable follower `Service` fed by a `Follower` over
//! loopback, behind its own `Server`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks::prelude::*;

use crate::client;

/// Workers per service: the benchmark's host has two cores.
pub const WORKERS: usize = 2;

pub struct Stack {
    pub leader: Arc<Service>,
    pub follower: Arc<Service>,
    pub leader_addr: SocketAddr,
    pub follower_addr: SocketAddr,
    pub leader_dir: PathBuf,
    replicator: Follower,
    leader_server: Server,
    follower_server: Server,
}

/// What one boot cost.
pub struct Boot {
    /// Service construction to the first request served by both servers.
    pub setup_s: f64,
    /// `Follower::start` until the follower serves the leader's epoch.
    pub bootstrap_ms: f64,
}

fn service(graph: DataGraph, dir: &Path, fsync: FsyncPolicy) -> Service {
    Service::builder(graph)
        .workers(WORKERS)
        .queue_capacity(1024)
        .cache_capacity(256)
        .persistence(dir, fsync)
        .build()
}

/// What a follower boots with before its first bootstrap replaces it.
fn placeholder_graph() -> DataGraph {
    let mut builder = GraphBuilder::new();
    builder.add_node("boot", "placeholder");
    builder.build_default()
}

impl Stack {
    /// Boots the stack on fresh data directories under `root`.
    pub fn boot(graph: &DataGraph, root: &Path) -> Result<(Stack, Boot), String> {
        let leader_dir = root.join("leader");
        let follower_dir = root.join("follower");
        for dir in [&leader_dir, &follower_dir] {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let started = Instant::now();
        let leader = Arc::new(service(graph.clone(), &leader_dir, FsyncPolicy::Always));
        leader.set_replication_role(ReplicationRole::Leader);
        leader
            .checkpoint()
            .map_err(|e| format!("leader checkpoint: {e}"))?;
        let leader_server = Server::builder(Arc::clone(&leader))
            .spawn()
            .map_err(|e| format!("leader server: {e}"))?;
        let leader_addr = leader_server.local_addr();
        let leader_url = format!("http://{leader_addr}");

        // The follower group-commits (the default policy): its fsyncs would
        // otherwise contend with the leader's on the same disk.
        let follower = Arc::new(service(
            placeholder_graph(),
            &follower_dir,
            FsyncPolicy::default(),
        ));
        let bootstrap_started = Instant::now();
        let replicator = Follower::start(Arc::clone(&follower), &leader_url)?;
        let target = leader.epoch();
        while follower.epoch() != target {
            if bootstrap_started.elapsed() > Duration::from_secs(30) {
                return Err("follower did not bootstrap within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let bootstrap_ms = bootstrap_started.elapsed().as_secs_f64() * 1e3;
        let follower_server = Server::builder(Arc::clone(&follower))
            .leader_url(leader_url)
            .spawn()
            .map_err(|e| format!("follower server: {e}"))?;
        let follower_addr = follower_server.local_addr();
        for addr in [leader_addr, follower_addr] {
            let (status, body, _) = client::request(addr, "GET", "/healthz", "")?;
            if status != 200 {
                return Err(format!("/healthz answered {status}: {body}"));
            }
        }
        let setup_s = started.elapsed().as_secs_f64();
        Ok((
            Stack {
                leader,
                follower,
                leader_addr,
                follower_addr,
                leader_dir,
                replicator,
                leader_server,
                follower_server,
            },
            Boot {
                setup_s,
                bootstrap_ms,
            },
        ))
    }

    /// Stops the replication client, then both servers, then both services
    /// (each waits for its threads), leaving the data directories closed.
    pub fn shutdown(self) {
        self.replicator.stop();
        self.follower_server.shutdown();
        self.leader_server.shutdown();
        drop(self.follower);
        drop(self.leader);
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current one.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak resident set: {e}"))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
