//! The servers under test, run as threads of the benchmark process:
//! `fbe_service::server::Server`s bound to port 0, so no process spawn
//! or readiness poll is ever timed.

use crate::client::Client;
use fbe_service::engine::Engine;
use fbe_service::server::Server;
use fbe_service::ServiceConfig;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A front server, plus its shard servers when it is a coordinator.
pub struct Fleet {
    /// The engine behind the front server (what clients talk to).
    pub front: Arc<Engine>,
    /// The front server's address.
    pub addr: SocketAddr,
    /// Shard server addresses (empty for a single server).
    pub shard_addrs: Vec<SocketAddr>,
    threads: Vec<JoinHandle<io::Result<()>>>,
}

fn bind(engine: Arc<Engine>, bind_time: &mut Duration) -> io::Result<Server> {
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", engine)?;
    *bind_time += t.elapsed();
    Ok(server)
}

impl Fleet {
    /// Start `shards` shard servers and a front server (a coordinator
    /// over them when `shards > 0`), all with the default service
    /// configuration. Returns the fleet and the time spent binding;
    /// thread spawns are not counted.
    pub fn start(shards: usize) -> io::Result<(Fleet, Duration)> {
        let mut bind_time = Duration::ZERO;
        let mut threads = Vec::new();
        let mut shard_addrs = Vec::new();
        for _ in 0..shards {
            let server = bind(Engine::new(ServiceConfig::default()), &mut bind_time)?;
            shard_addrs.push(server.local_addr()?);
            threads.push(std::thread::spawn(move || server.run()));
        }
        let front = Engine::new(ServiceConfig {
            shards: shard_addrs.iter().map(SocketAddr::to_string).collect(),
            ..ServiceConfig::default()
        });
        let server = bind(Arc::clone(&front), &mut bind_time)?;
        let addr = server.local_addr()?;
        threads.push(std::thread::spawn(move || server.run()));
        Ok((
            Fleet {
                front,
                addr,
                shard_addrs,
                threads,
            },
            bind_time,
        ))
    }

    /// Stop every server (a coordinator forwards `SHUTDOWN` to its
    /// shards) and join their threads. `client`, when given, sends the
    /// `SHUTDOWN`; otherwise the front engine handles it in process.
    pub fn stop(self, client: Option<Client>) -> io::Result<()> {
        let reply = match client {
            Some(mut c) => c.call("SHUTDOWN")?.status,
            None => self.front.handle_line("SHUTDOWN").reply().status.clone(),
        };
        if reply != "OK bye" {
            return Err(io::Error::other(format!("SHUTDOWN answered {reply:?}")));
        }
        for t in self.threads {
            t.join()
                .map_err(|_| io::Error::other("server thread panicked"))??;
        }
        Ok(())
    }
}
