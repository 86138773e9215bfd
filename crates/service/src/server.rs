//! TCP transport: `std::net::TcpListener`, thread-per-connection.
//!
//! Every accepted stream runs with `TCP_NODELAY`, and every reply
//! block leaves in one `write_all` of a buffer the connection reuses.
//! A reply therefore never waits on Nagle's algorithm for the
//! client's (delayed) ACK of an earlier piece, whatever its size and
//! whatever socket options the client keeps.
//!
//! `SHUTDOWN` ends every connection, not only the requester's: the
//! server keeps a clone of each accepted stream, and once the accept
//! loop stops it shuts down the read half of every one and joins the
//! connection threads before [`Server::run`] returns.

use crate::engine::{Engine, Outcome, Session};
use crate::metrics::bump;
use crate::protocol::Reply;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a single request line. Anything longer is answered with
/// `ERR PARSE` and discarded without ever being buffered whole, so one
/// client cannot balloon server memory with a newline-free stream.
pub const MAX_LINE_BYTES: u64 = 64 * 1024;

/// A bound-but-not-yet-serving server. Bind with port 0 for an
/// ephemeral port, read it back via [`Server::local_addr`], then
/// [`Server::run`] the accept loop (it returns after `SHUTDOWN`).
pub struct Server {
    listener: Arc<TcpListener>,
    engine: Arc<Engine>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) for `engine`.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Server> {
        Ok(Server {
            listener: Arc::new(TcpListener::bind(addr)?),
            engine,
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve connections until a client issues `SHUTDOWN`.
    /// Each connection gets its own thread; in-flight queries observe
    /// the engine's cancellation token and stop cooperatively. Returns
    /// once every connection has been closed and its thread joined.
    pub fn run(self) -> std::io::Result<()> {
        self.run_inner(true)
    }

    /// The accept loop behind [`Server::run`]. `allow_self_connect`
    /// exists so tests can prove the loop terminates through the poll
    /// deadline alone, with the fast-path wake-up disabled.
    fn run_inner(self, allow_self_connect: bool) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        // A blocking accept() cannot be interrupted from another
        // thread: a thread already parked in accept(2) ignores later
        // O_NONBLOCK flips, and std offers no accept-with-deadline.
        // The listener therefore runs non-blocking and the loop parks
        // in short sleeps while idle, so SHUTDOWN terminates within
        // one poll interval even when the wake-up self-connect cannot
        // get through (exhausted ephemeral ports, firewalled
        // loopback, …). The self-connect remains as the fast path
        // that snaps the shutdown latency below the poll interval.
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
        let stopped = loop {
            // Forget finished connections so their sockets close.
            conns.retain(|(_, thread)| !thread.is_finished());
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.engine.is_shutdown() {
                        break Ok(());
                    }
                    std::thread::sleep(ACCEPT_POLL_INTERVAL);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            // Accepted sockets inherit non-blocking mode on some
            // platforms; connection I/O must block.
            if let Err(e) = stream.set_nonblocking(false) {
                break Err(e);
            }
            if self.engine.is_shutdown() {
                // Raced with shutdown (possibly our own wake-up
                // connection): drop the stream and stop accepting.
                break Ok(());
            }
            let Ok(handle) = stream.try_clone() else {
                // Without a handle the server could not end this
                // connection at shutdown, so it does not serve it.
                continue;
            };
            bump(&self.engine.metrics.connections_accepted);
            let engine = Arc::clone(&self.engine);
            let thread = std::thread::spawn(move || {
                let _ = serve_connection(stream, &engine);
                // Wake the accept loop whenever the engine is stopping
                // — deliberately not only on a clean SHUTDOWN reply: if
                // the client closed without reading (the reply write
                // failed with a pipe error), the token is already
                // cancelled and the accept loop must still be unblocked
                // or the server would hang in accept() forever.
                if engine.is_shutdown() && allow_self_connect {
                    wake_accept_loop(addr);
                }
            });
            conns.push((handle, thread));
        };
        close_all(conns);
        stopped
    }
}

/// How long [`close_all`] lets connection threads finish on their own
/// before it shuts their sockets down for writing too.
const CLOSE_GRACE: Duration = Duration::from_secs(2);

/// End every connection after the accept loop stopped, and join their
/// threads. Shutting down the read half makes each thread's next read
/// see EOF. The write half stays open, so a reply still being written —
/// the `SHUTDOWN` requester's `OK bye`, or an in-flight query's answer
/// to its cancellation — gets out. A thread still running after
/// [`CLOSE_GRACE`] may be blocked writing to a peer that does not
/// read, so its write half is then shut down as well, which fails
/// that write.
fn close_all(conns: Vec<(TcpStream, JoinHandle<()>)>) {
    for (stream, _) in &conns {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let deadline = Instant::now() + CLOSE_GRACE;
    while Instant::now() < deadline && conns.iter().any(|(_, t)| !t.is_finished()) {
        std::thread::sleep(ACCEPT_POLL_INTERVAL);
    }
    for (stream, thread) in conns {
        if !thread.is_finished() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = thread.join();
    }
}

/// How long the accept loop sleeps between polls while no connection
/// is pending. Bounds both shutdown latency (when the wake-up
/// self-connect fails) and worst-case accept latency for new clients.
const ACCEPT_POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Fast-path wake for the accept loop after shutdown: a bounded number
/// of self-connect attempts so the loop observes the shutdown flag
/// immediately instead of after its next [`ACCEPT_POLL_INTERVAL`]
/// sleep. Failure is fine — the poll deadline is the guarantee.
fn wake_accept_loop(addr: SocketAddr) {
    for _ in 0..3 {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
            return;
        }
    }
}

/// Serve one connection until the client disconnects or asks for
/// shutdown.
///
/// Request lines are read as raw bytes with a [`MAX_LINE_BYTES`] cap:
/// an oversized line is answered with `ERR PARSE` and drained without
/// buffering, and bytes that are not valid UTF-8 are answered with
/// `ERR PARSE` instead of killing the session — in both cases the
/// connection stays alive for the next request.
///
/// Each reply is rendered whole into `out` and sent with one
/// `write_all`, so no piece boundary depends on a buffer size.
fn serve_connection(stream: TcpStream, engine: &Engine) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut out: Vec<u8> = Vec::new();
    let mut send = |reply: &Reply| -> std::io::Result<()> {
        out.clear();
        reply.write_to(&mut out)?;
        writer.write_all(&out)
    };
    send(&Reply::greeting())?;
    // Per-connection session: the TRACE toggle lives here and dies
    // with the connection.
    let mut session = Session::new();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let n = reader
            .by_ref()
            .take(MAX_LINE_BYTES)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(()); // client closed
        }
        if buf.last() != Some(&b'\n') && n as u64 == MAX_LINE_BYTES {
            // The cap was hit before a newline arrived: reject the
            // request, discard the rest of the line, keep serving.
            drain_to_newline(&mut reader)?;
            send(&Reply::err(
                "PARSE",
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ))?;
            continue;
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s,
            Err(_) => {
                let lossy = String::from_utf8_lossy(&buf);
                let preview: String = lossy.trim().chars().take(40).collect();
                send(&Reply::err(
                    "PARSE",
                    format!("request is not valid UTF-8: {preview:?}"),
                ))?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match engine.handle_line_in(line.trim(), &mut session) {
            Outcome::Reply(reply) => send(&reply)?,
            Outcome::Shutdown(reply) => {
                send(&reply)?;
                return Ok(());
            }
        }
    }
}

/// Consume and discard buffered input through the next `\n` (or EOF).
/// Used to resynchronize after an oversized request line; works in
/// `fill_buf`-sized chunks so the discarded line is never materialized.
fn drain_to_newline(reader: &mut BufReader<TcpStream>) -> std::io::Result<()> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(()); // EOF: the next read_until reports it
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                reader.consume(len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use std::io::BufWriter;

    /// Minimal in-test client: send a line, read one reply block.
    pub(crate) fn roundtrip(
        reader: &mut impl BufRead,
        writer: &mut impl Write,
        cmd: &str,
    ) -> (String, Vec<String>) {
        writeln!(writer, "{cmd}").unwrap();
        writer.flush().unwrap();
        read_block(reader)
    }

    pub(crate) fn read_block(reader: &mut impl BufRead) -> (String, Vec<String>) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let status = status.trim_end().to_string();
        let mut payload = Vec::new();
        loop {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            let l = l.trim_end().to_string();
            if l == crate::protocol::TERMINATOR {
                break;
            }
            payload.push(l);
        }
        (status, payload)
    }

    #[test]
    fn serves_a_session_and_shuts_down() {
        let engine = Engine::new(ServiceConfig::default());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let (greet, _) = read_block(&mut reader);
        assert!(greet.contains("protocol=1"), "{greet}");

        let (s, _) = roundtrip(&mut reader, &mut writer, "PING");
        assert_eq!(s, "OK pong");
        let (s, _) = roundtrip(&mut reader, &mut writer, "GEN g uniform:10,10,40,1");
        assert!(s.contains("upper=10"), "{s}");
        let (s, payload) = roundtrip(
            &mut reader,
            &mut writer,
            "ENUM g ssfbc alpha=1 beta=1 delta=1",
        );
        assert!(s.starts_with("OK model=SSFBC"), "{s}");
        assert!(!payload.is_empty());

        let (s, _) = roundtrip(&mut reader, &mut writer, "SHUTDOWN");
        assert_eq!(s, "OK bye");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_from_a_client_that_never_reads_still_stops_the_server() {
        let engine = Engine::new(ServiceConfig::default());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        {
            // Send SHUTDOWN and slam the connection without ever
            // reading the reply: the reply write may fail, but the
            // accept loop must still be woken.
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"SHUTDOWN\n").unwrap();
            stream.flush().unwrap();
            stream.shutdown(std::net::Shutdown::Both).ok();
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(handle.join()).ok();
        });
        let joined = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("server exited within the timeout");
        joined.unwrap().unwrap();
        assert!(engine.is_shutdown());
    }

    #[test]
    fn shutdown_terminates_even_when_self_connect_is_unavailable() {
        // Force the fallback: with the self-connect wake disabled the
        // only path out of accept() is the poll-interval deadline.
        let engine = Engine::new(ServiceConfig::default());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run_inner(false));

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let _ = read_block(&mut reader);
        let (s, _) = roundtrip(&mut reader, &mut writer, "SHUTDOWN");
        assert_eq!(s, "OK bye");

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(handle.join()).ok();
        });
        let joined = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("fallback wake-up stopped the accept loop");
        joined.unwrap().unwrap();
    }
}
