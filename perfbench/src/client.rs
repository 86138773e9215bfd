//! The benchmark's protocol client: one blocking connection, one
//! request in flight (a closed loop).
//!
//! The socket keeps the kernel's defaults (delayed ACKs, Nagle), as
//! a plain client of the service would. The service does not set
//! `TCP_NODELAY` and writes a large reply in 8 KiB pieces, so a reply
//! of several pieces can wait for the client's delayed ACK (about
//! 40 ms on Linux); the benchmark measures that as the service's
//! latency.

use crate::verify::Fnv;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply no request may outlast; hitting it fails the run.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One reply block as the client saw it. Result lines are hashed, not
/// kept; `#` trace lines and (on request) the full payload are kept.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// The status line.
    pub status: String,
    /// FNV-1a over the non-`#` payload lines, each with its newline.
    pub hash: u64,
    /// Number of non-`#` payload lines.
    pub lines: u64,
    /// Bytes of the whole block, terminator included.
    pub bytes: u64,
    /// `# span ...` lines (traced replies), without the `# ` prefix.
    pub spans: Vec<String>,
    /// Every payload line, when the call asked to keep them.
    pub payload: Vec<String>,
    /// Send → terminator read.
    pub rtt: Duration,
}

impl Reply {
    /// The client's view of a reply block handed over in process.
    pub fn from_block(status: &str, payload: &[String]) -> Reply {
        let mut reply = Reply {
            status: status.to_string(),
            ..Reply::default()
        };
        let mut hash = Fnv::new();
        for l in payload {
            match l.strip_prefix("# ") {
                Some(span) => reply.spans.push(span.to_string()),
                None => {
                    hash.line(l);
                    reply.lines += 1;
                }
            }
        }
        reply.hash = hash.finish();
        reply
    }

    /// True for `OK` replies.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// The `key=value` field `key` of the status line.
    pub fn field(&self, key: &str) -> Option<&str> {
        field(&self.status, key)
    }

    /// A numeric status field.
    pub fn num(&self, key: &str) -> Option<u64> {
        self.field(key)?.parse().ok()
    }
}

/// The `key=value` field `key` of a status line.
pub fn field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Client {
    /// Connect and consume the greeting.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut c = Client {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        };
        let greeting = c.read_reply(false)?;
        if !greeting.is_ok() {
            return Err(io::Error::other(format!(
                "bad greeting {:?}",
                greeting.status
            )));
        }
        Ok(c)
    }

    /// Send one request and read its whole reply block.
    pub fn call(&mut self, request: &str) -> io::Result<Reply> {
        self.call_keep(request, false)
    }

    /// [`Client::call`], keeping every payload line when `keep`.
    pub fn call_keep(&mut self, request: &str, keep: bool) -> io::Result<Reply> {
        let t0 = Instant::now();
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = self.read_reply(keep)?;
        reply.rtt = t0.elapsed();
        Ok(reply)
    }

    fn read_line(&mut self) -> io::Result<usize> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            ));
        }
        Ok(n)
    }

    fn read_reply(&mut self, keep: bool) -> io::Result<Reply> {
        let mut reply = Reply::default();
        reply.bytes += self.read_line()? as u64;
        reply.status = self.line.trim_end().to_string();
        let mut hash = Fnv::new();
        loop {
            reply.bytes += self.read_line()? as u64;
            let l = self.line.trim_end_matches(['\n', '\r']);
            if l == fbe_service::protocol::TERMINATOR {
                break;
            }
            if keep {
                reply.payload.push(l.to_string());
            }
            if let Some(span) = l.strip_prefix("# ") {
                reply.spans.push(span.to_string());
            } else {
                hash.line(l);
                reply.lines += 1;
            }
        }
        reply.hash = hash.finish();
        Ok(reply)
    }
}
