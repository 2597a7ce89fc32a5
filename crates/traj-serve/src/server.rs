//! Connection handling: one request line in, one response line out.
//!
//! [`serve_connection`] is generic over `BufRead`/`Write` so the same
//! loop serves a TCP socket, the stdio mode (`traj-serve --stdio`), and
//! in-memory test transports. [`TcpServer`] wraps it in a
//! thread-per-connection accept loop with `TCP_NODELAY` (the protocol
//! is one small line per decision; Nagle would serialise the daemon's
//! p99 behind 40 ms ACK delays).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::engine::Engine;

/// Longest request line the daemon reads, in bytes, newline excluded.
/// The largest legitimate request is an `init` carrying a whole flow
/// set, about 152 KB at 1000 flows; 8 MiB leaves room for sets fifty
/// times that size while bounding what a client that never sends a
/// newline can make the daemon buffer. A longer line is answered with a
/// `protocol` error and the connection is closed.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 << 20;

/// Serves one connection until EOF, a fatal I/O error, an over-long
/// request line, or daemon shutdown. Returns the number of requests
/// served.
pub fn serve_connection<R: BufRead, W: Write>(
    engine: &Engine,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<u64> {
    let mut served = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE_BYTES as u64 + 1)
            .read_line(&mut line)?;
        if read == 0 {
            break;
        }
        let request = match line.strip_suffix('\n') {
            Some(l) => l.strip_suffix('\r').unwrap_or(l),
            None if read > MAX_REQUEST_LINE_BYTES => {
                let mut reply = engine.protocol_error(
                    None,
                    format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                );
                reply.push('\n');
                writer.write_all(reply.as_bytes())?;
                writer.flush()?;
                break;
            }
            // The last line of the stream may lack its newline.
            None => &line,
        };
        if request.trim().is_empty() {
            continue;
        }
        // Line and newline in one write: on a `TCP_NODELAY` socket two
        // writes go out as two segments.
        let mut reply = engine.dispatch_line(request);
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        served += 1;
        if engine.is_stopping() {
            break;
        }
    }
    Ok(served)
}

/// How long [`TcpServer::wait`] lets open connections finish after the
/// acceptor stopped. Connections that answered a request since the stop
/// close at once; only an idle client holds the wait this long.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// A listening daemon: accept loop + thread per connection.
pub struct TcpServer {
    engine: Arc<Engine>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    live: Arc<LiveConnections>,
}

/// Count of connection threads still serving, so that shutdown does not
/// end the process before the `shutdown` reply itself is written.
#[derive(Default)]
struct LiveConnections {
    count: Mutex<usize>,
    closed: Condvar,
}

/// Decrements the live count when a connection thread ends.
struct LiveGuard(Arc<LiveConnections>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        let mut n = self.0.count.lock().unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        self.0.closed.notify_all();
    }
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port — [`Self::addr`]
    /// reports the bound one) and starts accepting.
    pub fn bind(engine: Arc<Engine>, addr: &str) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let eng = engine.clone();
        let live = Arc::new(LiveConnections::default());
        let lv = live.clone();
        let accept = std::thread::spawn(move || accept_loop(listener, eng, lv));
        Ok(TcpServer {
            engine,
            addr,
            accept: Some(accept),
            live,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon has shut down (a client sent `shutdown`),
    /// the accept loop has exited and the open connections have closed
    /// (idle ones are given up on after [`DRAIN_GRACE`]).
    pub fn wait(mut self) {
        self.engine.join();
        // The acceptor blocks in `accept`; poke it so it observes the
        // stop flag and exits.
        if let Ok(poke) = TcpStream::connect(self.addr) {
            drop(poke);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The connection that asked for the shutdown writes its reply
        // after the writer has exited; returning now could end the
        // process first and cut that reply off.
        let deadline = Instant::now() + DRAIN_GRACE;
        let mut n = self.live.count.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            n = match self.live.closed.wait_timeout(n, left) {
                Ok((g, _)) => g,
                Err(e) => e.into_inner().0,
            };
        }
    }
}

fn accept_loop(listener: TcpListener, engine: Arc<Engine>, live: Arc<LiveConnections>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if engine.is_stopping() {
            break;
        }
        let _ = stream.set_nodelay(true);
        let eng = engine.clone();
        *live.count.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        let guard = LiveGuard(live.clone());
        std::thread::spawn(move || {
            let _guard = guard;
            let reader = match stream.try_clone() {
                Ok(r) => BufReader::new(r),
                Err(_) => return,
            };
            let _ = serve_connection(&eng, reader, stream);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::io::BufRead;
    use traj_analysis::AnalysisConfig;
    use traj_diffserv::AdmissionController;
    use traj_model::examples::paper_example;

    fn start_tcp() -> (Arc<Engine>, TcpServer) {
        let ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let engine = Arc::new(Engine::start(Some(ac), EngineConfig::default()));
        let server = TcpServer::bind(engine.clone(), "127.0.0.1:0").unwrap();
        (engine, server)
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out.trim_end().to_string()
    }

    #[test]
    fn stdio_style_transport_serves_lines() {
        let ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let engine = Engine::start(Some(ac), EngineConfig::default());
        let input = "{\"id\":1,\"op\":\"ping\"}\n\n{\"id\":2,\"op\":\"report\"}\n";
        let mut out: Vec<u8> = Vec::new();
        let served = serve_connection(&engine, input.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 2, "blank lines are skipped");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"pong\":true"));
        assert!(lines[1].contains("\"all_schedulable\":true"));
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn over_long_request_lines_get_a_protocol_error_and_close() {
        /// An endless newline-free stream that counts what is pulled.
        struct Endless {
            pulled: usize,
        }
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b' ');
                self.pulled += buf.len();
                Ok(buf.len())
            }
        }
        let ac = AdmissionController::new(paper_example(), AnalysisConfig::default());
        let engine = Engine::start(Some(ac), EngineConfig::default());

        let mut endless = Endless { pulled: 0 };
        let reader = BufReader::new(&mut endless);
        let capacity = reader.capacity();
        let mut out: Vec<u8> = Vec::new();
        let served = serve_connection(&engine, reader, &mut out).unwrap();
        assert_eq!(served, 0);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.lines().count(),
            1,
            "one reply, then the connection closes"
        );
        assert!(text.contains("\"kind\":\"protocol\""), "{text}");
        assert!(
            endless.pulled <= MAX_REQUEST_LINE_BYTES + 1 + capacity,
            "read {} bytes of an endless line",
            endless.pulled
        );

        // A line of exactly the cap is still a request, and a fresh
        // connection is served as usual.
        let ping = "{\"id\":1,\"op\":\"ping\"}";
        let mut at_cap = ping.to_string();
        at_cap.push_str(&" ".repeat(MAX_REQUEST_LINE_BYTES - ping.len()));
        at_cap.push_str("\n{\"id\":2,\"op\":\"ping\"}\n");
        let mut out: Vec<u8> = Vec::new();
        let served = serve_connection(&engine, at_cap.as_bytes(), &mut out).unwrap();
        assert_eq!(served, 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"pong\":true").count(), 2, "{text}");

        let met = engine.dispatch_line("{\"op\":\"metrics\"}");
        assert!(met.contains("\"protocol_errors\":1"), "{met}");
        engine.dispatch_line("{\"op\":\"shutdown\"}");
        engine.join();
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let (_engine, server) = start_tcp();
        let addr = server.addr();
        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        assert!(roundtrip(&mut a, "{\"id\":1,\"op\":\"ping\"}").contains("\"pong\":true"));
        assert!(roundtrip(&mut b, "{\"id\":1,\"op\":\"metrics\"}").contains("\"ok\":true"));
        let bye = roundtrip(&mut a, "{\"id\":2,\"op\":\"shutdown\"}");
        assert!(bye.contains("\"stopping\":true"), "{bye}");
        server.wait();
    }

    /// `wait` pokes the acceptor once the writer has exited; the stop
    /// flag must already be up by then, or the acceptor takes the poke
    /// for a client and blocks in `accept` for good. And `wait` must not
    /// return before the `shutdown` reply is written, or the process
    /// exits with the reply unsent.
    #[test]
    fn wait_returns_after_every_shutdown_with_its_reply_sent() {
        use std::io::Read;
        use std::sync::mpsc::channel;
        for round in 0..200 {
            let (_engine, server) = start_tcp();
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
            let (done_tx, done_rx) = channel();
            std::thread::spawn(move || {
                server.wait();
                let _ = done_tx.send(());
            });
            assert!(
                done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
                "round {round}: TcpServer::wait hung after shutdown"
            );
            // Without blocking: the whole reply and the end of stream
            // must already be in the socket when `wait` returns.
            conn.set_nonblocking(true).unwrap();
            let mut bye = String::new();
            let read = conn.read_to_string(&mut bye);
            assert!(read.is_ok(), "round {round}: {read:?} after {bye:?}");
            assert!(bye.contains("\"stopping\":true"), "round {round}: {bye:?}");
        }
    }
}
