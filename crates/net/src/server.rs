//! A small threaded TCP service loop.
//!
//! [`serve`] binds a listener and runs an accept loop on a background
//! thread, handing every inbound connection (already wrapped in a
//! [`FramedStream`]) to a caller-supplied session handler on its own
//! thread — the substrate the sweep-farm coordinator builds its
//! request/response session loop on. The returned [`ServerHandle`] owns a
//! stop flag that both the accept loop and the handlers observe, so a
//! service can drain politely (e.g. answer the next poll with `Shutdown`)
//! instead of vanishing mid-conversation.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::FramedStream;

/// How often the accept loop polls the stop flag while no connection is
/// pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// A running [`serve`] loop: its bound address, stop flag and accept
/// thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared stop flag (the same one handlers receive).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Signals the accept loop and all session handlers to wind down.
    /// Sessions blocked on a read finish when their peer disconnects.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops (if not already stopped) and joins the accept thread.
    /// Session threads are detached; they exit when their connection
    /// closes or their handler observes the stop flag.
    pub fn shutdown(mut self) {
        self.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves every inbound
/// connection with `handler` on a dedicated thread.
///
/// The handler receives the framed connection, the peer address and the
/// shared stop flag; it owns the session for the connection's lifetime.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<H>(addr: &str, handler: H) -> std::io::Result<ServerHandle>
where
    H: Fn(FramedStream, SocketAddr, &AtomicBool) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    // Non-blocking accept so the loop can observe the stop flag.
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let accept_thread = std::thread::spawn(move || {
        while !loop_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((sock, peer)) => {
                    // Sessions themselves block on reads as usual.
                    if sock.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let handler = Arc::clone(&handler);
                    let session_stop = Arc::clone(&loop_stop);
                    std::thread::spawn(move || {
                        handler(FramedStream::new(sock), peer, &session_stop);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => break,
            }
        }
    });
    Ok(ServerHandle { addr: local, stop, accept_thread: Some(accept_thread) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;
    use std::net::TcpStream;

    #[test]
    fn serves_concurrent_echo_sessions() {
        let handle = serve("127.0.0.1:0", |mut s, _peer, _stop| {
            while let Ok(msg) = s.recv() {
                if s.send(&msg).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let addr = handle.local_addr();
        let clients: Vec<_> = (0..3u32)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut s = FramedStream::new(TcpStream::connect(addr).unwrap());
                    for i in 0..5 {
                        let msg = Message::Heartbeat { worker_id: u64::from(id * 100 + i) };
                        s.send(&msg).unwrap();
                        assert_eq!(s.recv().unwrap(), msg);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        handle.shutdown();
    }

    #[test]
    fn stop_flag_reaches_sessions() {
        let handle = serve("127.0.0.1:0", |mut s, _peer, stop| {
            while let Ok(msg) = s.recv() {
                let reply =
                    if stop.load(Ordering::SeqCst) { Message::Shutdown } else { msg.clone() };
                if s.send(&reply).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let mut s = FramedStream::new(TcpStream::connect(handle.local_addr()).unwrap());
        s.send(&Message::NoWork { retry_ms: 5 }).unwrap();
        assert_eq!(s.recv().unwrap(), Message::NoWork { retry_ms: 5 });
        handle.stop();
        s.send(&Message::NoWork { retry_ms: 5 }).unwrap();
        assert_eq!(s.recv().unwrap(), Message::Shutdown);
        handle.shutdown();
    }
}
