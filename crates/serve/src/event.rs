//! The event-driven connection engine: one thread, `poll(2)`
//! readiness, a state machine per connection.
//!
//! Every connection is nonblocking and multiplexed by a single loop:
//!
//! - **Reading** — bytes accumulate in `inbuf`; the incremental parser
//!   ([`try_parse_request`]) carves out complete requests. Pipelined
//!   requests are answered back-to-back, in order, from one buffer
//!   pass.
//! - **Waiting** — a `POST /run` miss suspends the connection on its
//!   job id. The connection costs a table slot and nothing else: no
//!   thread, no stack. While suspended, `POLLIN` is *not* registered,
//!   so a client streaming further pipelined requests is backpressured
//!   by the kernel socket buffer.
//! - **Writing** — staged response bytes drain through `POLLOUT` as
//!   the peer accepts them.
//!
//! Workers never touch sockets. When a job retires, [`JobQueue`]'s
//! notify hook writes one byte to the loop's wake socket; the loop
//! then re-arms every connection whose job completed. Scenario
//! computation stays on the worker pool — the loop only parses,
//! routes, and shuffles buffers.
//!
//! The wake channel is a loopback TCP pair rather than a pipe so the
//! whole engine needs no FFI beyond `poll(2)` itself (declared
//! directly below — `std` already links libc on every unix target).
//!
//! [`JobQueue`]: crate::jobs::JobQueue
//! [`try_parse_request`]: crate::http::try_parse_request

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{try_parse_request, Response, TryParse, KEEPALIVE_IDLE_TIMEOUT, READ_TIMEOUT};
use crate::server::{
    batch_item_outcome, batch_response, job_outcome_response, request_error_response, route,
    BatchItem, Routed, ServeState,
};

/// How long a shutdown waits for staged response bytes to drain
/// before dropping the remaining connections.
const SHUTDOWN_FLUSH_TIMEOUT: Duration = Duration::from_secs(3);

/// Upper bound on one poll wait, so idle-timeout and shutdown checks
/// run at least this often even with no socket activity.
const POLL_TICK: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------------
// poll(2)
// ---------------------------------------------------------------------------

mod sys {
    use std::io;

    /// `struct pollfd` (POSIX layout, identical on every unix libc).
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }

    /// `poll(2)` with EINTR retry. `timeout_ms < 0` blocks forever.
    pub fn poll_retry(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe {
                poll(
                    fds.as_mut_ptr(),
                    fds.len() as core::ffi::c_ulong,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wake channel
// ---------------------------------------------------------------------------

/// The sending half of the loop's wake channel. Cheap to clone; safe
/// to call from any thread (worker completions, shutdown).
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<TcpStream>,
}

impl Waker {
    /// Nudges the event loop out of `poll`. Best-effort: a full
    /// socket buffer already guarantees a pending wakeup.
    pub(crate) fn wake(&self) {
        let _ = (&*self.tx).write_all(&[1]);
    }
}

/// Builds the loopback wake pair: returns the (cloneable) sender and
/// the nonblocking receiver the event loop polls.
pub(crate) fn wake_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

// ---------------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------------

/// What a suspended connection is waiting on.
enum Waiting {
    Job {
        id: u64,
        fingerprint: String,
        keep_alive: bool,
        started: Instant,
        path: String,
    },
    Batch {
        items: Vec<BatchItem>,
        keep_alive: bool,
        started: Instant,
        path: String,
    },
}

struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    inbuf: Vec<u8>,
    /// Head-terminator scan cursor into `inbuf` (the O(n) rescan fix).
    scanned: usize,
    /// Staged response bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    outpos: usize,
    /// `Some` while a `POST /run` miss is in flight on the job queue.
    waiting: Option<Waiting>,
    /// Close once `outbuf` drains (error responses, `Connection:
    /// close`, shutdown).
    close_after_flush: bool,
    /// Dead; reaped at the end of the loop iteration.
    dead: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            scanned: 0,
            outbuf: Vec::new(),
            outpos: 0,
            waiting: None,
            close_after_flush: false,
            dead: false,
            last_activity: now,
        }
    }

    /// Register `POLLIN`? Not while suspended (pipelined responses are
    /// in-order, so further requests must queue in the kernel) and not
    /// once draining toward close.
    fn wants_read(&self) -> bool {
        self.waiting.is_none() && !self.close_after_flush
    }

    fn wants_write(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Stages a finished response, records its latency, and stamps a
    /// `request` span (labelled with the path) into the trace ring.
    fn finish(
        &mut self,
        state: &ServeState,
        response: &Response,
        started: Instant,
        path: Option<String>,
    ) {
        state.metrics.latency.record(started.elapsed());
        state
            .trace
            .record_complete("request", path, started.elapsed(), None);
        self.outbuf.extend_from_slice(&response.encode());
        if response.close {
            self.close_after_flush = true;
        }
    }

    /// Parses and answers every complete request in `inbuf`, stopping
    /// at the first suspension (job wait) or staged close.
    fn process_inbuf(&mut self, state: &ServeState) {
        while self.waiting.is_none() && !self.close_after_flush {
            match try_parse_request(&self.inbuf, &mut self.scanned) {
                TryParse::Incomplete => break,
                TryParse::Error(e) => {
                    let response = request_error_response(&e).closing();
                    self.finish(state, &response, Instant::now(), None);
                    break;
                }
                TryParse::Request { request, consumed } => {
                    self.inbuf.drain(..consumed);
                    self.scanned = 0;
                    state.metrics.requests.fetch_add(1, Ordering::Relaxed);
                    let started = Instant::now();
                    let keep_alive = request.keep_alive;
                    let path = request.path.clone();
                    match route(&request, state) {
                        Routed::Ready(mut response) => {
                            if !keep_alive {
                                response.close = true;
                            }
                            self.finish(state, &response, started, Some(path));
                        }
                        Routed::WaitJob { id, fingerprint } => {
                            self.waiting = Some(Waiting::Job {
                                id,
                                fingerprint,
                                keep_alive,
                                started,
                                path,
                            });
                            // The job may have retired between routing
                            // and here (its wake byte already drained):
                            // resolve immediately rather than stall.
                            self.try_retire(state);
                        }
                        Routed::WaitBatch { items } => {
                            self.waiting = Some(Waiting::Batch {
                                items,
                                keep_alive,
                                started,
                                path,
                            });
                            self.try_retire(state);
                        }
                        Routed::Shutdown(mut response) => {
                            response.close = true;
                            self.finish(state, &response, started, Some(path));
                            state.shutdown.store(true, Ordering::SeqCst);
                            // Fails still-queued jobs and notifies the
                            // waker, releasing every suspended
                            // connection with a 500.
                            state.queue.shutdown();
                        }
                    }
                }
            }
        }
    }

    /// If the suspended job (or every job of a suspended batch) has
    /// retired, stages the response and resumes pipeline processing.
    fn try_retire(&mut self, state: &ServeState) {
        let Some(waiting) = self.waiting.take() else {
            return;
        };
        match waiting {
            Waiting::Job {
                id,
                fingerprint,
                keep_alive,
                started,
                path,
            } => match job_outcome_response(state, id, &fingerprint) {
                Some(mut response) => {
                    if !keep_alive {
                        response.close = true;
                    }
                    self.finish(state, &response, started, Some(path));
                    self.process_inbuf(state);
                }
                None => {
                    self.waiting = Some(Waiting::Job {
                        id,
                        fingerprint,
                        keep_alive,
                        started,
                        path,
                    });
                }
            },
            Waiting::Batch {
                mut items,
                keep_alive,
                started,
                path,
            } => {
                let mut all_ready = true;
                for item in &mut items {
                    if let BatchItem::Pending { id, fingerprint } = item {
                        match batch_item_outcome(state, *id, fingerprint) {
                            Some(json) => *item = BatchItem::Ready(json),
                            None => all_ready = false,
                        }
                    }
                }
                if all_ready {
                    let mut response = batch_response(&items);
                    if !keep_alive {
                        response.close = true;
                    }
                    self.finish(state, &response, started, Some(path));
                    self.process_inbuf(state);
                } else {
                    self.waiting = Some(Waiting::Batch {
                        items,
                        keep_alive,
                        started,
                        path,
                    });
                }
            }
        }
    }

    /// Drains readable bytes into `inbuf` and processes them.
    fn on_readable(&mut self, state: &ServeState, now: Instant) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = now;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.process_inbuf(state);
    }

    /// Pushes staged bytes into the socket.
    fn on_writable(&mut self, now: Instant) {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.outpos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.outbuf.clear();
        self.outpos = 0;
        if self.close_after_flush {
            self.dead = true;
        }
    }

    /// Idle-timeout policy: none while a job computes; [`READ_TIMEOUT`]
    /// mid-request or mid-flush; [`KEEPALIVE_IDLE_TIMEOUT`] between
    /// requests.
    fn expired(&self, now: Instant) -> bool {
        if self.waiting.is_some() {
            return false;
        }
        let limit = if !self.inbuf.is_empty() || self.wants_write() {
            READ_TIMEOUT
        } else {
            KEEPALIVE_IDLE_TIMEOUT
        };
        now.duration_since(self.last_activity) > limit
    }
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

/// Runs the event loop until shutdown. Takes the listener by value so
/// shutdown can drop it (closing the accept socket) while staged
/// responses flush.
pub(crate) fn event_loop(listener: TcpListener, wake_rx: TcpStream, state: &Arc<ServeState>) {
    use std::os::unix::io::AsRawFd;
    use sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut listener = Some(listener);
    let mut conns: Vec<Conn> = Vec::new();
    let mut wake_rx = wake_rx;
    let mut flush_deadline: Option<Instant> = None;

    loop {
        // --- build the poll set: [wake, listener?, conns…] ---
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        let listener_slot = listener.as_ref().map(|l| {
            fds.push(PollFd {
                fd: l.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            fds.len() - 1
        });
        let base = fds.len();
        let polled_conns = conns.len();
        for conn in &conns {
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }

        if sys::poll_retry(&mut fds, POLL_TICK.as_millis() as i32).is_err() {
            break;
        }
        let now = Instant::now();

        // --- wake channel: drain, then re-arm suspended connections ---
        if fds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            let mut sink = [0u8; 256];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            for conn in &mut conns {
                if conn.waiting.is_some() {
                    conn.try_retire(state);
                }
            }
        }

        // --- new connections ---
        if let Some(slot) = listener_slot {
            if fds[slot].revents & POLLIN != 0 {
                while let Some(l) = &listener {
                    match l.accept() {
                        Ok((stream, _)) => {
                            if conns.len() >= state.config.max_conns {
                                shed(state, stream);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            state
                                .metrics
                                .connections_opened
                                .fetch_add(1, Ordering::Relaxed);
                            conns.push(Conn::new(stream, now));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }
        }

        // --- per-connection I/O (only the connections that were in
        // this round's poll set; fresh accepts wait for the next) ---
        for (i, conn) in conns.iter_mut().take(polled_conns).enumerate() {
            let revents = fds[base + i].revents;
            if revents & (POLLERR | POLLNVAL) != 0 {
                conn.dead = true;
                continue;
            }
            if revents & POLLIN != 0 {
                conn.on_readable(state, now);
            }
            if !conn.dead && revents & POLLOUT != 0 {
                conn.on_writable(now);
            }
            if !conn.dead && revents & POLLHUP != 0 && revents & POLLIN == 0 {
                conn.dead = true;
            }
            if !conn.dead && conn.expired(now) {
                conn.dead = true;
            }
        }

        // --- shutdown sequencing ---
        if state.shutdown.load(Ordering::SeqCst) {
            if listener.take().is_some() {
                flush_deadline = Some(now + SHUTDOWN_FLUSH_TIMEOUT);
            }
            for conn in &mut conns {
                // Anything with no response in flight or staged has
                // nothing left to say.
                if conn.waiting.is_none() && !conn.wants_write() {
                    conn.dead = true;
                }
            }
        }

        // --- reap ---
        conns.retain(|conn| {
            if conn.dead {
                state
                    .metrics
                    .connections_closed
                    .fetch_add(1, Ordering::Relaxed);
            }
            !conn.dead
        });

        if listener.is_none() {
            let expired = flush_deadline.is_some_and(|deadline| now >= deadline);
            if conns.is_empty() || expired {
                break;
            }
        }
    }
    state
        .metrics
        .connections_closed
        .fetch_add(conns.len() as u64, Ordering::Relaxed);
}

/// Answers 503 + `Retry-After` on a connection over the max-conns
/// limit, then drops it. Best-effort single write: the socket buffer
/// of a fresh connection always has room for ~120 bytes.
fn shed(state: &ServeState, mut stream: TcpStream) {
    state
        .metrics
        .connections_shed
        .fetch_add(1, Ordering::Relaxed);
    let response = Response::error(503, "connection limit reached")
        .with_header("Retry-After", "1")
        .closing();
    let _ = stream.write_all(&response.encode());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pair_roundtrip() {
        let (waker, mut rx) = wake_pair().expect("loopback pair");
        waker.wake();
        waker.clone().wake();
        // Nonblocking read sees the bytes once they arrive.
        let mut buf = [0u8; 8];
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut seen = 0usize;
        while seen == 0 && Instant::now() < deadline {
            match rx.read(&mut buf) {
                Ok(n) => seen += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("wake rx error: {e}"),
            }
        }
        assert!(seen >= 1, "wake byte never arrived");
    }

    #[test]
    fn poll_reports_readable_socket() {
        use std::os::unix::io::AsRawFd;
        let (waker, rx) = wake_pair().expect("loopback pair");
        let mut fds = [sys::PollFd {
            fd: rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        // Not yet readable.
        let n = sys::poll_retry(&mut fds, 0).expect("poll");
        assert_eq!(n, 0, "unexpected readiness before wake");
        waker.wake();
        let n = sys::poll_retry(&mut fds, 2000).expect("poll");
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & sys::POLLIN, 0);
    }
}
