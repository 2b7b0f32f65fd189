//! The epoll reactor engine: a fixed pool of event-loop threads
//! multiplexing every connection, so ten thousand keep-alive sockets
//! cost ten thousand fds — not ten thousand threads.
//!
//! ## Topology
//!
//! The reactors are the front-end's only threads besides the metrics
//! series ticker. Each reactor thread owns one epoll instance, one
//! eventfd-woken [`ReactorQueue`], and a private connection table.
//! Reactor 0 additionally owns the listener: it accepts, applies the
//! connection cap, and deals accepted sockets round-robin — remote
//! reactors get theirs through the queue's inbox plus an eventfd kick.
//! A connection never migrates, so its state needs no lock.
//!
//! ## Per-connection state machine
//!
//! `reading → (routing) → awaiting backend → writing → reading …`
//!
//! Reads feed an incremental [`RequestParser`]; a parsed matmul is
//! submitted to the backend *without blocking* via
//! [`ServeBackend::submit`], with this reactor's queue as the
//! [`CompletionWaker`]. Each wake pushes the request's token onto the
//! queue, and the reactor hands the connection's in-flight state to
//! [`ServeBackend::poll`], which either settles the request or re-arms
//! the waker (a cluster shard retry). The reactor thread never parks on
//! a response. Responses serialise into a per-connection buffer drained
//! under `EPOLLOUT`, so a slow reader stalls only itself.
//!
//! Mid-request stalls are reclaimed by a [`TimerWheel`] armed only
//! while request bytes are pending — idle keep-alive connections cost
//! zero timer work and are never timed out.

use crate::backend::{ServeBackend, Submitted};
use crate::http::{HttpResponse, Parse, RequestParser};
use crate::server::{
    finish_matmul, malformed_reply, refuse_connection, route_begin, JobMeta, MatmulJob, NetConfig,
    Routed, Shared,
};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wheel::{TimerKey, TimerWheel};
use pic_runtime::CompletionWaker;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Epoll cookie of the reactor's own queue eventfd.
const DATA_WAKE: u64 = u64::MAX;
/// Epoll cookie of the listener (reactor 0 only).
const DATA_LISTENER: u64 = u64::MAX - 1;
/// Stop pulling more pipelined bytes from a connection that already
/// has a request in flight once this much is buffered.
const PIPELINE_HIGH_WATER: usize = 256 * 1024;
/// Per-`epoll_wait` readiness batch.
const EVENT_BATCH: usize = 256;
/// Upper bound on one blocking wait, so a reactor re-checks the world
/// even if every wake signal were lost.
const MAX_WAIT_MS: i32 = 500;

/// A reactor's cross-thread mailbox: woken tokens from backend wakers
/// and accepted sockets from reactor 0, both flushed by one eventfd
/// kick.
pub(crate) struct ReactorQueue {
    efd: EventFd,
    woken: Mutex<Vec<u64>>,
    inbox: Mutex<Vec<TcpStream>>,
}

impl ReactorQueue {
    fn new() -> io::Result<Arc<ReactorQueue>> {
        Ok(Arc::new(ReactorQueue {
            efd: EventFd::new()?,
            woken: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
        }))
    }

    fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().expect("inbox lock").push(stream);
        self.efd.signal();
    }

    /// Signals without payload (drain kick).
    pub(crate) fn kick(&self) {
        self.efd.signal();
    }

    fn take_all(&self) -> (Vec<u64>, Vec<TcpStream>) {
        self.efd.drain();
        let woken = std::mem::take(&mut *self.woken.lock().expect("wake lock"));
        let inbox = std::mem::take(&mut *self.inbox.lock().expect("inbox lock"));
        (woken, inbox)
    }
}

impl CompletionWaker for ReactorQueue {
    fn wake(&self, token: u64) {
        self.woken.lock().expect("wake lock").push(token);
        self.efd.signal();
    }
}

/// The running reactor pool, joined by [`ReactorHandle::shutdown`].
pub(crate) struct ReactorHandle {
    threads: Vec<std::thread::JoinHandle<()>>,
    queues: Vec<Arc<ReactorQueue>>,
}

impl ReactorHandle {
    /// Wakes every reactor (the caller has already raised the stop
    /// flag) and waits for the last connection to finish.
    pub(crate) fn shutdown(self) {
        for queue in &self.queues {
            queue.kick();
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Builds and starts the reactor pool: `config.effective_reactors()`
/// event-loop threads, the listener owned by reactor 0.
pub(crate) fn spawn<B: ServeBackend>(
    config: &NetConfig,
    listener: TcpListener,
    shared: Arc<Shared<B>>,
) -> io::Result<ReactorHandle> {
    let n = config.effective_reactors();
    let mut queues = Vec::with_capacity(n);
    for _ in 0..n {
        queues.push(ReactorQueue::new()?);
    }
    let mut listener = Some(listener);
    let mut reactors = Vec::with_capacity(n);
    for index in 0..n {
        reactors.push(Reactor::new(
            index,
            listener.take().filter(|_| index == 0),
            Arc::clone(&shared),
            &queues,
            config,
        )?);
    }
    let mut threads = Vec::with_capacity(n);
    for (index, mut reactor) in reactors.into_iter().enumerate() {
        threads.push(
            std::thread::Builder::new()
                .name(format!("pic-net-reactor-{index}"))
                .spawn(move || reactor.run())
                .expect("spawn reactor"),
        );
    }
    Ok(ReactorHandle { threads, queues })
}

/// A request handed to the backend, awaiting its wake.
struct InFlight<P> {
    token: u64,
    meta: JobMeta,
    /// The backend's in-flight state, handed to
    /// [`ServeBackend::poll`] at each wake.
    state: P,
    /// Close after the response (peer asked, or the drain began before
    /// the request was parsed).
    close: bool,
}

/// One multiplexed connection.
struct Conn<P> {
    stream: TcpStream,
    parser: RequestParser,
    /// Serialised-but-unsent response bytes; `out_pos` is the flush
    /// cursor.
    out: Vec<u8>,
    out_pos: usize,
    pending: Option<InFlight<P>>,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Timer generation; bumping it lazily cancels the armed timer.
    generation: u64,
    timer_armed: bool,
    /// Peer finished sending (EOF seen); buffered requests still serve.
    eof: bool,
    close_after_write: bool,
    /// Transport is dead but a submission is in flight: the connection
    /// stays in the table (keeping its fd reserved) until the
    /// completion arrives and the fairness slot is released.
    doomed: bool,
}

impl<P> Conn<P> {
    fn new(stream: TcpStream, interest: u32) -> Conn<P> {
        Conn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: None,
            interest,
            generation: 0,
            timer_armed: false,
            eof: false,
            close_after_write: false,
            doomed: false,
        }
    }

    fn idle(&self) -> bool {
        self.pending.is_none()
            && self.out_pos >= self.out.len()
            && !self.parser.mid_request()
            && !self.doomed
    }

    fn wants_interest(&self) -> u32 {
        let mut want = EPOLLRDHUP;
        let throttled = self.pending.is_some() && self.parser.buffered() >= PIPELINE_HIGH_WATER;
        if !self.eof && !throttled {
            want |= EPOLLIN;
        }
        if self.out_pos < self.out.len() {
            want |= EPOLLOUT;
        }
        want
    }
}

/// What the state machine decided for one connection this step.
enum Step {
    /// Blocked on I/O, a timer, or a completion.
    Wait,
    /// Done with this connection.
    Close,
    /// A response to enqueue; `(response, close after, count in reply
    /// stats)` — malformed `400`s close without counting.
    Respond(HttpResponse, bool, bool),
    /// An admitted matmul to hand to the backend.
    Dispatch(MatmulJob, bool),
}

struct Reactor<B: ServeBackend> {
    index: usize,
    stride: u64,
    shared: Arc<Shared<B>>,
    epoll: Epoll,
    queue: Arc<ReactorQueue>,
    /// Every reactor's queue, for reactor 0's round-robin deal.
    peers: Vec<Arc<ReactorQueue>>,
    listener: Option<TcpListener>,
    conns: HashMap<i32, Conn<B::Pending>>,
    /// In-flight token → owning fd.
    tokens: HashMap<u64, i32>,
    next_token: u64,
    /// Monotonic source for timer generations. Drawing every
    /// generation from one reactor-wide counter (instead of a
    /// per-connection `+= 1`) keeps `(fd, generation)` pairs unique
    /// across the reactor's whole lifetime: a stale wheel entry left
    /// by a closed connection can never collide with a fresh arming on
    /// a *reused* fd whose own counter happened to reach the same
    /// value — a collision that fired a spurious timeout and reset a
    /// live connection.
    gen_seq: u64,
    wheel: TimerWheel,
    read_timeout: Duration,
    max_connections: usize,
    rr: usize,
    draining: bool,
}

impl<B: ServeBackend> Reactor<B> {
    fn new(
        index: usize,
        listener: Option<TcpListener>,
        shared: Arc<Shared<B>>,
        queues: &[Arc<ReactorQueue>],
        config: &NetConfig,
    ) -> io::Result<Reactor<B>> {
        let epoll = Epoll::new()?;
        let queue = Arc::clone(&queues[index]);
        epoll.add(queue.efd.raw(), EPOLLIN, DATA_WAKE)?;
        if let Some(listener) = &listener {
            epoll.add(listener.as_raw_fd(), EPOLLIN, DATA_LISTENER)?;
        }
        let granularity = (config.read_timeout / 8).max(Duration::from_millis(1));
        Ok(Reactor {
            index,
            stride: queues.len() as u64,
            shared,
            epoll,
            queue,
            peers: queues.to_vec(),
            listener,
            conns: HashMap::new(),
            tokens: HashMap::new(),
            next_token: index as u64,
            gen_seq: 0,
            wheel: TimerWheel::new(64, granularity),
            read_timeout: config.read_timeout,
            max_connections: config.max_connections.max(1),
            rr: 0,
            draining: false,
        })
    }

    fn run(&mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        loop {
            let timeout_ms = self
                .wheel
                .next_due(Instant::now())
                .map_or(MAX_WAIT_MS, |d| {
                    (d.as_millis() as i32).clamp(1, MAX_WAIT_MS)
                });
            let n = self.epoll.wait(&mut events, timeout_ms).unwrap_or(0);
            for ev in &events[..n] {
                let EpollEvent { events: bits, data } = *ev;
                match data {
                    DATA_WAKE => self.on_wake(),
                    DATA_LISTENER => self.accept_ready(),
                    fd => self.on_conn_event(fd as i32, bits),
                }
            }
            self.fire_timers();
            if self.draining && self.conns.is_empty() {
                break;
            }
        }
        // Sockets dealt to this reactor but never registered (the deal
        // raced the drain) close here; give their live-count back.
        let (_, stranded) = self.queue.take_all();
        for _ in stranded {
            self.shared.stats.connection_closed();
        }
    }

    // -- cross-thread mailbox ------------------------------------------

    fn on_wake(&mut self) {
        let (woken, accepted) = self.queue.take_all();
        for token in woken {
            self.complete(token);
        }
        for stream in accepted {
            self.register_conn(stream);
        }
        if self.shared.draining() && !self.draining {
            self.begin_drain();
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        let idle: Vec<i32> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.idle())
            .map(|(&fd, _)| fd)
            .collect();
        for fd in idle {
            self.close_conn(fd);
        }
    }

    // -- accepting (reactor 0) -----------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let live = self.shared.stats.conns_active.load(Ordering::Relaxed) as usize;
                    if live >= self.max_connections {
                        refuse_connection(&self.shared, &mut stream, live, self.max_connections);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.shared.stats.connection_opened();
                    let target = self.rr % self.peers.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.index {
                        self.register_conn(stream);
                    } else {
                        self.peers[target].push_conn(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept failure (peer reset mid-handshake):
                // level-triggered epoll re-reports anything left.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let fd = stream.as_raw_fd();
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(fd, interest, fd as u64).is_err() {
            self.shared.stats.connection_closed();
            return;
        }
        self.conns.insert(fd, Conn::new(stream, interest));
        if self.draining {
            // Accepted in the race window just before the drain: idle
            // by construction, closes like every other idle connection.
            self.close_conn(fd);
        }
    }

    // -- connection events ---------------------------------------------

    fn on_conn_event(&mut self, fd: i32, bits: u32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        if conn.doomed {
            return;
        }
        if bits & EPOLLERR != 0 {
            self.close_or_doom(fd);
            return;
        }
        if bits & EPOLLOUT != 0 {
            self.pump(fd);
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.readable(fd);
        }
    }

    fn readable(&mut self, fd: i32) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return;
            };
            let mut buf = [0u8; 16 * 1024];
            while !conn.eof {
                if conn.pending.is_some() && conn.parser.buffered() >= PIPELINE_HIGH_WATER {
                    break;
                }
                match conn.stream.read(&mut buf) {
                    Ok(0) => conn.eof = true,
                    Ok(n) => {
                        conn.parser.feed(&buf[..n]);
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close_or_doom(fd);
            return;
        }
        self.pump(fd);
    }

    /// Drives one connection as far as it can go without blocking:
    /// flush pending output, then route buffered requests until the
    /// connection waits on I/O, a timer, or a backend completion.
    fn pump(&mut self, fd: i32) {
        loop {
            if !self.flush(fd) {
                return;
            }
            let step = {
                let Some(conn) = self.conns.get_mut(&fd) else {
                    return;
                };
                if conn.doomed {
                    return;
                }
                if conn.out_pos < conn.out.len() {
                    Step::Wait
                } else if conn.close_after_write {
                    Step::Close
                } else if conn.pending.is_some() {
                    Step::Wait
                } else {
                    match conn.parser.poll() {
                        Parse::Incomplete => {
                            if conn.eof {
                                Step::Close
                            } else {
                                Step::Wait
                            }
                        }
                        Parse::Malformed(why) => Step::Respond(malformed_reply(why), true, false),
                        Parse::Request(req) => {
                            // Request complete: retire the mid-request
                            // timer before anything can block again.
                            self.gen_seq += 1;
                            conn.generation = self.gen_seq;
                            conn.timer_armed = false;
                            self.shared
                                .stats
                                .http_requests
                                .fetch_add(1, Ordering::Relaxed);
                            let close = req.wants_close() || self.shared.draining();
                            match route_begin(&self.shared, &req) {
                                Routed::Done(response) => Step::Respond(response, close, true),
                                Routed::Matmul(job) => Step::Dispatch(job, close),
                            }
                        }
                    }
                }
            };
            match step {
                Step::Wait => {
                    self.arm_or_cancel_timer(fd);
                    self.update_interest(fd);
                    return;
                }
                Step::Close => {
                    self.close_conn(fd);
                    return;
                }
                Step::Respond(response, close, count) => {
                    self.enqueue_response(fd, response, close, count);
                }
                Step::Dispatch(job, close) => {
                    if !self.dispatch(fd, job, close) {
                        self.update_interest(fd);
                        return;
                    }
                }
            }
        }
    }

    /// Hands an admitted matmul to the backend. Returns `true` when it
    /// resolved synchronously (the response is already enqueued) and
    /// the pump should continue.
    fn dispatch(&mut self, fd: i32, job: MatmulJob, close: bool) -> bool {
        let token = self.next_token;
        self.next_token = self.next_token.wrapping_add(self.stride);
        let MatmulJob { meta, request } = job;
        let waker: Arc<dyn CompletionWaker> = Arc::clone(&self.queue) as _;
        match self.shared.backend.submit(request, token, waker) {
            Submitted::Ready(result) => {
                let response = finish_matmul(&self.shared, &meta, result);
                self.enqueue_response(fd, response, close, true);
                true
            }
            Submitted::Pending(state) => {
                self.tokens.insert(token, fd);
                if let Some(conn) = self.conns.get_mut(&fd) {
                    conn.pending = Some(InFlight {
                        token,
                        meta,
                        state,
                        close,
                    });
                }
                false
            }
        }
    }

    /// Hands a woken token's in-flight state to the backend and, once
    /// it settles, finishes the request. Stale tokens (connection long
    /// gone) are ignored.
    fn complete(&mut self, token: u64) {
        let Some(fd) = self.tokens.remove(&token) else {
            return;
        };
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        let Some(InFlight {
            token,
            meta,
            state,
            close,
        }) = conn.pending.take()
        else {
            return;
        };
        let result = match self.shared.backend.poll(state) {
            Submitted::Ready(result) => result,
            Submitted::Pending(state) => {
                // Re-armed: the same token wakes once more.
                conn.pending = Some(InFlight {
                    token,
                    meta,
                    state,
                    close,
                });
                self.tokens.insert(token, fd);
                return;
            }
        };
        let doomed = conn.doomed;
        let close = close || self.shared.draining();
        let response = finish_matmul(&self.shared, &meta, result);
        if doomed {
            // Accounting done; the transport died while the backend
            // worked, so the response has nowhere to go.
            self.close_conn(fd);
            return;
        }
        self.enqueue_response(fd, response, close, true);
        self.pump(fd);
    }

    // -- I/O helpers ---------------------------------------------------

    /// Serialises a response into the connection's output buffer.
    fn enqueue_response(&mut self, fd: i32, response: HttpResponse, close: bool, count: bool) {
        if count {
            if response.status < 400 {
                self.shared.stats.replies_ok.fetch_add(1, Ordering::Relaxed);
            } else {
                self.shared
                    .stats
                    .replies_error
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        let response = if close {
            response.with_header("connection", "close")
        } else {
            response
        };
        // Writing into a Vec cannot fail.
        let _ = response.write_to(&mut conn.out);
        conn.close_after_write = close;
    }

    /// Writes as much buffered output as the socket takes. `false`
    /// when the connection died (and was closed/doomed).
    fn flush(&mut self, fd: i32) -> bool {
        let dead = {
            let Some(conn) = self.conns.get_mut(&fd) else {
                return false;
            };
            if conn.doomed {
                return false;
            }
            let mut dead = false;
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
            dead
        };
        if dead {
            self.close_or_doom(fd);
            return false;
        }
        true
    }

    fn update_interest(&mut self, fd: i32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        if conn.doomed {
            return;
        }
        let want = conn.wants_interest();
        if want != conn.interest && self.epoll.modify(fd, want, fd as u64).is_ok() {
            conn.interest = want;
        }
    }

    // -- timers --------------------------------------------------------

    fn arm_or_cancel_timer(&mut self, fd: i32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        let should = conn.pending.is_none() && conn.parser.mid_request() && !conn.eof;
        if should && !conn.timer_armed {
            self.gen_seq += 1;
            conn.generation = self.gen_seq;
            conn.timer_armed = true;
            self.wheel.catch_up(Instant::now());
            self.wheel.arm(
                TimerKey {
                    fd,
                    generation: conn.generation,
                },
                self.read_timeout,
            );
        } else if !should && conn.timer_armed {
            self.gen_seq += 1;
            conn.generation = self.gen_seq; // lazy cancel
            conn.timer_armed = false;
        }
    }

    fn fire_timers(&mut self) {
        if self.wheel.armed() == 0 {
            return;
        }
        let mut due = Vec::new();
        self.wheel.tick(Instant::now(), &mut due);
        for key in due {
            let live = self
                .conns
                .get(&key.fd)
                .is_some_and(|c| c.timer_armed && c.generation == key.generation && !c.doomed);
            if live {
                // Mid-request stall past the read timeout: reclaim,
                // silently.
                self.close_conn(key.fd);
            }
        }
    }

    // -- teardown ------------------------------------------------------

    /// Closes a dead transport — immediately when nothing is in
    /// flight, otherwise *dooms* the connection: deregistered and
    /// silent, but parked in the table until its completion arrives so
    /// the fairness slot and stats are settled exactly once.
    fn close_or_doom(&mut self, fd: i32) {
        let Some(conn) = self.conns.get_mut(&fd) else {
            return;
        };
        if conn.pending.is_some() {
            conn.doomed = true;
            self.gen_seq += 1;
            conn.generation = self.gen_seq;
            conn.timer_armed = false;
            let _ = self.epoll.delete(fd);
        } else {
            self.close_conn(fd);
        }
    }

    fn close_conn(&mut self, fd: i32) {
        let Some(conn) = self.conns.remove(&fd) else {
            return;
        };
        if let Some(pending) = &conn.pending {
            // Unreachable by construction (close_or_doom parks these),
            // but never strand a token → fd mapping.
            self.tokens.remove(&pending.token);
        }
        let _ = self.epoll.delete(fd);
        self.shared.stats.connection_closed();
        drop(conn); // closes the socket, after the fd left every table
    }
}
