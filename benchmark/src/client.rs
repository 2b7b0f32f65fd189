//! The load generator: one event loop per client thread, driving one
//! connection with up to [`WINDOW`] requests in flight.
//!
//! Two transports share the loop: a non-blocking keep-alive HTTP
//! connection to the front-end, and in-process submission to a
//! [`Runtime`] through its completion waker. Paced phases send a fixed-rate
//! schedule and time every request from when it was *due*, so a stall
//! that delays later sends shows up in their latency instead of
//! silently lowering the offered load; closed phases keep the window
//! full for a fixed time.

use crate::check::Tally;
use crate::trace::SpanRing;
use crate::workload::{GenRequest, ModelSet, RequestStream};
use pic_net::sys::{Epoll, EpollEvent, EventFd, EPOLLIN, EPOLLOUT};
use pic_net::MatmulReply;
use pic_runtime::{
    CompletionWaker, MatmulRequest, OutputElement, Response, ResponseHandle, Runtime, RuntimeError,
};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests pipelined per connection.
pub const WINDOW: usize = 8;
/// Every this-many-th request of a lane is kept for the bit-identity check.
pub const CHECK_EVERY: u64 = 64;
/// How long a phase waits for stragglers before counting them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest single wait of the event loop.
const MAX_WAIT_MS: i32 = 100;

// ---------------------------------------------------------------------
// A monotonic one-shot timer fd, so a paced sender sleeps exactly until
// its next due time while still waking for replies. `epoll_wait` alone
// only takes whole milliseconds, coarser than the send spacing.
// ---------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(
        fd: i32,
        flags: i32,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2_000_000;

/// A non-blocking `timerfd` on the monotonic clock.
#[derive(Debug)]
pub struct Timer {
    file: File,
}

impl Timer {
    /// Creates a disarmed timer.
    ///
    /// # Errors
    ///
    /// The `timerfd_create` errno.
    pub fn new() -> io::Result<Timer> {
        // SAFETY: plain syscall wrapper with constant, valid arguments; it
        // allocates nothing on our side.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `timerfd_create`, is open, and
        // is owned by nothing else; the `File` takes sole ownership.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Timer {
            file: File::from(owned),
        })
    }

    /// Arms the timer to fire once after `after` (clamped to ≥ 1 ns,
    /// since a zero value would disarm it).
    ///
    /// # Errors
    ///
    /// The `timerfd_settime` errno.
    pub fn arm(&self, after: Duration) -> io::Result<()> {
        let after = after.max(Duration::from_nanos(1));
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: i64::try_from(after.as_secs()).unwrap_or(i64::MAX),
                tv_nsec: i64::from(after.subsec_nanos()),
            },
        };
        // SAFETY: the fd is the open timerfd owned by `self.file`; `spec`
        // is a valid `itimerspec` that outlives the call, and a null
        // `old_value` is allowed.
        let rc = unsafe {
            timerfd_settime(
                self.file.as_raw_fd(),
                0,
                &spec,
                std::ptr::null_mut::<Itimerspec>(),
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Consumes a pending expiry so the fd stops reading ready.
    pub fn clear(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }

    fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

// ---------------------------------------------------------------------
// Transports.
// ---------------------------------------------------------------------

/// A whole reply kept for a check or a replay. Network bodies stay text
/// until the request's own timings are taken, so parsing them never lands
/// on its measured path.
#[derive(Debug)]
pub enum Whole {
    /// The raw JSON body of a networked reply.
    Body(String),
    /// An in-process reply, already structured.
    Reply(MatmulReply),
}

/// What a transport learned about one finished request.
#[derive(Debug)]
pub struct Reply {
    /// The token the request was sent with.
    pub token: u64,
    /// HTTP status (typed in-process errors map to the same codes).
    pub status: u16,
    /// Stable error kind for non-200 replies.
    pub kind: String,
    /// Modeled energy charged to the request, J.
    pub energy_j: f64,
    /// The whole reply, for kept requests only.
    pub whole: Option<Whole>,
    /// When the reply's bytes (or handle) were complete.
    pub received: Instant,
    /// Client time spent decoding it, ns.
    pub decode_ns: u64,
}

/// A connection the event loop can drive.
pub trait Transport {
    /// A request encoded and ready to send.
    type Staged;
    /// The fd whose readability signals finished requests.
    fn fd(&self) -> RawFd;
    /// Encodes a request ahead of its send.
    fn encode(&mut self, req: &GenRequest) -> Self::Staged;
    /// Sends an encoded request under `token`; `keep` asks for the whole
    /// reply. Returns the exact bytes sent when kept (networked only).
    ///
    /// # Errors
    ///
    /// Transport failures; the phase then counts its open requests lost.
    fn send(&mut self, staged: Self::Staged, token: u64, keep: bool)
        -> io::Result<Option<Vec<u8>>>;
    /// Whether bytes are queued that the socket has not taken yet.
    fn wants_write(&self) -> bool;
    /// Pushes queued bytes.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn flush(&mut self) -> io::Result<()>;
    /// Collects every request that finished, without blocking.
    ///
    /// # Errors
    ///
    /// Transport failures (including the peer closing the connection).
    fn poll(&mut self, out: &mut Vec<Reply>) -> io::Result<()>;
}

/// One keep-alive HTTP connection to the front-end.
#[derive(Debug)]
pub struct NetConn<'m> {
    stream: TcpStream,
    models: &'m ModelSet,
    client_id: String,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
    /// Tokens in send order: HTTP/1.1 answers a connection in order.
    pending: VecDeque<(u64, bool)>,
}

impl<'m> NetConn<'m> {
    /// Connects as `client_id` (the fair-admission identity).
    ///
    /// # Errors
    ///
    /// Connect or socket-option failures.
    pub fn connect(
        addr: std::net::SocketAddr,
        client_id: &str,
        models: &'m ModelSet,
    ) -> io::Result<NetConn<'m>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(NetConn {
            stream,
            models,
            client_id: client_id.to_owned(),
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            in_pos: 0,
            pending: VecDeque::new(),
        })
    }

    /// One request as the bytes of a `POST /v1/matmul` from this client.
    fn frame(&self, req: &GenRequest) -> Vec<u8> {
        http_request(&self.client_id, self.models, req)
    }

    /// One blocking round trip on an idle connection: sends `raw`, waits
    /// for its response. Used between phases, for set-up and scrapes.
    ///
    /// # Errors
    ///
    /// Transport failures, or a call while requests are in flight.
    pub fn call(&mut self, raw: &[u8]) -> io::Result<(u16, String)> {
        if !self.pending.is_empty() || self.wants_write() {
            return Err(bad_data("blocking call on a busy connection"));
        }
        self.stream.set_nonblocking(false)?;
        self.stream
            .set_read_timeout(Some(Duration::from_secs(30)))?;
        let result = self.round_trip(raw);
        self.stream.set_nonblocking(true)?;
        result
    }

    fn round_trip(&mut self, raw: &[u8]) -> io::Result<(u16, String)> {
        self.stream.write_all(raw)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((status, body)) = self.next_response()? {
                let text = String::from_utf8_lossy(&self.inbuf[body]).into_owned();
                self.inbuf.drain(..self.in_pos);
                self.in_pos = 0;
                return Ok((status, text));
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.inbuf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// `GET path`, blocking.
    ///
    /// # Errors
    ///
    /// As [`NetConn::call`].
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let raw = format!(
            "GET {path} HTTP/1.1\r\nx-client: {}\r\n\r\n",
            self.client_id
        );
        self.call(raw.as_bytes())
    }

    /// Sends one matmul and waits for its reply, blocking.
    ///
    /// # Errors
    ///
    /// As [`NetConn::call`].
    pub fn matmul(&mut self, req: &GenRequest) -> io::Result<(u16, String)> {
        let raw = self.frame(req);
        self.call(&raw)
    }

    /// Splits the next complete response off the input buffer.
    fn next_response(&mut self) -> io::Result<Option<(u16, std::ops::Range<usize>)>> {
        let buf = &self.inbuf[self.in_pos..];
        let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&buf[..head_len])
            .map_err(|_| bad_data("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad_data("bad status line"))?;
        let length = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or_else(|| bad_data("response without content-length"))?;
        let body_start = self.in_pos + head_len + 4;
        if self.inbuf.len() < body_start + length {
            return Ok(None);
        }
        self.in_pos = body_start + length;
        Ok(Some((status, body_start..body_start + length)))
    }
}

/// A request as the bytes of a `POST /v1/matmul` from `client_id`.
#[must_use]
pub fn http_request(client_id: &str, models: &ModelSet, req: &GenRequest) -> Vec<u8> {
    let body = crate::workload::wire_body(models, req);
    let mut bytes = Vec::with_capacity(body.len() + 128);
    let _ = write!(
        bytes,
        "POST /v1/matmul HTTP/1.1\r\nx-client: {client_id}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    bytes
}

fn bad_data(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_owned())
}

/// The number after `"key":` in a flat JSON object body.
fn scan_number(body: &str, key: &str) -> Option<f64> {
    let at = body.find(key)? + key.len();
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The string after `"kind":"` in an error body.
fn scan_kind(body: &str) -> String {
    body.find("\"kind\":\"")
        .map(|at| {
            let rest = &body[at + 8..];
            rest[..rest.find('"').unwrap_or(rest.len())].to_owned()
        })
        .unwrap_or_default()
}

impl Transport for NetConn<'_> {
    type Staged = Vec<u8>;

    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn encode(&mut self, req: &GenRequest) -> Vec<u8> {
        self.frame(req)
    }

    fn send(&mut self, bytes: Vec<u8>, token: u64, keep: bool) -> io::Result<Option<Vec<u8>>> {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(&bytes);
        self.pending.push_back((token, keep));
        self.flush()?;
        Ok(keep.then_some(bytes))
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn poll(&mut self, out: &mut Vec<Reply>) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some((status, body)) = self.next_response()? {
            let received = Instant::now();
            let (token, keep) = self
                .pending
                .pop_front()
                .ok_or_else(|| bad_data("reply without a request"))?;
            let text = std::str::from_utf8(&self.inbuf[body])
                .map_err(|_| bad_data("non-UTF-8 reply body"))?;
            // The client decodes only what every reply needs — its energy
            // or its error kind — so it stays cheap next to the server it
            // shares the host with.
            let (energy_j, kind) = if status == 200 {
                (
                    scan_number(text, "\"energy_j\":").unwrap_or(0.0),
                    String::new(),
                )
            } else {
                (0.0, scan_kind(text))
            };
            let whole = (keep && status == 200).then(|| Whole::Body(text.to_owned()));
            out.push(Reply {
                token,
                status,
                kind,
                energy_j,
                whole,
                received,
                decode_ns: received.elapsed().as_nanos() as u64,
            });
        }
        if self.in_pos == self.inbuf.len() {
            self.inbuf.clear();
            self.in_pos = 0;
        } else if self.in_pos > 32 * 1024 {
            self.inbuf.drain(..self.in_pos);
            self.in_pos = 0;
        }
        Ok(())
    }
}

/// Collects wake tokens from runtime threads and kicks an eventfd.
#[derive(Debug)]
struct QueueWaker {
    efd: EventFd,
    tokens: Mutex<Vec<u64>>,
}

impl CompletionWaker for QueueWaker {
    fn wake(&self, token: u64) {
        self.tokens.lock().expect("waker lock").push(token);
        self.efd.signal();
    }
}

/// In-process submission to a [`Runtime`], woken through an eventfd.
#[derive(Debug)]
pub struct InProc<'a> {
    /// The runtime requests are submitted to.
    pub runtime: &'a Runtime,
    /// The models requests are drawn from.
    pub models: &'a ModelSet,
    waker: Arc<QueueWaker>,
    handles: HashMap<u64, (ResponseHandle, bool)>,
    /// Synchronous outcomes (typed rejections at submit).
    ready: Vec<(u64, Result<Response, RuntimeError>, bool)>,
}

impl<'a> InProc<'a> {
    /// A submitter over `runtime`.
    ///
    /// # Errors
    ///
    /// The eventfd errno.
    pub fn new(runtime: &'a Runtime, models: &'a ModelSet) -> io::Result<InProc<'a>> {
        Ok(InProc {
            runtime,
            models,
            waker: Arc::new(QueueWaker {
                efd: EventFd::new()?,
                tokens: Mutex::new(Vec::new()),
            }),
            handles: HashMap::new(),
            ready: Vec::new(),
        })
    }
}

/// The in-process request a generated request becomes.
#[must_use]
pub fn runtime_request(models: &ModelSet, req: &GenRequest) -> MatmulRequest {
    let request = MatmulRequest::new(Arc::clone(&models.matrices[req.model]), req.inputs.clone());
    if req.pre_expired {
        let now = Instant::now();
        request.with_deadline(now.checked_sub(Duration::from_millis(1)).unwrap_or(now))
    } else {
        request
    }
}

/// The wire reply an in-process response would have been sent as.
#[must_use]
pub fn reply_of(resp: Response) -> MatmulReply {
    MatmulReply {
        device: resp.device as u64,
        batched_with: resp.batched_with as u64,
        tiles_written: resp.cost.tiles_written as u64,
        tiles_resident: resp.cost.tiles_resident as u64,
        energy_j: resp.cost.total_energy_j(),
        outputs: resp.outputs,
    }
}

impl Transport for InProc<'_> {
    type Staged = MatmulRequest;

    fn fd(&self) -> RawFd {
        self.waker.efd.raw()
    }

    fn encode(&mut self, req: &GenRequest) -> MatmulRequest {
        runtime_request(self.models, req)
    }

    fn send(
        &mut self,
        request: MatmulRequest,
        token: u64,
        keep: bool,
    ) -> io::Result<Option<Vec<u8>>> {
        let waker: Arc<dyn CompletionWaker> = Arc::clone(&self.waker) as _;
        match self.runtime.submit_with_waker(request, token, waker) {
            Ok(handle) => {
                self.handles.insert(token, (handle, keep));
            }
            Err(e) => self.ready.push((token, Err(e), keep)),
        }
        Ok(None)
    }

    fn wants_write(&self) -> bool {
        false
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn poll(&mut self, out: &mut Vec<Reply>) -> io::Result<()> {
        self.waker.efd.drain();
        let woken = std::mem::take(&mut *self.waker.tokens.lock().expect("waker lock"));
        for token in woken {
            if let Some((handle, keep)) = self.handles.remove(&token) {
                let result = handle.try_wait().unwrap_or(Err(RuntimeError::WorkerLost));
                self.ready.push((token, result, keep));
            }
        }
        for (token, result, keep) in self.ready.drain(..) {
            let received = Instant::now();
            let (status, kind, energy_j, whole) = match result {
                Ok(resp) => {
                    let energy_j = resp.cost.total_energy_j();
                    (
                        200,
                        String::new(),
                        energy_j,
                        keep.then(|| Whole::Reply(reply_of(resp))),
                    )
                }
                Err(e) => {
                    let (status, kind, _) = pic_net::error_status(&e);
                    (status, kind.to_owned(), 0.0, None)
                }
            };
            out.push(Reply {
                token,
                status,
                kind,
                energy_j,
                whole,
                received,
                decode_ns: received.elapsed().as_nanos() as u64,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Offer {
    /// A fixed-rate schedule of `rate` requests/s over `threads` client
    /// threads starting at `t0`; this thread sends every `threads`-th
    /// slot starting at slot `thread`.
    Paced {
        /// Total offered requests/s.
        rate: f64,
        /// Schedule origin shared by every client thread.
        t0: Instant,
        /// Client threads sharing the schedule.
        threads: usize,
        /// This thread's index.
        thread: usize,
    },
    /// Keep the window full from `t0` for the phase.
    Closed {
        /// Phase start.
        t0: Instant,
    },
}

/// Running totals over OK replies.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// OK replies.
    pub ok: f64,
    /// Their modeled operations, `2 · out · in · samples` each.
    pub ops: f64,
    /// Their modeled energy, J.
    pub energy_j: f64,
    /// Their input samples.
    pub samples: f64,
}

impl std::ops::AddAssign for Totals {
    fn add_assign(&mut self, o: Totals) {
        self.ok += o.ok;
        self.ops += o.ops;
        self.energy_j += o.energy_j;
        self.samples += o.samples;
    }
}

/// A reply kept to check against a solo executor.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckItem {
    /// The request's stream lane.
    pub lane: u64,
    /// Its position in the lane.
    pub seq: u64,
    /// Which model.
    pub model: usize,
    /// Digest of the outputs as received.
    pub digest: u64,
}

/// A request kept whole for the traced run's serial replays.
#[derive(Debug, Clone)]
pub struct ReplayItem {
    /// Which model.
    pub model: usize,
    /// Its inputs.
    pub inputs: Vec<Vec<f64>>,
    /// The exact HTTP bytes sent (networked workloads).
    pub bytes: Option<Vec<u8>>,
    /// The reply received.
    pub reply: MatmulReply,
}

/// Everything one client thread saw in one phase, aggregated as it
/// happens: the client's memory must not grow with the server's speed,
/// or a faster server would read as a larger `peak_rss_mb`.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Requests handed to the transport.
    pub sent: u64,
    /// Outcome counts of the requests sent.
    pub tally: Tally,
    /// OK replies completed before the phase ended.
    pub in_window: Totals,
    /// Every OK reply.
    pub all_ok: Totals,
    /// Paced phases: each request without an expired deadline.
    pub samples: Vec<Sample>,
    /// Paced phases: how late each send ran, ns.
    pub lags_ns: Vec<u64>,
    /// Paced phases: client encode + decode of each OK reply, ns.
    pub client_ns: Vec<u64>,
    /// Replies kept for the bit-identity check.
    pub checks: Vec<CheckItem>,
    /// Requests kept for replay (traced run only).
    pub replay: Vec<ReplayItem>,
    /// Whether the transport failed mid-phase.
    pub transport_error: Option<String>,
}

impl ThreadLog {
    /// Folds in one finished (or lost, `status` 0) request.
    fn finish(&mut self, models: &ModelSet, req: &GenRequest, reply: Finished) {
        self.tally.add(reply.status, reply.kind, req.pre_expired);
        let ok = reply.status == 200;
        if ok {
            let t = Totals {
                ok: 1.0,
                ops: models.ops(req.model, req.inputs.len()) as f64,
                energy_j: reply.energy_j,
                samples: req.inputs.len() as f64,
            };
            self.all_ok += t;
            if reply.in_window {
                self.in_window += t;
            }
        }
        if let Some(p) = reply.paced {
            if !req.pre_expired {
                self.samples.push(if ok {
                    Sample {
                        latency_ns: p.latency_ns,
                        wait_ns: p.wait_ns,
                    }
                } else {
                    Sample {
                        latency_ns: u64::MAX,
                        wait_ns: 0,
                    }
                });
            }
            self.lags_ns.push(p.lag_ns);
            if ok {
                self.client_ns.push(p.client_ns);
            }
        }
    }
}

/// One paced request's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Latency from the request's due time to its decoded reply, ns;
    /// `u64::MAX` for a request that failed.
    pub latency_ns: u64,
    /// The part of it between the last request byte sent and the first
    /// reply byte read, ns (0 for a failed request).
    pub wait_ns: u64,
}

/// One request's outcome as [`ThreadLog::finish`] folds it in.
struct Finished<'k> {
    status: u16,
    kind: &'k str,
    energy_j: f64,
    in_window: bool,
    paced: Option<PacedTimes>,
}

/// The timings a paced phase keeps per request.
struct PacedTimes {
    latency_ns: u64,
    lag_ns: u64,
    client_ns: u64,
    wait_ns: u64,
}

/// Knobs of one [`drive`] call.
#[derive(Debug)]
pub struct Drive<'r> {
    /// The request stream's lane number (for regenerating checked
    /// requests later).
    pub lane: u64,
    /// How long the phase offers load.
    pub duration: Duration,
    /// How load is offered.
    pub offer: Offer,
    /// Keep up to this many whole requests for replay.
    pub replay_cap: usize,
    /// Record client spans here (traced run).
    pub spans: Option<&'r Mutex<SpanRing>>,
    /// Flip one bit of the first checked reply (gate self-test).
    pub flip_first_check: bool,
}

/// A request encoded ahead of its due time.
struct Staged<S> {
    req: GenRequest,
    payload: S,
    encoded: (Instant, Instant),
}

/// A request on the wire.
struct Open {
    req: GenRequest,
    due: Instant,
    encoded: (Instant, Instant),
    send_start: Instant,
    sent: Instant,
    check: bool,
    replay: bool,
    bytes: Option<Vec<u8>>,
}

/// An FNV-1a-style hash over a reply's outputs, a 64-bit word at a time:
/// code sums and value bits, in order. Each step is a bijection of the
/// running state, so two outputs that differ in any one word always
/// digest differently.
#[must_use]
pub fn digest(outputs: &[Vec<OutputElement>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    eat(outputs.len() as u64);
    for row in outputs {
        eat(row.len() as u64);
        for e in row {
            eat(u64::from(e.code_sum));
            eat(e.value.to_bits());
        }
    }
    h
}

/// Runs one phase on one connection and returns what it saw.
///
/// The next request is generated and encoded while the loop is idle, so
/// at its due time only the send remains on the measured path.
///
/// # Errors
///
/// Epoll or timer setup failures. Transport failures mid-phase are
/// recorded in [`ThreadLog::transport_error`] with the open requests
/// counted lost.
#[allow(clippy::too_many_lines)]
pub fn drive<T: Transport>(
    transport: &mut T,
    stream: &mut RequestStream<'_>,
    opts: Drive<'_>,
) -> io::Result<ThreadLog> {
    const DATA_CONN: u64 = 0;
    const DATA_TIMER: u64 = 1;
    let epoll = Epoll::new()?;
    let timer = Timer::new()?;
    epoll.add(transport.fd(), EPOLLIN, DATA_CONN)?;
    epoll.add(timer.raw(), EPOLLIN, DATA_TIMER)?;
    let mut write_armed = false;
    let mut events = [EpollEvent { events: 0, data: 0 }; 4];

    let (t0, paced) = match opts.offer {
        Offer::Paced { t0, .. } => (t0, true),
        Offer::Closed { t0 } => (t0, false),
    };
    let end = t0 + opts.duration;
    // Paced: this thread's slots are `thread, thread + threads, …` below
    // `rate · duration`.
    let (slots, interval, stride, first) = match opts.offer {
        Offer::Paced {
            rate,
            threads,
            thread,
            ..
        } => {
            let total = (rate * opts.duration.as_secs_f64()).floor() as u64;
            let mine = total.saturating_sub(thread as u64).div_ceil(threads as u64);
            (mine, 1.0 / rate, threads as u64, thread as u64)
        }
        Offer::Closed { .. } => (u64::MAX, 0.0, 1, 0),
    };
    let due_of = |i: u64| t0 + Duration::from_secs_f64((first + i * stride) as f64 * interval);
    let ns = |later: Instant, earlier: Instant| {
        later.saturating_duration_since(earlier).as_nanos() as u64
    };

    let mut log = ThreadLog::default();
    let mut open: HashMap<u64, Open> = HashMap::new();
    let mut replies = Vec::new();
    let mut staged: Option<Staged<T::Staged>> = None;
    let mut next = 0u64;
    let mut sending = true;
    let mut replay_kept = 0usize;

    loop {
        let now = Instant::now();
        if sending && (if paced { next >= slots } else { now >= end }) {
            sending = false;
        }
        while sending && open.len() < WINDOW && log.transport_error.is_none() {
            let due = if paced { due_of(next) } else { Instant::now() };
            if due > Instant::now() {
                break;
            }
            let Staged {
                req,
                payload,
                encoded,
            } = match staged.take() {
                Some(s) => s,
                None => stage(transport, stream),
            };
            let check = req.seq % CHECK_EVERY == 0;
            let replay = replay_kept < opts.replay_cap;
            replay_kept += usize::from(replay);
            let send_start = Instant::now();
            log.sent += 1;
            match transport.send(payload, next, check || replay) {
                Ok(bytes) => {
                    open.insert(
                        next,
                        Open {
                            req,
                            due,
                            encoded,
                            send_start,
                            sent: Instant::now(),
                            check,
                            replay,
                            bytes,
                        },
                    );
                }
                Err(e) => {
                    log.transport_error = Some(e.to_string());
                    log.finish(stream.models(), &req, lost(paced));
                }
            }
            next += 1;
            if paced && next >= slots {
                sending = false;
            }
        }

        if log.transport_error.is_none() {
            let polled = transport
                .flush()
                .and_then(|()| transport.poll(&mut replies));
            if let Err(e) = polled {
                log.transport_error = Some(e.to_string());
            }
        }
        for reply in replies.drain(..) {
            let Some(o) = open.remove(&reply.token) else {
                continue;
            };
            let completed = reply.received + Duration::from_nanos(reply.decode_ns);
            let encode_ns = (o.encoded.1 - o.encoded.0).as_nanos() as u64;
            log.finish(
                stream.models(),
                &o.req,
                Finished {
                    status: reply.status,
                    kind: &reply.kind,
                    energy_j: reply.energy_j,
                    in_window: completed <= end,
                    paced: paced.then(|| PacedTimes {
                        latency_ns: ns(completed, o.due),
                        lag_ns: ns(o.send_start, o.due),
                        client_ns: encode_ns + reply.decode_ns,
                        wait_ns: ns(reply.received, o.sent),
                    }),
                },
            );
            if let Some(ring) = opts.spans {
                let mut spans = ring.lock().expect("span ring lock");
                let trace = (opts.lane << 32) | o.req.seq;
                let root = spans.span(trace, "request", None, o.due.min(o.encoded.0), completed);
                spans.span(trace, "encode", root, o.encoded.0, o.encoded.1);
                spans.span(trace, "send", root, o.send_start, o.sent);
                spans.span(trace, "wait", root, o.sent, reply.received);
                spans.span(trace, "decode", root, reply.received, completed);
            }
            // Checked replies are reduced to a digest at once, so the
            // client's memory does not grow with the server's speed.
            let mut parsed = match reply.whole {
                None => continue,
                Some(Whole::Reply(reply)) => reply,
                Some(Whole::Body(text)) => match serde_json::from_str::<MatmulReply>(&text) {
                    Ok(reply) => reply,
                    Err(e) => {
                        log.transport_error = Some(format!("bad reply body: {e}"));
                        continue;
                    }
                },
            };
            if o.check {
                if opts.flip_first_check && log.checks.is_empty() {
                    if let Some(e) = parsed.outputs.first_mut().and_then(|r| r.first_mut()) {
                        e.code_sum ^= 1;
                    }
                }
                log.checks.push(CheckItem {
                    lane: opts.lane,
                    seq: o.req.seq,
                    model: o.req.model,
                    digest: digest(&parsed.outputs),
                });
            }
            if o.replay {
                log.replay.push(ReplayItem {
                    model: o.req.model,
                    inputs: o.req.inputs,
                    bytes: o.bytes,
                    reply: parsed,
                });
            }
        }

        let now = Instant::now();
        if !sending && open.is_empty() {
            break;
        }
        if log.transport_error.is_some() || (!sending && now >= end + DRAIN_TIMEOUT) {
            for o in open.into_values() {
                log.finish(stream.models(), &o.req, lost(paced));
            }
            break;
        }
        // Idle: encode the next request before it falls due.
        if sending && staged.is_none() {
            staged = Some(stage(transport, stream));
        }

        // Sleep until a reply can be read or the next send falls due.
        let mut wait_ms = MAX_WAIT_MS;
        let now = Instant::now();
        if sending && open.len() < WINDOW {
            if !paced {
                continue;
            }
            let due = due_of(next);
            if due <= now {
                continue;
            }
            timer.arm(due - now)?;
        } else if sending {
            let left = end.saturating_duration_since(now).as_millis();
            wait_ms = wait_ms.min(i32::try_from(left + 1).unwrap_or(MAX_WAIT_MS));
        }
        let want_write = transport.wants_write();
        if want_write != write_armed {
            let interest = if want_write {
                EPOLLIN | EPOLLOUT
            } else {
                EPOLLIN
            };
            epoll.modify(transport.fd(), interest, DATA_CONN)?;
            write_armed = want_write;
        }
        let n = epoll.wait(&mut events, wait_ms)?;
        if events[..n].iter().any(|e| e.data == DATA_TIMER) {
            timer.clear();
        }
    }

    Ok(log)
}

/// Draws and encodes the next request.
fn stage<T: Transport>(transport: &mut T, stream: &mut RequestStream<'_>) -> Staged<T::Staged> {
    let start = Instant::now();
    let req = stream.next_request();
    let payload = transport.encode(&req);
    Staged {
        req,
        payload,
        encoded: (start, Instant::now()),
    }
}

/// A request that never got a reply: failed, and, when paced, late
/// beyond any limit.
fn lost(paced: bool) -> Finished<'static> {
    Finished {
        status: 0,
        kind: "lost",
        energy_j: 0.0,
        in_window: false,
        paced: paced.then_some(PacedTimes {
            latency_ns: u64::MAX,
            lag_ns: 0,
            client_ns: 0,
            wait_ns: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A one-connection HTTP server that answers every request at once,
    /// except that it stops answering for `stall` after the `at`-th
    /// request. Returns when the connection closes, reporting when the
    /// stall began and ended.
    fn stalling_server(
        listener: TcpListener,
        at: usize,
        stall: Duration,
    ) -> std::thread::JoinHandle<(Instant, Instant)> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let body = r#"{"batched_with":1,"device":0,"energy_j":1e-12,"outputs":[],"tiles_resident":1,"tiles_written":0}"#;
            let (mut began, mut ended) = (Instant::now(), Instant::now());
            for served in 0.. {
                let mut length = 0usize;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return (began, ended);
                    }
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().expect("length");
                    }
                }
                let mut skip = vec![0u8; length];
                reader.read_exact(&mut skip).expect("body");
                if served == at {
                    began = Instant::now();
                    std::thread::sleep(stall);
                    ended = Instant::now();
                }
                let reply = format!(
                    "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                );
                writer.write_all(reply.as_bytes()).expect("reply");
            }
            unreachable!()
        })
    }

    #[test]
    fn a_server_stall_inflates_the_latency_of_every_request_due_during_it() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = stalling_server(listener, 100, Duration::from_millis(50));
        let models = ModelSet::generate(Kind::ServeHot, 42);
        let mut stream = RequestStream::new(&models, 42, 0);
        let mut conn = NetConn::connect(addr, "co-test", &models).expect("connect");
        let t0 = Instant::now() + Duration::from_millis(5);
        let duration = Duration::from_millis(400);
        let log = drive(
            &mut conn,
            &mut stream,
            Drive {
                lane: 0,
                duration,
                offer: Offer::Paced {
                    rate: 1000.0,
                    t0,
                    threads: 1,
                    thread: 0,
                },
                replay_cap: 0,
                spans: None,
                flip_first_check: false,
            },
        )
        .expect("drive");
        drop(conn);
        let (began, ended) = server.join().expect("server");
        assert!(log.transport_error.is_none());
        assert_eq!(log.sent, 400, "the schedule is sent in full");
        assert_eq!(log.tally.ok + log.tally.expired_as_expected, 400);
        let mut inflated = 0;
        // Completions arrive in send order on one connection, so sample
        // k (pre-expired requests skipped) is the k-th due request.
        let served = (0..400u64).filter(|seq| seq % 50 != 16);
        for (i, sample) in served.zip(&log.samples) {
            let latency_ns = sample.latency_ns;
            let due = t0 + Duration::from_micros(1000 * i);
            if due >= began && due < ended {
                // Nothing is answered during the stall, so a request due
                // inside it cannot finish before the stall ends — even
                // the ones the full window kept from being sent at all.
                let floor = (ended - due).as_nanos() as u64;
                assert!(
                    latency_ns + 1_000 >= floor,
                    "request {i}: {latency_ns} < {floor}"
                );
                inflated += 1;
            }
        }
        assert!(
            inflated >= 40,
            "about 50 requests fall due in a 50 ms stall"
        );
        let late = log.lags_ns.iter().filter(|&&lag| lag > 10_000_000).count();
        assert!(late > 0, "the window filled, so the generator ran late");
    }

    #[test]
    fn digests_see_a_single_flipped_bit() {
        let outputs = vec![vec![
            OutputElement {
                code_sum: 12,
                value: 0.25,
            };
            16
        ]];
        let mut flipped = outputs.clone();
        flipped[0][3].code_sum ^= 1;
        assert_ne!(digest(&outputs), digest(&flipped));
        assert_eq!(digest(&outputs), digest(&outputs.clone()));
    }

    #[test]
    fn scans_scalar_fields_of_a_flat_reply() {
        let body = r#"{"batched_with":3,"device":2,"energy_j":1.5e-9,"outputs":[[{"code_sum":4,"value":0.5}]],"tiles_resident":0,"tiles_written":4}"#;
        assert_eq!(scan_number(body, "\"device\":"), Some(2.0));
        assert_eq!(scan_number(body, "\"energy_j\":"), Some(1.5e-9));
        assert_eq!(scan_number(body, "\"tiles_written\":"), Some(4.0));
        assert_eq!(scan_number(body, "\"batched_with\":"), Some(3.0));
        assert_eq!(
            scan_kind(r#"{"error":"late","kind":"deadline_expired"}"#),
            "deadline_expired"
        );
    }
}
