//! A small blocking client for the front-end — used by the loopback
//! benchmark drivers and the end-to-end tests, and a reference for how
//! foreign clients should speak the wire protocol.

use crate::http::{read_response, ParsedResponse};
use crate::wire::{ErrorReply, MatmulReply, MatmulWire};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How a networked matmul can fail, as seen by the client.
#[derive(Debug)]
pub enum NetError {
    /// The server answered with a typed error reply.
    Rejected {
        /// HTTP status (`429`, `504`, ...).
        status: u16,
        /// Stable machine-readable kind (`"queue_full"`, ...).
        kind: String,
        /// Human-readable description.
        error: String,
        /// Server-suggested backoff, seconds, when present.
        retry_after_s: Option<u64>,
    },
    /// The connection failed before a reply arrived.
    Transport(std::io::Error),
    /// The reply arrived but was not the protocol this client speaks.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Rejected {
                status,
                kind,
                error,
                retry_after_s,
            } => {
                write!(f, "rejected ({status} {kind}): {error}")?;
                if let Some(s) = retry_after_s {
                    write!(f, " (retry after {s}s)")?;
                }
                Ok(())
            }
            NetError::Transport(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(why) => write!(f, "protocol error: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Transport(e)
    }
}

/// Backoff for `429` sheds: exponential with full jitter, honouring
/// the server's `Retry-After` hint as a floor. The server suggests
/// *when* capacity may free up; the exponential keeps repeat offenders
/// from synchronising; the jitter de-correlates clients shed in the
/// same instant so they don't stampede back together.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Backoff before the first retry (doubles each retry).
    pub base: Duration,
    /// Ceiling on any one sleep — also clamps the server's
    /// `Retry-After` hint, so a loopback benchmark can bound its
    /// worst-case stall while a real deployment honours whole seconds.
    pub cap: Duration,
    /// Retries before the `429` is returned to the caller.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_micros(500),
            cap: Duration::from_secs(2),
            max_retries: 16,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based), given the
    /// server's `Retry-After` hint and one draw `r` of randomness:
    /// `target = clamp(max(base · 2^attempt, retry_after), ..cap)`,
    /// jittered uniformly into `[target/2, target]`.
    #[must_use]
    pub fn delay(&self, attempt: u32, retry_after_s: Option<u64>, r: u64) -> Duration {
        let cap_ns = self.cap.as_nanos();
        let exp_ns = self
            .base
            .as_nanos()
            .saturating_mul(1u128 << attempt.min(63));
        let hint_ns = retry_after_s.map_or(0, |s| u128::from(s).saturating_mul(1_000_000_000));
        let target_ns = exp_ns.max(hint_ns).min(cap_ns);
        let span = target_ns / 2;
        let jitter = if span == 0 {
            0
        } else {
            u128::from(r) % (span + 1)
        };
        Duration::from_nanos((target_ns - jitter).min(u128::from(u64::MAX)) as u64)
    }
}

/// One step of a SplitMix64 stream — the client's deterministic jitter
/// source (no RNG dependency, stable across runs for a given id).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One persistent (keep-alive) connection to a
/// [`NetServer`](crate::NetServer), identified to fair admission by its
/// client id.
///
/// Each request goes out as one buffer in one `write_all`. With
/// `TCP_NODELAY` set, formatting straight into the socket would send
/// every piece as a write of its own, and a client descheduled between
/// pieces for longer than the server's mid-request read timeout would
/// lose its connection.
#[derive(Debug)]
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    client_id: String,
    /// SplitMix64 state seeding retry jitter, derived from the id.
    jitter: u64,
}

impl NetClient {
    /// Connects and identifies as `client_id` (sent as the `x-client`
    /// header on every request).
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: impl ToSocketAddrs, client_id: &str) -> std::io::Result<NetClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // Generous ceiling so a wedged server fails a test instead of
        // hanging it; normal replies arrive in microseconds.
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(NetClient {
            reader,
            writer,
            client_id: client_id.to_owned(),
            jitter: fnv1a(client_id.as_bytes()),
        })
    }

    /// The id this connection presents to fair admission.
    #[must_use]
    pub fn client_id(&self) -> &str {
        &self.client_id
    }

    /// Issues a `GET` (for `/metrics` and `/healthz`).
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` on a malformed reply.
    pub fn get(&mut self, path: &str) -> std::io::Result<ParsedResponse> {
        let head = format!(
            "GET {path} HTTP/1.1\r\nx-client: {}\r\n\r\n",
            self.client_id
        );
        self.writer.write_all(head.as_bytes())?;
        read_response(&mut self.reader)
    }

    /// Submits one matmul and blocks for the reply.
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] for typed server errors (sheds, expired
    /// deadlines, backpressure), [`NetError::Transport`] /
    /// [`NetError::Protocol`] for connection or framing failures.
    pub fn matmul(&mut self, request: &MatmulWire) -> Result<MatmulReply, NetError> {
        let body = serde_json::to_string(request)
            .map_err(|e| NetError::Protocol(format!("request does not serialise: {e}")))?;
        let mut message = format!(
            "POST /v1/matmul HTTP/1.1\r\nx-client: {}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            self.client_id,
            body.len()
        );
        message.push_str(&body);
        self.writer.write_all(message.as_bytes())?;
        let response = read_response(&mut self.reader)?;
        if response.status == 200 {
            return serde_json::from_str(&response.text())
                .map_err(|e| NetError::Protocol(format!("bad reply body: {e}")));
        }
        let retry_after_s = response
            .header("retry-after")
            .and_then(|v| v.parse::<u64>().ok());
        let (kind, error) = match serde_json::from_str::<ErrorReply>(&response.text()) {
            Ok(reply) => (reply.kind, reply.error),
            Err(_) => ("unknown".to_owned(), response.text()),
        };
        Err(NetError::Rejected {
            status: response.status,
            kind,
            error,
            retry_after_s,
        })
    }

    /// Like [`NetClient::matmul`], but retries `429` sheds with the
    /// policy's jittered exponential backoff, honouring the server's
    /// `Retry-After` hint. Returns the reply and how many retries it
    /// took. Any non-`429` outcome (success, typed error, transport
    /// failure) passes straight through.
    ///
    /// # Errors
    ///
    /// As [`NetClient::matmul`]; a `429` that survives
    /// `policy.max_retries` retries is returned as-is.
    pub fn matmul_with_retry(
        &mut self,
        request: &MatmulWire,
        policy: &RetryPolicy,
    ) -> Result<(MatmulReply, u32), NetError> {
        let mut attempt = 0u32;
        loop {
            match self.matmul(request) {
                Ok(reply) => return Ok((reply, attempt)),
                Err(NetError::Rejected {
                    status: 429,
                    retry_after_s,
                    ..
                }) if attempt < policy.max_retries => {
                    let r = splitmix64(&mut self.jitter);
                    let delay = policy.delay(attempt, retry_after_s, r);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(16),
            max_retries: 8,
        };
        // Zero jitter draw: the delay is exactly the target.
        assert_eq!(policy.delay(0, None, 0), Duration::from_millis(1));
        assert_eq!(policy.delay(2, None, 0), Duration::from_millis(4));
        assert_eq!(policy.delay(10, None, 0), Duration::from_millis(16));
        // Huge attempt numbers must not overflow.
        assert_eq!(policy.delay(u32::MAX, None, 0), Duration::from_millis(16));
    }

    #[test]
    fn retry_after_floors_the_backoff_and_the_cap_bounds_it() {
        let policy = RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_secs(3),
            max_retries: 8,
        };
        // The 1s hint dominates the small exponential term.
        assert_eq!(policy.delay(0, Some(1), 0), Duration::from_secs(1));
        // A hint beyond the cap clamps to it.
        assert_eq!(policy.delay(0, Some(60), 0), Duration::from_secs(3));
    }

    #[test]
    fn jitter_stays_within_the_half_open_window() {
        let policy = RetryPolicy {
            base: Duration::from_millis(8),
            cap: Duration::from_secs(1),
            max_retries: 8,
        };
        let target = Duration::from_millis(8);
        let mut state = fnv1a(b"client-jitter");
        let mut seen_below_target = false;
        for _ in 0..64 {
            let d = policy.delay(0, None, splitmix64(&mut state));
            assert!(d >= target / 2, "jitter never undershoots half: {d:?}");
            assert!(d <= target, "jitter never exceeds the target: {d:?}");
            seen_below_target |= d < target;
        }
        assert!(seen_below_target, "the draw actually varies");
    }

    #[test]
    fn jitter_stream_is_deterministic_per_client_id() {
        let mut a = fnv1a(b"alice");
        let mut b = fnv1a(b"alice");
        let mut c = fnv1a(b"bob");
        let (da, db, dc) = (splitmix64(&mut a), splitmix64(&mut b), splitmix64(&mut c));
        assert_eq!(da, db, "same id, same stream");
        assert_ne!(da, dc, "different ids decorrelate");
    }
}
