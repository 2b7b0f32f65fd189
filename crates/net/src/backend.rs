//! The serving-backend abstraction behind [`NetServer`](crate::NetServer).
//!
//! The HTTP front-end doesn't care whether a matmul is executed by one
//! in-process [`Runtime`] or fanned out across a cluster of them — it
//! needs four capabilities: take a request without blocking and finish
//! it when woken, answer the health probe, produce a metrics
//! [`Frame`](pic_obs::Frame), and shut down. Those four are
//! [`ServeBackend`]; `pic-net` implements it for [`Runtime`] and
//! `pic-cluster` implements it for its `Coordinator`, so one front-end
//! serves both a single node and a whole fleet.
//!
//! A request moves through one path: [`ServeBackend::submit`] answers
//! [`Submitted::Ready`] or [`Submitted::Pending`] with the backend's
//! in-flight state; each `wake(token)` on the submitter's
//! [`CompletionWaker`] hands that state to [`ServeBackend::poll`],
//! which answers the same way. Neither call ever blocks.

use crate::wire::error_status;
use pic_runtime::{
    CompletionWaker, MatmulRequest, OutputElement, Response, ResponseHandle, Runtime, RuntimeError,
};
use std::sync::Arc;

/// The backend's answer to one served matmul, flattened to the fields
/// the wire reply carries. A single-node backend copies them from its
/// [`Response`]; a cluster backend reduces them
/// over shards (outputs merged bit-identically, costs summed, `device`
/// and `batched_with` taken from the widest shard call).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per input sample, per logical output row.
    pub outputs: Vec<Vec<OutputElement>>,
    /// Device (single-node) or node (cluster) that carried the request.
    pub device: u64,
    /// Requests sharing the dispatch batch (1 = unbatched).
    pub batched_with: u64,
    /// Tiles streamed through the optical write path.
    pub tiles_written: u64,
    /// Tiles already resident (writes skipped).
    pub tiles_resident: u64,
    /// The request's share of modeled hardware energy, J.
    pub energy_j: f64,
}

/// A serving failure already mapped to its HTTP rendering, so backends
/// with different native error types (e.g. a cluster's node-loss
/// errors) all speak the same typed-error wire contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable kind (`"deadline_expired"`, ...).
    pub kind: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Optional `Retry-After` hint, seconds.
    pub retry_after_s: Option<u64>,
}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> ServeError {
        let (status, kind, retry_after_s) = error_status(&e);
        ServeError {
            status,
            kind,
            message: e.to_string(),
            retry_after_s,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.status, self.kind, self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<Response> for ServeOutcome {
    fn from(resp: Response) -> ServeOutcome {
        ServeOutcome {
            outputs: resp.outputs,
            device: resp.device as u64,
            batched_with: resp.batched_with as u64,
            tiles_written: resp.cost.tiles_written as u64,
            tiles_resident: resp.cost.tiles_resident as u64,
            energy_j: resp.cost.total_energy_j(),
        }
    }
}

/// Where a request stands after [`ServeBackend::submit`] or
/// [`ServeBackend::poll`].
#[derive(Debug)]
pub enum Submitted<P> {
    /// Settled (typed rejection or result): the waker will not fire
    /// again for this request.
    Ready(Result<ServeOutcome, ServeError>),
    /// In flight: the waker fires `wake(token)` exactly once when the
    /// request can move on, and the state then goes to
    /// [`ServeBackend::poll`].
    Pending(P),
}

/// What the HTTP front-end needs from whatever executes matmuls.
pub trait ServeBackend: Send + Sync + 'static {
    /// A request's in-flight state between its wakes.
    type Pending: Send + 'static;

    /// Submits without blocking: the backend either settles the
    /// request synchronously, or accepts it and later fires
    /// `waker.wake(token)` exactly once.
    fn submit(
        &self,
        request: MatmulRequest,
        token: u64,
        waker: Arc<dyn CompletionWaker>,
    ) -> Submitted<Self::Pending>;

    /// Moves a request on after its waker fired. Never blocks; a
    /// [`Submitted::Pending`] answer means the backend re-armed the
    /// same waker, which fires `wake(token)` exactly once more.
    fn poll(&self, pending: Self::Pending) -> Submitted<Self::Pending>;

    /// Whether the backend still accepts new work (drives `/healthz`).
    fn is_accepting(&self) -> bool;

    /// The backend's metrics frame (drives `/metrics`).
    fn frame(&self) -> pic_obs::Frame;

    /// Drains and joins the backend. Called exactly once, after every
    /// reactor thread has exited.
    fn shutdown(&mut self);
}

impl ServeBackend for Runtime {
    type Pending = ResponseHandle;

    fn submit(
        &self,
        request: MatmulRequest,
        token: u64,
        waker: Arc<dyn CompletionWaker>,
    ) -> Submitted<ResponseHandle> {
        match self.submit_with_waker(request, token, waker) {
            Ok(handle) => Submitted::Pending(handle),
            Err(e) => Submitted::Ready(Err(e.into())),
        }
    }

    fn poll(&self, handle: ResponseHandle) -> Submitted<ResponseHandle> {
        // The waker fires only after the response channel settled; an
        // empty handle here is a lost worker.
        let result = handle.try_wait().unwrap_or(Err(RuntimeError::WorkerLost));
        Submitted::Ready(result.map(ServeOutcome::from).map_err(ServeError::from))
    }

    fn is_accepting(&self) -> bool {
        Runtime::is_accepting(self)
    }

    fn frame(&self) -> pic_obs::Frame {
        Runtime::frame(self)
    }

    fn shutdown(&mut self) {
        Runtime::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_errors_render_like_runtime_errors() {
        let e = ServeError::from(RuntimeError::QueueFull);
        assert_eq!(
            (e.status, e.kind, e.retry_after_s),
            (429, "queue_full", Some(1))
        );
        let e = ServeError::from(RuntimeError::ShuttingDown);
        assert_eq!((e.status, e.kind), (503, "shutting_down"));
        assert!(e.to_string().contains("503"));
    }
}
