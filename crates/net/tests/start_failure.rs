//! A `NetServer::start` that fails leaves no thread holding its state:
//! the error drops the backend. This file is a test binary of its own
//! because the test exhausts the process's fd table on purpose, which
//! would break any test running beside it.

use pic_net::{NetConfig, NetServer, ServeBackend, ServeError, Submitted};
use pic_obs::Frame;
use pic_runtime::{CompletionWaker, MatmulRequest};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A backend that serves nothing and reports when it is dropped.
struct DropFlag(Arc<AtomicBool>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl ServeBackend for DropFlag {
    type Pending = ();

    fn submit(
        &self,
        _request: MatmulRequest,
        _token: u64,
        _waker: Arc<dyn CompletionWaker>,
    ) -> Submitted<()> {
        Submitted::Ready(Err(ServeError {
            status: 503,
            kind: "unserved",
            message: "this backend serves nothing".to_owned(),
            retry_after_s: None,
        }))
    }

    fn poll(&self, (): ()) -> Submitted<()> {
        unreachable!("submit never leaves a request pending")
    }

    fn is_accepting(&self) -> bool {
        false
    }

    fn frame(&self) -> Frame {
        Frame::default()
    }

    fn shutdown(&mut self) {}
}

#[test]
fn failed_start_drops_the_backend() {
    let dropped = Arc::new(AtomicBool::new(false));
    // Each reactor needs an eventfd, and 2^20 of them exceed any
    // per-process fd limit the kernel grants (`fs.nr_open` defaults to
    // 2^20), so the reactor pool cannot start.
    let err = NetServer::start(
        NetConfig {
            reactors: 1 << 20,
            ..NetConfig::default()
        },
        DropFlag(Arc::clone(&dropped)),
        HashMap::new(),
    )
    .expect_err("the reactor pool cannot start");
    assert!(
        dropped.load(Ordering::SeqCst),
        "start failed ({err}) but a thread still holds the backend"
    );
}
