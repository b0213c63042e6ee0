//! T1 fixture: ad-hoc concurrency outside the sanctioned grid runner.
use std::sync::atomic::AtomicU64;
use std::sync::mpsc;
use std::sync::Mutex;

fn helper() {
    std::thread::spawn(|| {});
}
