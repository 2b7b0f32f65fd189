//! A pool of calibrated devices with residency-indexed checkout.
//!
//! The pool hands out [`TileExecutor`]s to worker threads. Checkout
//! prefers a device whose resident tile belongs to the requested matrix
//! ([`DevicePool::acquire_for`]), so a stream of requests against the
//! same hot matrix keeps landing on the device that already holds its
//! weights and skips the (slow, energy-hungry) optical rewrite.
//!
//! Residency lookups go through an index (`matrix id → idle devices
//! holding its tile`) maintained on every check-in/check-out, so
//! [`DevicePool::acquire_for`] is a hash lookup instead of the linear
//! scan over every idle executor it used to be. A residency miss
//! deliberately checks out a *blank* device (one holding no live tile)
//! before evicting another matrix's warm tile.

use crate::executor::TileExecutor;
use pic_tensor::TensorCoreConfig;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Condvar, Mutex};

/// Idle devices plus the residency index over them. Only idle devices
/// appear in the indexes: a checked-out device's residency can change,
/// so its claim is re-read (and the index rebuilt) at check-in.
#[derive(Debug, Default)]
struct IdleSet {
    /// device id → executor (`BTreeMap` keeps fallback checkout order
    /// deterministic).
    devices: BTreeMap<usize, TileExecutor>,
    /// matrix id → idle device ids whose resident tile belongs to it.
    by_matrix: HashMap<u64, Vec<usize>>,
    /// Idle device ids holding no live residency claim.
    blank: Vec<usize>,
}

impl IdleSet {
    fn insert(&mut self, device: TileExecutor) {
        let id = device.device_id();
        match device.resident_tile() {
            Some(key) => self.by_matrix.entry(key.matrix).or_default().push(id),
            None => self.blank.push(id),
        }
        self.devices.insert(id, device);
    }

    /// Removes `id` from the device map and whichever index holds it.
    fn remove(&mut self, id: usize) -> TileExecutor {
        let device = self.devices.remove(&id).expect("indexed device is idle");
        match device.resident_tile() {
            Some(key) => {
                let ids = self
                    .by_matrix
                    .get_mut(&key.matrix)
                    .expect("resident device is indexed");
                ids.retain(|&d| d != id);
                if ids.is_empty() {
                    self.by_matrix.remove(&key.matrix);
                }
            }
            None => self.blank.retain(|&d| d != id),
        }
        device
    }

    /// The id this checkout should take: resident match first, then a
    /// blank device (don't evict someone else's warm tile), then the
    /// lowest idle id.
    fn pick(&self, matrix_id: Option<u64>) -> Option<usize> {
        if let Some(m) = matrix_id {
            if let Some(&id) = self.by_matrix.get(&m).and_then(|ids| ids.last()) {
                return Some(id);
            }
        }
        if let Some(&id) = self.blank.last() {
            return Some(id);
        }
        self.devices.keys().next().copied()
    }
}

/// A fixed-size pool of calibrated [`TileExecutor`]s.
#[derive(Debug)]
pub struct DevicePool {
    idle: Mutex<IdleSet>,
    available: Condvar,
    size: usize,
}

impl DevicePool {
    /// Builds and calibrates `devices` executors.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero or the configuration is invalid.
    #[must_use]
    pub fn new(config: TensorCoreConfig, devices: usize) -> Self {
        assert!(devices > 0, "a pool needs at least one device");
        let mut idle = IdleSet::default();
        for id in 0..devices {
            idle.insert(TileExecutor::new(config, id));
        }
        DevicePool {
            idle: Mutex::new(idle),
            available: Condvar::new(),
            size: devices,
        }
    }

    /// Total devices in the pool (idle or checked out).
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Devices currently idle.
    ///
    /// # Panics
    ///
    /// Panics if the pool mutex is poisoned.
    #[must_use]
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("pool lock").devices.len()
    }

    /// `(device id, resident matrix id)` for every *idle* device, in
    /// device-id order — the live residency view behind the exposition
    /// layer's per-device gauges. Checked-out devices are necessarily
    /// absent (their residency is in flux on a worker thread).
    ///
    /// # Panics
    ///
    /// Panics if the pool mutex is poisoned.
    #[must_use]
    pub fn idle_residency(&self) -> Vec<(usize, Option<u64>)> {
        let idle = self.idle.lock().expect("pool lock");
        idle.devices
            .iter()
            .map(|(&id, device)| (id, device.resident_tile().map(|key| key.matrix)))
            .collect()
    }

    /// Matrices whose tile an idle device holds, read from the
    /// residency index (in no particular order).
    #[must_use]
    pub(crate) fn resident_matrices(&self) -> Vec<u64> {
        let idle = self.idle.lock().expect("pool lock");
        idle.by_matrix.keys().copied().collect()
    }

    /// Checks out any device, blocking until one is idle.
    #[must_use]
    pub fn acquire(&self) -> DeviceGuard<'_> {
        self.acquire_with(None)
    }

    /// Checks out a device, preferring one whose resident tile belongs to
    /// `matrix_id` (a residency hit, found through the index); blocks
    /// until any device is idle.
    #[must_use]
    pub fn acquire_for(&self, matrix_id: u64) -> DeviceGuard<'_> {
        self.acquire_with(Some(matrix_id))
    }

    /// Checks out a device only if one is idle right now.
    #[must_use]
    pub fn try_acquire(&self) -> Option<DeviceGuard<'_>> {
        let mut idle = self.idle.lock().expect("pool lock");
        let id = idle.pick(None)?;
        Some(DeviceGuard {
            pool: self,
            device: Some(idle.remove(id)),
        })
    }

    fn acquire_with(&self, matrix_id: Option<u64>) -> DeviceGuard<'_> {
        let mut idle = self.idle.lock().expect("pool lock");
        loop {
            if let Some(id) = idle.pick(matrix_id) {
                return DeviceGuard {
                    pool: self,
                    device: Some(idle.remove(id)),
                };
            }
            idle = self.available.wait(idle).expect("pool lock");
        }
    }

    fn check_in(&self, device: TileExecutor) {
        self.idle.lock().expect("pool lock").insert(device);
        self.available.notify_one();
    }
}

/// RAII checkout of one device; returns it to the pool on drop.
#[derive(Debug)]
pub struct DeviceGuard<'a> {
    pool: &'a DevicePool,
    device: Option<TileExecutor>,
}

impl std::ops::Deref for DeviceGuard<'_> {
    type Target = TileExecutor;

    fn deref(&self) -> &TileExecutor {
        self.device.as_ref().expect("device present until drop")
    }
}

impl std::ops::DerefMut for DeviceGuard<'_> {
    fn deref_mut(&mut self) -> &mut TileExecutor {
        self.device.as_mut().expect("device present until drop")
    }
}

impl Drop for DeviceGuard<'_> {
    fn drop(&mut self) {
        if let Some(device) = self.device.take() {
            self.pool.check_in(device);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{TileShape, TiledMatrix};
    use pic_tensor::TensorCoreConfig;
    use std::sync::Arc;

    fn pool(n: usize) -> DevicePool {
        DevicePool::new(TensorCoreConfig::small_demo(), n)
    }

    #[test]
    fn checkout_and_return_cycle_the_pool() {
        let p = pool(2);
        assert_eq!((p.size(), p.idle_count()), (2, 2));
        let a = p.acquire();
        let b = p.acquire();
        assert_eq!(p.idle_count(), 0);
        assert!(p.try_acquire().is_none());
        assert_ne!(a.device_id(), b.device_id());
        drop(a);
        assert_eq!(p.idle_count(), 1);
        drop(b);
        assert_eq!(p.idle_count(), 2);
    }

    #[test]
    fn warm_checkout_keeps_executor_scratch() {
        let p = pool(1);
        let m = TiledMatrix::from_codes(&vec![vec![3u32; 4]; 4], 3, TileShape::new(4, 4));
        let bytes = {
            let mut dev = p.acquire_for(m.id());
            let _ = dev.execute(&m, &[vec![0.5; 4]]).expect("valid");
            dev.scratch_bytes()
        };
        assert!(bytes > 0);
        // Check-in/check-out must hand back the same warmed executor:
        // residency AND its sized scratch both survive the pool cycle.
        let mut dev = p.acquire_for(m.id());
        assert_eq!(dev.scratch_bytes(), bytes, "pool dropped the warm scratch");
        let _ = dev.execute(&m, &[vec![0.25; 4]]).expect("valid");
        assert_eq!(dev.scratch_bytes(), bytes);
    }

    #[test]
    fn affinity_checkout_finds_the_resident_device() {
        let p = pool(3);
        let m = TiledMatrix::from_codes(&vec![vec![3u32; 4]; 4], 3, TileShape::new(4, 4));
        // Warm exactly one device with the matrix's only tile.
        let warmed_id = {
            let mut dev = p.acquire();
            let _ = dev.execute(&m, &[vec![0.5; 4]]).expect("valid");
            dev.device_id()
        };
        // Shuffle checkout order by cycling the other devices through.
        let (a, b) = (p.acquire(), p.acquire());
        drop(a);
        drop(b);
        assert_eq!(p.resident_matrices(), vec![m.id()]);
        let dev = p.acquire_for(m.id());
        assert_eq!(
            dev.device_id(),
            warmed_id,
            "affinity must find the warm device"
        );
        assert!(
            p.resident_matrices().is_empty(),
            "a checked-out device's tile is not an idle device's"
        );
        let other = p.acquire_for(m.id() + 1000);
        assert_ne!(other.device_id(), warmed_id);
    }

    #[test]
    fn repeated_same_matrix_checkouts_return_the_same_device() {
        let p = pool(4);
        let m = TiledMatrix::from_codes(&vec![vec![5u32; 4]; 4], 3, TileShape::new(4, 4));
        let warmed_id = {
            let mut dev = p.acquire_for(m.id());
            let _ = dev.execute(&m, &[vec![0.5; 4]]).expect("valid");
            dev.device_id()
        };
        for round in 0..5 {
            let dev = p.acquire_for(m.id());
            assert_eq!(
                dev.device_id(),
                warmed_id,
                "round {round} must reuse the resident device"
            );
        }
    }

    #[test]
    fn residency_miss_prefers_a_blank_device_over_evicting_a_warm_one() {
        let p = pool(3);
        let warm = TiledMatrix::from_codes(&vec![vec![2u32; 4]; 4], 3, TileShape::new(4, 4));
        let warmed_id = {
            let mut dev = p.acquire();
            let _ = dev.execute(&warm, &[vec![0.5; 4]]).expect("valid");
            dev.device_id()
        };
        // Two misses for unknown matrices must take the two blank
        // devices and leave the warm one idle.
        let a = p.acquire_for(warm.id() + 1);
        let b = p.acquire_for(warm.id() + 2);
        assert_ne!(a.device_id(), warmed_id);
        assert_ne!(b.device_id(), warmed_id);
        // Only then does a third miss evict the warm device.
        drop(a);
        let still_warm = p.acquire_for(warm.id());
        assert_eq!(still_warm.device_id(), warmed_id);
    }

    #[test]
    fn blocking_acquire_wakes_on_check_in() {
        let p = Arc::new(pool(1));
        let guard = p.acquire();
        let p2 = Arc::clone(&p);
        let waiter = std::thread::spawn(move || {
            let dev = p2.acquire();
            dev.device_id()
        });
        // Give the waiter time to block, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        let id = waiter.join().expect("waiter finishes");
        assert_eq!(id, 0);
    }
}
