//! Content-addressed result cache with single-flight deduplication.
//!
//! A request's [`canonical_key`](crate::job::canonical_key) identifies the
//! computation. The first submitter of a key becomes its *owner* and runs
//! the job; every later submitter of the same key — whether the job is
//! still in flight or already finished — shares the owner's result without
//! re-running anything. Errors are **not sticky**: a key whose last run
//! failed is re-claimed by the next submitter, so a transient
//! `QueueFull`/`ShuttingDown` outcome doesn't poison the cache.

use crate::job::{FarmError, Response};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

enum Entry {
    /// Claimed; the owner is computing. Waiters sleep on the condvar.
    InFlight,
    /// Finished. `Ok` results are served forever; `Err` results are served
    /// to the waiters of that flight and then reclaimed.
    Done(Result<Response, FarmError>),
}

/// What [`ResultCache::claim`] decided about a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The caller owns the key and must run the job, then
    /// [`publish`](ResultCache::publish) — even on failure, or waiters
    /// sharing the key will sleep forever.
    Owner,
    /// Someone else owns (or already finished) the key;
    /// [`wait`](ResultCache::wait) returns the shared result.
    Shared,
}

/// Single-flight, content-addressed cache of job results.
pub struct ResultCache {
    entries: Mutex<HashMap<u64, Entry>>,
    done: Condvar,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache {
            entries: Mutex::new(HashMap::new()),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of keys resident (in-flight + completed).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no key is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Claims `key`. [`Claim::Owner`] means the caller must compute and
    /// [`publish`](Self::publish); [`Claim::Shared`] means the result is
    /// (or will be) available via [`wait`](Self::wait).
    pub fn claim(&self, key: u64) -> Claim {
        let mut map = self.lock();
        match map.get(&key) {
            None => {
                map.insert(key, Entry::InFlight);
                Claim::Owner
            }
            Some(Entry::InFlight) => {
                ape_probe::counter("ape.farm.cache.dedup", 1);
                Claim::Shared
            }
            Some(Entry::Done(Ok(_))) => {
                ape_probe::counter("ape.farm.cache.hit", 1);
                Claim::Shared
            }
            Some(Entry::Done(Err(_))) => {
                // Failed flights are not cached: reclaim and retry.
                ape_probe::counter("ape.farm.cache.retry", 1);
                map.insert(key, Entry::InFlight);
                Claim::Owner
            }
        }
    }

    /// Publishes the result of a claimed flight and wakes every waiter.
    pub fn publish(&self, key: u64, result: Result<Response, FarmError>) {
        let mut map = self.lock();
        map.insert(key, Entry::Done(result));
        drop(map);
        self.done.notify_all();
    }

    /// Blocks until `key` has a published result and returns a clone of it.
    ///
    /// Waiting on a key that was never claimed is a caller bug; it yields
    /// [`FarmError::WorkerLost`] instead of sleeping forever or panicking.
    pub fn wait(&self, key: u64) -> Result<Response, FarmError> {
        let mut map = self.lock();
        loop {
            match map.get(&key) {
                Some(Entry::Done(result)) => return result.clone(),
                Some(Entry::InFlight) => {
                    map = self.done.wait(map).unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    ape_probe::counter("ape.farm.cache.unclaimed_wait", 1);
                    return Err(FarmError::WorkerLost(format!(
                        "wait on key {key:#x} that was never claimed"
                    )));
                }
            }
        }
    }

    /// Non-blocking peek: the published result, if any.
    pub fn peek(&self, key: u64) -> Option<Result<Response, FarmError>> {
        match self.lock().get(&key) {
            Some(Entry::Done(result)) => Some(result.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn first_claim_owns_then_shares() {
        let c = ResultCache::new();
        assert_eq!(c.claim(7), Claim::Owner);
        assert_eq!(c.claim(7), Claim::Shared, "in-flight dedup");
        c.publish(7, Ok(Response::Text("done".into())));
        assert_eq!(c.claim(7), Claim::Shared, "completed hit");
        match c.wait(7) {
            Ok(Response::Text(s)) => assert_eq!(s, "done"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn errors_are_not_sticky() {
        let c = ResultCache::new();
        assert_eq!(c.claim(1), Claim::Owner);
        c.publish(1, Err(FarmError::QueueFull));
        // The failure is delivered to this flight's waiters…
        assert_eq!(c.wait(1).unwrap_err(), FarmError::QueueFull);
        // …but the next claimant re-owns the key and can succeed.
        assert_eq!(c.claim(1), Claim::Owner);
        c.publish(1, Ok(Response::Text("ok".into())));
        assert!(c.wait(1).is_ok());
    }

    #[test]
    fn waiting_on_unclaimed_key_is_an_error() {
        let c = ResultCache::new();
        assert!(matches!(c.wait(42), Err(FarmError::WorkerLost(_))));
    }

    #[test]
    fn waiters_block_until_publish() {
        let c = ResultCache::new();
        assert_eq!(c.claim(3), Claim::Owner);
        thread::scope(|s| {
            let waiters: Vec<_> = (0..3).map(|_| s.spawn(|| c.wait(3))).collect();
            thread::sleep(std::time::Duration::from_millis(20));
            c.publish(3, Ok(Response::Text("late".into())));
            for w in waiters {
                assert!(w.join().unwrap().is_ok());
            }
        });
    }
}
