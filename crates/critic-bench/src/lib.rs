//! Shared scaffolding behind the `critic` binary: the fault drills behind
//! `critic chaos` / `drill` / `soak` (see [`chaos`], [`drill`], [`soak`])
//! over one audit library (see [`audit`]), and the service
//! stack behind `critic serve` / `loadgen` / `soak` (see [`serve`],
//! [`loadgen`], [`soak`]) plus the sharded front tier behind
//! `critic router` (see [`router`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chaos;
pub mod drill;
pub mod loadgen;
pub mod router;
pub mod serve;
pub mod soak;

/// Recovers the guard from a poisoned lock: the state behind these locks
/// (load-generator ledgers, route tables, shard slots, reply streams) is
/// only mutated by whole-value operations, so a panicked sibling cannot
/// leave it half-written, and giving it up would lose replies.
pub(crate) fn lock_clean<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
