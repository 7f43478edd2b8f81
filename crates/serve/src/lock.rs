//! Poison-recovering lock acquisition for the serve structures.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// A panic under one of the serve locks must fail only the request
/// that panicked — never cascade into every later `.lock().expect(..)`
/// taking the daemon down. Callers are responsible for leaving the
/// protected state consistent (the serve structures mutate their state
/// in single assignments or clear-and-continue on recovery).
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_survives_poison() {
        let m = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
    }
}
