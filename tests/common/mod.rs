//! Helpers shared by the integration-test suites.

/// Worker count for the thread-invariance checks: every serial-vs-
/// parallel comparison runs its wide side at this width. Reads
/// `HRP_TEST_THREADS` (CI's matrix exercises 1 and 4); defaults to 4
/// when unset.
///
/// # Panics
/// Panics when `HRP_TEST_THREADS` is set but is not a `usize`, so a
/// typo cannot silently test the default width.
pub fn test_threads() -> usize {
    match std::env::var("HRP_TEST_THREADS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("HRP_TEST_THREADS={v:?} is not a thread count")),
        Err(std::env::VarError::NotPresent) => 4,
        Err(e) => panic!("HRP_TEST_THREADS is not a thread count: {e}"),
    }
}
