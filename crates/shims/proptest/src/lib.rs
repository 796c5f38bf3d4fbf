//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! The build environment has no network access, so the property tests link
//! against this deterministic mini-harness instead of the real proptest.
//! It is source-compatible with the usage in `tests/`: the [`proptest!`]
//! macro, [`Strategy`] with `prop_map`/`boxed`, range / tuple / [`Just`] /
//! [`any`] strategies, [`prop_oneof!`], `collection::{vec, btree_set}`,
//! [`ProptestConfig::with_cases`], and the `prop_assert*` / `prop_assume!`
//! macros.
//!
//! Differences from real proptest, by design: no shrinking (a failing case
//! reports its master seed and case index, which reproduces it exactly),
//! and input generation is driven by the workspace's own deterministic
//! xoshiro stream. Set `PROPTEST_SEED=<u64>` to vary the corpus.

pub mod collection;
pub mod strategy;

pub use strategy::{any, BoxedStrategy, Just, Strategy, Union};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The RNG handed to strategies.
pub type TestRng = SmallRng;

/// Why a generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed: the property is violated.
    Fail(String),
    /// The inputs did not satisfy a `prop_assume!`; try another case.
    Reject,
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Builds a rejection.
    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        ProptestConfig, TestCaseError,
    };
}

#[doc(hidden)]
pub mod runner {
    use super::*;

    fn master_seed() -> u64 {
        std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x00C0_FFEE)
    }

    fn case_rng(master: u64, name: &str, case: u64) -> TestRng {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        case.hash(&mut h);
        master.hash(&mut h);
        TestRng::seed_from_u64(h.finish())
    }

    /// Drives one property: generates cases until `config.cases` accepted
    /// runs succeed, panicking on the first failure with reproduction info.
    pub fn run(
        config: ProptestConfig,
        name: &str,
        mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        let master = master_seed();
        let mut accepted = 0u64;
        let mut attempts = 0u64;
        let max_attempts = (config.cases as u64).saturating_mul(16).max(64);
        while accepted < config.cases as u64 {
            if attempts >= max_attempts {
                panic!(
                    "proptest '{name}': too many rejected cases \
                     ({accepted}/{} accepted after {attempts} attempts)",
                    config.cases
                );
            }
            let mut rng = case_rng(master, name, attempts);
            attempts += 1;
            match case(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject) => {}
                Err(TestCaseError::Fail(msg)) => panic!(
                    "proptest '{name}' failed at case {} (PROPTEST_SEED={master}): {msg}",
                    attempts - 1
                ),
            }
        }
    }
}

/// Defines property tests, mirroring proptest's macro of the same name.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg) $($rest)*);
    };
    (@impl ($cfg:expr)
        $($(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::runner::run(config, stringify!($name), |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)*
                    #[allow(unused_mut)]
                    let mut body =
                        move || -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            Ok(())
                        };
                    body()
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the harness can report reproduction info.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert!(a == b)` with debug output of both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                left,
                right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// `prop_assert!(a != b)` with debug output of both sides.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left != right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                left
            )));
        }
    }};
}

/// Rejects the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject());
        }
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..17, y in 0usize..5, f in 1.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!((1.0..2.0).contains(&f));
        }

        #[test]
        fn assume_rejects_and_retries(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u32..10).prop_map(|x| x * 2),
            Just(1u32),
        ]) {
            prop_assert!(v == 1 || (v % 2 == 0 && v < 20));
        }

        #[test]
        fn collections_have_requested_sizes(
            v in crate::collection::vec(0u32..50, 6),
            s in crate::collection::btree_set(0u32..1000, 1..20usize),
        ) {
            prop_assert_eq!(v.len(), 6);
            prop_assert!(!s.is_empty() && s.len() < 20);
        }
    }

    fn runner_corpus() -> Vec<u64> {
        use crate::{Strategy, TestRng};
        use rand::SeedableRng;
        let mut out = Vec::new();
        for case in 0..8u64 {
            let mut rng = {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                "corpus".hash(&mut h);
                case.hash(&mut h);
                TestRng::seed_from_u64(h.finish())
            };
            out.push((0u64..1_000_000).generate(&mut rng));
        }
        out
    }

    #[test]
    fn determinism_same_seed_same_corpus() {
        let a = runner_corpus();
        let b = runner_corpus();
        assert_eq!(a, b);
    }
}
