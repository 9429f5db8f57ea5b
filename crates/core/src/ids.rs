//! Typed identifiers.
//!
//! The system juggles trials, stages, workers, cluster nodes, cloud
//! instances and plans — all naturally indexed by small integers. Newtype
//! wrappers make it a compile error to hand a [`TrialId`] to an API that
//! expects a [`NodeId`].

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Creates an identifier from its raw index.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// Returns the raw index.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }
    };
}

define_id!(
    /// Identifies one hyperparameter configuration's training run (a trial).
    TrialId,
    "trial-"
);
define_id!(
    /// Identifies a stage within an experiment specification.
    StageId,
    "stage-"
);
define_id!(
    /// Identifies one data-parallel worker within a trial's gang.
    WorkerId,
    "worker-"
);
define_id!(
    /// Identifies a logical cluster node (a machine with GPU slots).
    NodeId,
    "node-"
);
define_id!(
    /// Identifies a provisioned cloud instance (the billing entity).
    InstanceId,
    "i-"
);
define_id!(
    /// Identifies a candidate resource allocation plan during planning.
    PlanId,
    "plan-"
);

/// A monotonically increasing identifier allocator.
///
/// # Examples
///
/// ```
/// use rb_core::ids::{IdGen, TrialId};
/// let mut gen = IdGen::<TrialId>::new();
/// assert_eq!(gen.next(), TrialId::new(0));
/// assert_eq!(gen.next(), TrialId::new(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdGen<T> {
    next: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: From<u64>> IdGen<T> {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        IdGen {
            next: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Returns the next identifier.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> T {
        let id = T::from(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(TrialId::new(3).to_string(), "trial-3");
        assert_eq!(NodeId::new(0).to_string(), "node-0");
        assert_eq!(InstanceId::new(17).to_string(), "i-17");
        assert_eq!(StageId::new(2).to_string(), "stage-2");
        assert_eq!(WorkerId::new(5).to_string(), "worker-5");
        assert_eq!(PlanId::new(1).to_string(), "plan-1");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(TrialId::new(1) < TrialId::new(2));
        assert_eq!(TrialId::from(7).raw(), 7);
    }

    #[test]
    fn idgen_is_monotonic() {
        let mut g = IdGen::<NodeId>::new();
        let a = g.next();
        let b = g.next();
        assert!(a < b);
        assert_eq!(g.next, 2);
    }
}
