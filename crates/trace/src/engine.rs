//! The engine registry: the paper's nine simulation engines as one
//! enum, owning the facts every layer used to repeat as string tables —
//! the name stamped into traces and requests, the layout dimension, and
//! whether the host must be a uniprocessor.  The certifier's upper
//! envelope per engine lives next to the slack constants in
//! [`crate::certify`], as an exhaustive match on this enum.

use std::fmt;

/// One simulation engine of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Proposition 1 naive simulation, `d = 1`.
    Naive1,
    /// Theorem 4 two-regime multiprocessor scheme, `d = 1`.
    Multi1,
    /// Section 6 pipelined-memory naive simulation, `d = 1`.
    Pipelined1,
    /// Theorems 2 and 3 uniprocessor divide-and-conquer, `d = 1`.
    Dnc1,
    /// Proposition 1 naive simulation, `d = 2`.
    Naive2,
    /// Theorem 1 (`d = 2`) block-banded honeycomb scheme.
    Multi2,
    /// Theorem 5 uniprocessor divide-and-conquer, `d = 2`.
    Dnc2,
    /// Proposition 1 naive simulation on the 3-D uniprocessor host.
    Naive3,
    /// Section 6 conjecture: 4-D separator divide-and-conquer, `d = 3`.
    Dnc3,
}

impl Engine {
    /// Every engine, in registry order.
    pub const ALL: [Engine; 9] = [
        Engine::Naive1,
        Engine::Multi1,
        Engine::Pipelined1,
        Engine::Dnc1,
        Engine::Naive2,
        Engine::Multi2,
        Engine::Dnc2,
        Engine::Naive3,
        Engine::Dnc3,
    ];

    /// The name stamped into traces, requests and reports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Naive1 => "naive1",
            Engine::Multi1 => "multi1",
            Engine::Pipelined1 => "pipelined1",
            Engine::Dnc1 => "dnc1",
            Engine::Naive2 => "naive2",
            Engine::Multi2 => "multi2",
            Engine::Dnc2 => "dnc2",
            Engine::Naive3 => "naive3",
            Engine::Dnc3 => "dnc3",
        }
    }

    /// Look an engine up by its [`name`](Engine::name).
    pub fn from_name(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Layout dimension `d` of the guest and host meshes.
    pub fn dim(self) -> u8 {
        match self {
            Engine::Naive1 | Engine::Multi1 | Engine::Pipelined1 | Engine::Dnc1 => 1,
            Engine::Naive2 | Engine::Multi2 | Engine::Dnc2 => 2,
            Engine::Naive3 | Engine::Dnc3 => 3,
        }
    }

    /// Whether the engine only runs on a uniprocessor host (`p = 1`).
    pub fn uniprocessor_only(self) -> bool {
        matches!(
            self,
            Engine::Dnc1 | Engine::Dnc2 | Engine::Naive3 | Engine::Dnc3
        )
    }

    /// Every engine name, `|`-separated (for usage and error messages).
    pub fn names() -> String {
        Engine::ALL.map(Engine::name).join("|")
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for e in Engine::ALL {
            assert_eq!(Engine::from_name(e.name()), Some(e));
        }
        assert_eq!(Engine::from_name("warp9"), None);
        assert_eq!(Engine::names().split('|').count(), Engine::ALL.len());
    }
}
