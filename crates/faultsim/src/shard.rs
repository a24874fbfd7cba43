//! Digest-stable partitioning of the campaign unit space across shards.
//!
//! A *shard* owns a subset of the (workload × 64-fault-chunk) unit space
//! so that N independent processes — potentially on N hosts sharing
//! nothing but the design source — can each simulate a disjoint slice of
//! a campaign and later union their checkpoints with `fusa merge` into a
//! result bit-identical to a single uninterrupted run.
//!
//! The assignment must therefore depend on nothing but the unit index
//! and the shard count: not on thread count, scheduling order, or which
//! shard resumed after a crash. [`ShardSpec::owns`]
//! hashes the little-endian unit index with FNV-1a64 and reduces it
//! modulo the shard total, which satisfies all of those invariants and
//! spreads expensive units (which cluster by workload) roughly evenly.

use fusa_obs::fnv1a64;
use std::fmt;

/// One shard's slice of a campaign, written `i/n` on the command line:
/// shard `index` (1-based) out of `total`.
///
/// ```
/// use fusa_faultsim::ShardSpec;
///
/// let shard = ShardSpec::parse("2/3").unwrap();
/// assert_eq!((shard.index, shard.total), (2, 3));
/// assert_eq!(shard.to_string(), "2/3");
///
/// // Every unit is owned by exactly one of the n shards.
/// for unit in 0..1000 {
///     let owners = (1..=3)
///         .filter(|&i| ShardSpec { index: i, total: 3 }.owns(unit))
///         .count();
///     assert_eq!(owners, 1);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index, `1 <= index <= total`.
    pub index: usize,
    /// Total number of shards the campaign is split across.
    pub total: usize,
}

impl ShardSpec {
    /// Parse the command-line form `i/n` (for example `2/3`).
    ///
    /// Rejects malformed input, `n == 0`, `i == 0`, and `i > n` with a
    /// human-readable message suitable for CLI errors.
    pub fn parse(text: &str) -> Result<ShardSpec, String> {
        let err = || format!("invalid shard spec `{text}`: expected i/n with 1 <= i <= n");
        let (index, total) = text.split_once('/').ok_or_else(err)?;
        let index: usize = index.trim().parse().map_err(|_| err())?;
        let total: usize = total.trim().parse().map_err(|_| err())?;
        if total == 0 || index == 0 || index > total {
            return Err(err());
        }
        Ok(ShardSpec { index, total })
    }

    /// Whether this shard owns `unit`.
    ///
    /// The assignment is a pure function of `(unit, total)`: FNV-1a64
    /// over the little-endian unit index, reduced modulo `total`. It is
    /// deliberately independent of thread count and scheduling order
    /// so that checkpoints written by different shard configurations
    /// stay mergeable and digest-stable.
    pub fn owns(&self, unit: usize) -> bool {
        shard_of(unit, self.total) == self.index
    }
}

/// The 1-based index of the shard that owns `unit` in an `n`-way split.
pub fn shard_of(unit: usize, total: usize) -> usize {
    (fnv1a64(&(unit as u64).to_le_bytes()) % total as u64) as usize + 1
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_specs() {
        assert_eq!(
            ShardSpec::parse("1/1").unwrap(),
            ShardSpec { index: 1, total: 1 }
        );
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec { index: 2, total: 3 }
        );
        assert_eq!(
            ShardSpec::parse("5/5").unwrap(),
            ShardSpec { index: 5, total: 5 }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["", "3", "0/3", "4/3", "1/0", "a/b", "1/3/5", "-1/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_round_trips() {
        for text in ["1/1", "2/3", "5/5", "17/64"] {
            assert_eq!(ShardSpec::parse(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn every_unit_has_exactly_one_owner() {
        for total in [1, 2, 3, 5, 8] {
            for unit in 0..512 {
                let owners = (1..=total)
                    .filter(|&index| ShardSpec { index, total }.owns(unit))
                    .count();
                assert_eq!(owners, 1, "unit {unit} total {total}");
            }
        }
    }

    /// The assignment function is part of the on-disk contract: shard
    /// checkpoints produced by one build must merge with shards produced
    /// by another. Pin exact values so an accidental change to the hash
    /// or the reduction shows up as a test failure, not a fleet-wide
    /// merge error.
    #[test]
    fn assignment_is_pinned() {
        let assigned: Vec<usize> = (0..16).map(|unit| shard_of(unit, 3)).collect();
        assert_eq!(assigned, [2, 1, 1, 3, 1, 3, 3, 2, 3, 2, 2, 1, 2, 1, 1, 3]);
        assert_eq!(shard_of(0, 1), 1);
        assert_eq!(shard_of(1000, 5), 2);
    }

    #[test]
    fn assignment_is_roughly_balanced() {
        let total = 4;
        let mut counts = [0usize; 4];
        for unit in 0..4096 {
            counts[shard_of(unit, total) - 1] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                (count as f64 - 1024.0).abs() < 256.0,
                "shard {} owns {} of 4096 units",
                i + 1,
                count
            );
        }
    }
}
