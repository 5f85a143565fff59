//! System parameters (paper Table I).

use nela_bounding::cost::AreaCost;
use nela_bounding::nbound::IncrementTable;
use nela_geo::SpatialDistribution;
use serde::{Deserialize, Serialize};

/// All tunables of a NELA deployment, defaulting to the paper's Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Number of users in the system (Table I: 104,770 — the California POI
    /// count).
    pub n_users: usize,
    /// Radio range δ (Table I: 2×10⁻³ in the unit square).
    pub delta: f64,
    /// Maximum number of connected peers M per device (Table I: 10).
    pub max_peers: usize,
    /// Anonymity requirement k (Table I: 10).
    pub k: usize,
    /// Per-round bounding verification cost Cb (Table I: 1).
    pub cb: f64,
    /// Service-request cost coefficient Cr: a POI's content is Cr× larger
    /// than a bounding message (Table I: 1,000).
    pub cr: f64,
    /// Number of cloaking requests S in a workload (Table I: 2,000).
    pub requests: usize,
    /// Spatial law of the synthetic population (substitutes the USGS
    /// California POI dataset; see DESIGN.md).
    pub distribution: SpatialDistribution,
    /// Master seed for the dataset and host sequences.
    pub seed: u64,
    /// Worker threads for system construction and batched request serving.
    /// `1` (the default) runs every pipeline stage serially. Higher values
    /// build a bit-identical proximity graph in parallel (the grid build
    /// stays serial) and, under mobility, re-probe every user in parallel;
    /// batch serving then runs concurrently, preserving every cloaking
    /// invariant though per-request attribution may differ from serial
    /// order under registry contention.
    pub threads: usize,
    /// Total registry shards for concurrent batch serving (laid out on the
    /// smallest square grid holding at least this many). `0` (the default)
    /// picks ≈ 4 shards per worker automatically. Ignored when batches run
    /// serially. This is its only meaning: no grid reads it. (The vendored
    /// serde derive has no `default` attribute, so serialized `Params`
    /// always carry this field explicitly.)
    pub shards: usize,
}

impl Params {
    /// The paper's Table I settings.
    pub fn table1() -> Self {
        Params {
            n_users: 104_770,
            delta: 2e-3,
            max_peers: 10,
            k: 10,
            cb: 1.0,
            cr: 1000.0,
            requests: 2_000,
            distribution: SpatialDistribution::california(),
            seed: 20090329, // ICDE 2009 opening day
            threads: 1,
            shards: 0,
        }
    }

    /// A scaled-down variant for unit tests and examples: same densities,
    /// smaller population. δ is scaled by √(104770/n) so the expected number
    /// of in-range peers stays comparable.
    pub fn scaled(n_users: usize) -> Self {
        let base = Params::table1();
        let scale = (base.n_users as f64 / n_users as f64).sqrt();
        Params {
            n_users,
            delta: base.delta * scale,
            requests: (base.requests * n_users / base.n_users).max(10),
            ..base
        }
    }

    /// The uniform-model span U = |C|/n of a cluster of `cluster_size`
    /// users (Table I: U = N/104770).
    pub fn uniform_span(&self, cluster_size: usize) -> f64 {
        cluster_size as f64 / self.n_users as f64
    }

    /// This deployment's request cost, per dimension: a bound of extent x on
    /// each axis transfers ≈ Cr · n · x² message units.
    pub fn area_cost(&self) -> AreaCost {
        AreaCost {
            cr: self.cr * self.n_users as f64,
        }
    }

    /// An empty secure-bounding increment table for this deployment's cost
    /// model: what one device solving its own increments starts from
    /// (Fig. 13(d)), and what a test of a cold table needs. Engines read
    /// [`Params::shared_increment_table`] instead.
    pub fn increment_table(&self) -> IncrementTable {
        IncrementTable::new(self.area_cost(), self.cb)
    }

    /// The process's secure-bounding increment table for this deployment's
    /// cost model ([`IncrementTable::shared`]): every engine over a
    /// deployment with bit-equal Cr · n and Cb reads the same table.
    pub fn shared_increment_table(&self) -> &'static IncrementTable {
        IncrementTable::shared(self.area_cost(), self.cb)
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let p = Params::table1();
        assert_eq!(p.n_users, 104_770);
        assert_eq!(p.delta, 2e-3);
        assert_eq!(p.max_peers, 10);
        assert_eq!(p.k, 10);
        assert_eq!(p.cb, 1.0);
        assert_eq!(p.cr, 1000.0);
        assert_eq!(p.requests, 2_000);
    }

    #[test]
    fn scaled_preserves_expected_degree() {
        let p = Params::scaled(10_000);
        // n·δ² constant → expected in-range peer count constant.
        let base = Params::table1();
        let density = |p: &Params| p.n_users as f64 * p.delta * p.delta;
        assert!((density(&p) - density(&base)).abs() / density(&base) < 1e-9);
    }

    #[test]
    fn uniform_span_is_cluster_fraction() {
        let p = Params::table1();
        assert!((p.uniform_span(10) - 10.0 / 104_770.0).abs() < 1e-15);
    }

    #[test]
    fn serde_roundtrip_is_stable() {
        // JSON float printing may round the last bit once; after one
        // round-trip the representation must be a fixed point.
        let p = Params::scaled(5_000);
        let once: Params = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        let twice: Params = serde_json::from_str(&serde_json::to_string(&once).unwrap()).unwrap();
        assert_eq!(once, twice);
        assert_eq!(once.n_users, p.n_users);
        assert!((once.delta - p.delta).abs() < 1e-12);
    }
}
