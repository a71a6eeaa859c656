//! # rm-serve — versioned venue-model artifacts and snapshot-swap serving
//!
//! The online half of the pipeline: the offline side trains imputers and
//! exports a [`ShardedVenueSnapshot`](radiomap_core::ShardedVenueSnapshot);
//! this crate persists it, loads it, and answers location queries against
//! it. A venue served whole is the 1-shard case of the same types.
//!
//! * [`artifact`] — a stable, checksummed, dependency-free on-disk format:
//!   [`encode`] / [`decode`] persist one shard's `VenueSnapshot` as an
//!   `RMVM` blob with a bitwise round-trip guarantee, and
//!   [`encode_sharded`] / [`decode_sharded`] wrap the partition plus one
//!   blob per shard in an `RMVS` container. Snapshots exported at
//!   `Precision::Bf16` serialize their tensors at 2 bytes per element, so
//!   bf16 artifacts are 4× smaller than f64 ones.
//! * [`model`] — [`ShardedVenueModel`]: one immutable [`ShardModel`]
//!   (snapshot + estimator, tagged with the generation that published it)
//!   per shard, answering KNN/WKNN queries by exact cross-shard re-rank so
//!   N shards answer like 1.
//! * [`registry`] — [`ModelRegistry`]: an atomically hot-swappable
//!   `Arc<ShardedVenueModel>` per venue with monotonic generation counters;
//!   no query ever observes a torn model, and
//!   [`ModelRegistry::publish_shard`] republishes one shard without
//!   rebuilding the clean ones.
//! * [`engine`] — [`ShardedQueryEngine`]: a request-batching front end that
//!   fans micro-batches of at most [`MAX_MICRO_BATCH`] queries over the
//!   deterministic worker pool. A fixed query log yields bit-identical
//!   responses at any thread count, and on a 1-shard venue each response
//!   equals the offline `evaluate_estimator` path's estimate on the same
//!   snapshot.
//!
//! ```no_run
//! use rm_serve::{load_sharded_artifact, ModelRegistry, ShardedQueryEngine};
//!
//! let snapshot = load_sharded_artifact("venue.rmvs").unwrap();
//! let registry = ModelRegistry::new();
//! registry.publish_sharded(snapshot, 0);
//! let mut engine = ShardedQueryEngine::new(&registry, "venue", 0);
//! let responses = engine.run_log(&[vec![-52.0, -71.0]]);
//! # let _ = responses;
//! ```

pub mod artifact;
pub mod engine;
pub mod model;
pub mod registry;

pub use artifact::{
    decode, decode_sharded, encode, encode_sharded, ArtifactError, FORMAT_VERSION, SHARDED_MAGIC,
};
pub use engine::{ShardedQueryEngine, ShardedQueryResponse, MAX_MICRO_BATCH};
pub use model::{ShardModel, ShardedVenueModel};
pub use registry::ModelRegistry;

use std::path::Path;

use radiomap_core::ShardedVenueSnapshot;

/// Why [`load_sharded_artifact`] failed: the file couldn't be read, or it
/// could but its bytes are not a valid artifact.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file's bytes failed artifact validation.
    Format(ArtifactError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "reading artifact: {e}"),
            LoadError::Format(e) => write!(f, "decoding artifact: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<ArtifactError> for LoadError {
    fn from(e: ArtifactError) -> Self {
        LoadError::Format(e)
    }
}

/// Encodes a sharded snapshot and writes it to `path`
/// ([`encode_sharded`] + `fs::write`).
pub fn save_sharded_artifact(
    path: impl AsRef<Path>,
    snapshot: &ShardedVenueSnapshot,
) -> std::io::Result<()> {
    std::fs::write(path, encode_sharded(snapshot))
}

/// Reads `path` and decodes it as a sharded container
/// ([`decode_sharded`] + `fs::read`).
pub fn load_sharded_artifact(path: impl AsRef<Path>) -> Result<ShardedVenueSnapshot, LoadError> {
    Ok(decode_sharded(&std::fs::read(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radiomap_core::prelude::EstimatorKind;
    use radiomap_core::VenueSnapshot;
    use rm_geometry::Point;
    use rm_radiomap::{DenseRadioMap, MaskMatrix, VenueShards};
    use rm_tensor::Precision;

    /// Wraps `snapshot` as a 1-shard venue: one shard holding every record.
    pub(crate) fn single_shard(snapshot: VenueSnapshot) -> ShardedVenueSnapshot {
        let shards = VenueShards::from_parts(
            vec![0; snapshot.map.len()],
            vec![Point::origin()],
            Vec::new(),
        )
        .expect("one shard holding every record");
        ShardedVenueSnapshot {
            venue: snapshot.venue.clone(),
            snapshots: vec![snapshot],
            shards,
        }
    }

    fn snapshot() -> ShardedVenueSnapshot {
        single_shard(VenueSnapshot {
            venue: "disk".into(),
            map: DenseRadioMap::new(vec![vec![-61.5]], vec![Point::new(3.0, 4.0)], 1),
            records: vec![0],
            mask: MaskMatrix::all_observed(1, 1),
            estimator: EstimatorKind::Wknn,
            knn_k: 3,
            seed: 11,
            precision: Precision::F32,
            tensors: Vec::new(),
        })
    }

    #[test]
    fn save_then_load_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("rm-serve-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("venue.rmvs");
        let original = snapshot();
        save_sharded_artifact(&path, &original).unwrap();
        let loaded = load_sharded_artifact(&path).unwrap();
        assert_eq!(encode_sharded(&loaded), encode_sharded(&original));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_distinguishes_io_from_format_errors() {
        let missing = load_sharded_artifact("/nonexistent/venue.rmvs").unwrap_err();
        assert!(matches!(missing, LoadError::Io(_)), "{missing}");

        let dir = std::env::temp_dir().join(format!("rm-serve-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.rmvs");
        std::fs::write(&path, b"not an artifact").unwrap();
        let garbage = load_sharded_artifact(&path).unwrap_err();
        assert!(matches!(garbage, LoadError::Format(_)), "{garbage}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
