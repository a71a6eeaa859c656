//! Snapshot-storage report: exported tensor payload bytes of the recurrent
//! imputers' trained weights at each precision, and the per-venue accuracy
//! cost of running inference at `Precision::Bf16`.
//!
//! This is the measurement half of the bf16 precision contract: a bf16
//! export must hold ≥2× fewer payload bytes than f32 (4× fewer than f64) —
//! the bytes an artifact stores and a published shard holds — and the
//! accuracy delta it buys that with has to be on the table, not assumed.

use radiomap_core::prelude::*;
use radiomap_core::{rssi_imputation_mae, DifferentiatorKind, ImputerKind, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_bench::{experiment_dataset, experiment_seed, fmt, wifi_presets, ReportTable};

fn main() {
    // ---- Exported payload bytes of a BRITS-shaped snapshot. ----
    let mut bytes_table = ReportTable::new(
        "Snapshot tensor payload bytes (one BRITS direction)",
        &["APs", "hidden", "f64", "f32", "bf16", "f64/bf16"],
    );
    for (aps, hidden) in [(24usize, 32usize), (60, 64), (120, 64)] {
        let (b64, b32, b16) = rm_imputers::snapshot_resident_bytes(aps, hidden);
        bytes_table.add_row(vec![
            aps.to_string(),
            hidden.to_string(),
            b64.to_string(),
            b32.to_string(),
            b16.to_string(),
            format!("{:.2}x", b64 as f64 / b16 as f64),
        ]);
    }
    bytes_table.print();

    // ---- Accuracy cost per venue (β=0.2 RSSI-imputation MAE, BRITS). ----
    for preset in wifi_presets() {
        let dataset = experiment_dataset(preset);
        let mut rng = StdRng::seed_from_u64(experiment_seed() ^ 0x51a9);
        let (perturbed, removed) = remove_random_rssis(&dataset.radio_map, 0.2, &mut rng);
        let mae = |precision| {
            let config = PipelineConfig {
                differentiator: DifferentiatorKind::TopoAc,
                imputer: ImputerKind::Brits,
                precision,
                seed: experiment_seed(),
                ..PipelineConfig::default()
            };
            let imputed = radiomap_core::ImputationPipeline::new(config)
                .impute(&perturbed, &dataset.venue.walls)
                .0;
            rssi_imputation_mae(&imputed, &removed).unwrap_or(f64::NAN)
        };
        let base = mae(Precision::F64);
        let mut table = ReportTable::new(
            &format!("Precision vs BRITS RSSI MAE (dBm), {}", preset.name()),
            &["precision", "MAE", "delta vs f64"],
        );
        table.add_row(vec!["f64".into(), fmt(base), fmt(0.0)]);
        for precision in [Precision::F32, Precision::Bf16] {
            let v = mae(precision);
            table.add_row(vec![precision.name().into(), fmt(v), fmt(v - base)]);
        }
        table.print();
    }
}
