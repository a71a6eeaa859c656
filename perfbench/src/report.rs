//! Metric names, units and the result line.

use std::collections::BTreeMap;

use crate::common::Outcome;
use crate::env::json_str;
use crate::trace::{layer_self_seconds, Span};

/// End-to-end metrics: every workload reports each of them on an untraced
/// run. Names and units match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("ape_m", "m"),
    ("query_p50_us", "us"),
    ("qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced runs. A metric of a layer that a
/// workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("venue_sim.dataset_s", "s"),
    ("core.export_s", "s"),
    ("radiomap.shard_s", "s"),
    ("differentiator.s", "s"),
    ("differentiator.mar_share", "share"),
    ("imputers.classical.impute_s", "s"),
    ("positioning.fit_s", "s"),
    ("imputers.brits.impute_s", "s"),
    ("imputers.ssgan.impute_s", "s"),
    ("bisim.impute_s", "s"),
    ("imputers.infer_s", "s"),
    ("bisim.infer_s", "s"),
    ("tensor.allocs_per_op", "count"),
    ("tensor.alloc_mb_per_op", "MB"),
    ("tensor.buffer_hit_share", "share"),
    ("runtime.dispatches_per_op", "count"),
    ("runtime.tickets_reclaimed_share", "share"),
    ("positioning.query_us", "us"),
    ("serve.flush_us", "us"),
    ("serve.route_max_share", "share"),
    ("trace.overhead_share", "share"),
    ("venue_sim.self_share", "share"),
    ("radiomap.self_share", "share"),
    ("differentiator.self_share", "share"),
    ("imputers.self_share", "share"),
    ("bisim.self_share", "share"),
    ("positioning.self_share", "share"),
    ("runtime.self_share", "share"),
    ("core.self_share", "share"),
    ("serve.self_share", "share"),
];

/// Sets `<layer>.self_share`: each library layer's share of the self time
/// of every recorded span.
pub fn self_shares(out: &mut Outcome, spans: &[Span]) {
    let per_layer = layer_self_seconds(spans);
    let total: f64 = per_layer.values().sum();
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.ends_with(".self_share")) {
        let layer = name.trim_end_matches(".self_share");
        let share = if total > 0.0 {
            per_layer.get(layer).copied().unwrap_or(0.0) / total
        } else {
            0.0
        };
        out.set(name, share);
    }
    let seconds: BTreeMap<&str, f64> = per_layer;
    out.info(
        "self_seconds",
        format!(
            "{{{}}}",
            seconds
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
}

/// Builds the `metrics` object for the names in `wanted`. A per-layer
/// metric the workload did not set reads 0; a missing or non-finite
/// end-to-end metric is an error.
pub fn metrics_json(
    out: &Outcome,
    wanted: &[(&str, &str)],
    missing_is_zero: bool,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        // An empty sum is -0; print it as 0.
        let value = value + 0.0;
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            value,
            json_str(unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a metric name is used twice");
    }

    #[test]
    fn missing_metrics_are_zero_only_where_allowed() {
        let mut out = Outcome::default();
        out.set("setup_s", 1.5);
        let wanted = [("setup_s", "s"), ("qps", "1/s")];
        assert!(metrics_json(&out, &wanted, false).is_err());
        let json = metrics_json(&out, &wanted, true).unwrap();
        assert_eq!(
            json,
            "{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"},\"qps\":{\"value\":0,\"unit\":\"1/s\"}}"
        );
        out.set("qps", f64::NAN);
        assert!(metrics_json(&out, &wanted, true).is_err());
    }
}
