//! Every metric name the benchmark emits, with its unit, read from
//! `BENCHMARK.json` at the repository root, the one place they are listed.

use std::sync::OnceLock;
use tpharness::wire::{parse, Value};

/// A listed metric: its name and its unit.
pub type Listed = (String, String);

struct Lists {
    end_to_end: Vec<Listed>,
    per_layer: Vec<Listed>,
}

fn lists() -> &'static Lists {
    static LISTS: OnceLock<Lists> = OnceLock::new();
    LISTS.get_or_init(|| {
        let spec = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        Lists {
            end_to_end: listed(&spec, "end_to_end"),
            per_layer: listed(&spec, "per_layer"),
        }
    })
}

fn listed(spec: &Value, key: &str) -> Vec<Listed> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("a {key} metric has no {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// End-to-end metrics: every workload emits all of them.
pub fn end_to_end() -> &'static [Listed] {
    &lists().end_to_end
}

/// Per-layer metrics. A workload that does not reach a layer from the
/// benchmark emits 0 for it.
pub fn per_layer() -> &'static [Listed] {
    &lists().per_layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{valid_name, valid_unit};

    #[test]
    fn every_listed_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        assert!(!end_to_end().is_empty() && !per_layer().is_empty());
        for (name, unit) in end_to_end().iter().chain(per_layer()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }
}
