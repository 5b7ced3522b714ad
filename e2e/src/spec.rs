//! `BENCHMARK.json`, compiled in: the one place that declares which
//! workloads and metrics exist, each metric's unit and direction, and how
//! much an end-to-end metric may worsen. Every run checks the result it
//! prints against it, and `--compare` takes its bounds from it.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Spec {
    /// # Panics
    /// When the compiled-in `BENCHMARK.json` is malformed — a build-time
    /// mistake in this directory, not an input.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list in BENCHMARK.json")
        };
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .expect("a string in BENCHMARK.json")
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|item| Declared {
                    name: text(item, "name"),
                    unit: text(item, "unit"),
                    lower_is_better: match text(item, "better").as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => panic!("\"better\" is \"lower\" or \"higher\", not {other:?}"),
                    },
                    bound: item.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics a run in this mode must print.
    pub fn declared(&self, trace: bool) -> &[Declared] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_declares_the_workloads_this_binary_runs() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, WORKLOADS);
        assert!(spec
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.lower_is_better && setup.unit == "s");
    }
}
