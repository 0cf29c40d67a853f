//! The public, name-indexed workload catalog.
//!
//! Historically the scenario registry was `scenarios`-binary plumbing: name
//! resolution, cell selection and digest folding lived as free functions in
//! the binary, unreachable from any second consumer.  [`WorkloadCatalog`]
//! promotes that surface to a library API with **no behavior change** —
//! the binary's `--filter`/`--workload`/`--executor`/`--backing`/`--smoke`
//! semantics moved here verbatim (as [`Selection`]), and every golden digest
//! in `SCENARIOS.lock` is reproduced byte for byte through this path.
//!
//! Consumers:
//!
//! * the `scenarios` binary (list/run/verify/update) resolves its selections
//!   through the catalog;
//! * `lma-serve` resolves request workloads by name
//!   ([`WorkloadCatalog::resolve`] / [`WorkloadCatalog::family`]) and drives
//!   its replay mix from [`WorkloadCatalog::select`], folding served digests
//!   with the same pinned [`scenario_fold_header`] prefix the lock uses.

use crate::scenarios::{registry, scenario_fold_header, Scenario, Variant, WorkloadKind};
use lma_graph::generators::Family;
use lma_sim::digest::DigestWriter;
use lma_sim::driver::DynWorkload;

/// The scenario/cell selection flags of the `scenarios` binary, as data:
/// `Default::default()` selects everything.
///
/// Filtering is scenario-granular (`smoke`, `workload`, `filter`) then
/// cell-granular (`executor`, `backing`); see [`WorkloadCatalog::select`]
/// and [`WorkloadCatalog::select_cells`].
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Keep only scenarios in the CI smoke subset.
    pub smoke: bool,
    /// Substring match against the workload name (`flood`,
    /// `scheme-constant`, …).
    pub workload: Option<String>,
    /// Substring match against the scenario id or any cell id
    /// (`id#engine/backing`).
    pub filter: Option<String>,
    /// Substring match against the engine segment of the cell label
    /// (`seq`, `sharded2`, `sharded4`, `push`).
    pub executor: Option<String>,
    /// Substring match against the backing segment of the cell label
    /// (`inline`, `arena`).
    pub backing: Option<String>,
}

impl Selection {
    /// Whether any cell-granular filter is set (used by callers that must
    /// distinguish "full sweep" from "narrowed sweep").
    #[must_use]
    pub fn is_full(&self) -> bool {
        !self.smoke
            && self.workload.is_none()
            && self.filter.is_none()
            && self.executor.is_none()
            && self.backing.is_none()
    }
}

/// The name-indexed catalog over the committed scenario registry: workload
/// resolution (`name → Box<dyn DynWorkload>`), graph-family resolution,
/// scenario/cell enumeration and digest folding, callable as a library.
#[derive(Debug, Clone)]
pub struct WorkloadCatalog {
    scenarios: Vec<Scenario>,
}

impl Default for WorkloadCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadCatalog {
    /// The catalog over the committed registry (see
    /// [`crate::scenarios::registry`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            scenarios: registry(),
        }
    }

    /// Every registered scenario, in registry (= lock) order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Every registered workload kind.
    #[must_use]
    pub fn kinds(&self) -> &'static [WorkloadKind] {
        &WorkloadKind::ALL
    }

    /// Resolves a workload kind by its stable name.
    #[must_use]
    pub fn kind(&self, name: &str) -> Option<WorkloadKind> {
        WorkloadKind::from_name(name)
    }

    /// Resolves a workload implementation by its stable name.
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<Box<dyn DynWorkload>> {
        self.kind(name).map(WorkloadKind::workload)
    }

    /// Resolves a graph family by its stable name.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<Family> {
        Family::from_name(name)
    }

    /// Looks up a registered scenario by id (see [`Scenario::id`]).
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.id() == id)
    }

    /// The scenarios matched by `selection` — the binary's
    /// `--smoke`/`--filter`/`--workload` semantics: a filter matches when
    /// the scenario id, or any of its cell ids, contains the substring
    /// (`workload` matches the workload name only), and a matched scenario
    /// contributes **all** of its cells (cross-cell digest invariance is
    /// part of what gets checked).
    #[must_use]
    pub fn select(&self, selection: &Selection) -> Vec<Scenario> {
        self.scenarios
            .iter()
            .filter(|s| !selection.smoke || s.smoke)
            .filter(|s| match &selection.workload {
                None => true,
                Some(w) => s.workload.name().contains(w.as_str()),
            })
            .filter(|s| match &selection.filter {
                None => true,
                Some(f) => {
                    let id = s.id();
                    id.contains(f.as_str())
                        || s.variants()
                            .iter()
                            .any(|v| format!("{id}#{}", v.label()).contains(f.as_str()))
                }
            })
            .copied()
            .collect()
    }

    /// The cells of `scenario` matched by `selection` — the binary's
    /// `--executor`/`--backing` semantics: each flag is a substring match
    /// against its segment of the cell label (`sharded2/arena` → engine
    /// segment `sharded2`, backing segment `arena`).  With neither flag, all
    /// cells are selected.
    #[must_use]
    pub fn select_cells(&self, scenario: &Scenario, selection: &Selection) -> Vec<Variant> {
        scenario
            .variants()
            .into_iter()
            .filter(|v| {
                let label = v.label();
                let (engine, backing) = label.split_once('/').expect("labels are engine/backing");
                selection
                    .executor
                    .as_ref()
                    .is_none_or(|e| engine.contains(e.as_str()))
                    && selection
                        .backing
                        .as_ref()
                        .is_none_or(|b| backing.contains(b.as_str()))
            })
            .collect()
    }

    /// A digest writer seeded with the pinned scenario identity header (see
    /// [`scenario_fold_header`]) — every golden digest in `SCENARIOS.lock`
    /// starts from this prefix.
    #[must_use]
    pub fn fold_header(&self, workload: &str, family: &str, n: usize, seed: u64) -> DigestWriter {
        scenario_fold_header(workload, family, n, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_resolves_every_registered_name() {
        let catalog = WorkloadCatalog::new();
        for kind in catalog.kinds() {
            let workload = catalog.resolve(kind.name()).expect("registered name");
            assert_eq!(workload.name(), kind.name());
            assert_eq!(catalog.kind(kind.name()), Some(*kind));
        }
        assert!(catalog.resolve("no-such-workload").is_none());
        for family in Family::ALL {
            assert_eq!(catalog.family(family.name()), Some(family));
        }
        assert!(catalog.family("no-such-family").is_none());
    }

    #[test]
    fn default_selection_is_the_full_registry() {
        let catalog = WorkloadCatalog::new();
        let selection = Selection::default();
        assert!(selection.is_full());
        let selected = catalog.select(&selection);
        assert_eq!(selected.len(), catalog.scenarios().len());
        for scenario in &selected {
            assert_eq!(
                catalog.select_cells(scenario, &selection),
                scenario.variants()
            );
        }
    }

    #[test]
    fn selection_filters_match_the_binary_semantics() {
        let catalog = WorkloadCatalog::new();
        let smoke = catalog.select(&Selection {
            smoke: true,
            ..Selection::default()
        });
        assert!(!smoke.is_empty() && smoke.len() < catalog.scenarios().len());
        assert!(smoke.iter().all(|s| s.smoke));

        let floods = catalog.select(&Selection {
            workload: Some("flood".to_string()),
            ..Selection::default()
        });
        assert!(!floods.is_empty());
        // Substring semantics: "flood" also matches "flood-collect".
        assert!(floods.iter().all(|s| s.workload.name().contains("flood")));

        let scenario = catalog.scenarios()[0];
        let arena_cells = catalog.select_cells(
            &scenario,
            &Selection {
                backing: Some("arena".to_string()),
                ..Selection::default()
            },
        );
        assert!(!arena_cells.is_empty());
        assert!(arena_cells.iter().all(|v| v.label().contains("arena")));
    }

    #[test]
    fn catalog_lookup_by_id_round_trips() {
        let catalog = WorkloadCatalog::new();
        for scenario in catalog.scenarios() {
            let found = catalog.get(&scenario.id()).expect("registered id");
            assert_eq!(found.id(), scenario.id());
        }
        assert!(catalog.get("missing/ring/n1/s1").is_none());
    }

    #[test]
    fn fold_header_matches_the_scenario_path() {
        // The catalog's header must start every digest exactly where the
        // lock's goldens start — pinned by re-deriving a committed golden
        // through the catalog in the serve smoke test; here we pin the
        // header bytes against the free function.
        let catalog = WorkloadCatalog::new();
        let a = catalog.fold_header("flood", "ring", 48, 11).finish();
        let b = scenario_fold_header("flood", "ring", 48, 11).finish();
        assert_eq!(a, b);
    }
}
