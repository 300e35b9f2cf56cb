//! The paper's experiment grid as named configurations.
//!
//! Figure 4 (mars) is the canonical 8-cell grid of workload × key
//! distribution; figures 1–3 of the main text are cells 4a, 4e and 4g.
//! Figure 8 adds the alternating workload; tables 2 and 5 run the
//! rank-error benchmark over the same grids. Figures 5/6/7/9 repeat the
//! grids on other machines (see DESIGN.md §2 for the single-host
//! substitution).

use workloads::{KeyDistribution, Workload};

/// One named experiment: a (workload, key distribution) cell plus the
/// paper artifacts it backs.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Identifier, e.g. `"fig4a"`.
    pub id: &'static str,
    /// Thread role assignment.
    pub workload: Workload,
    /// Key distribution.
    pub key_dist: KeyDistribution,
    /// Paper artifacts regenerated from this cell.
    pub artifacts: &'static str,
}

impl Experiment {
    /// The cell in words, for table titles: e.g. `"uniform workload,
    /// uniform32 keys (Figure 1, Figure 4a, Table 1, Table 2a)"`.
    pub fn describe(&self) -> String {
        let (workload, keys) = (self.workload.name(), self.key_dist.name());
        format!("{workload} workload, {keys} keys ({})", self.artifacts)
    }
}

/// All throughput/quality cells of the paper.
pub fn all() -> Vec<Experiment> {
    use KeyDistribution as K;
    use Workload as W;
    vec![
        Experiment {
            id: "fig4a",
            workload: W::Uniform,
            key_dist: K::uniform(32),
            artifacts: "Figure 1, Figure 4a, Table 1, Table 2a",
        },
        Experiment {
            id: "fig4b",
            workload: W::Uniform,
            key_dist: K::ascending(),
            artifacts: "Figure 4b, Table 2b",
        },
        Experiment {
            id: "fig4c",
            workload: W::Uniform,
            key_dist: K::descending(),
            artifacts: "Figure 4c, Table 2c",
        },
        Experiment {
            id: "fig4d",
            workload: W::Split,
            key_dist: K::uniform(32),
            artifacts: "Figure 4d, Table 2d",
        },
        Experiment {
            id: "fig4e",
            workload: W::Split,
            key_dist: K::ascending(),
            artifacts: "Figure 2, Figure 4e, Table 2e",
        },
        Experiment {
            id: "fig4f",
            workload: W::Split,
            key_dist: K::descending(),
            artifacts: "Figure 4f, Table 2f",
        },
        Experiment {
            id: "fig4g",
            workload: W::Uniform,
            key_dist: K::uniform(8),
            artifacts: "Figure 3, Figure 4g, Table 2g",
        },
        Experiment {
            id: "fig4h",
            workload: W::Uniform,
            key_dist: K::uniform(16),
            artifacts: "Figure 4h, Table 2h",
        },
        Experiment {
            id: "fig8a",
            workload: W::Alternating,
            key_dist: K::uniform(32),
            artifacts: "Figure 8a, Table 5a",
        },
        Experiment {
            id: "fig8b",
            workload: W::Alternating,
            key_dist: K::ascending(),
            artifacts: "Figure 8b, Table 5b",
        },
        Experiment {
            id: "fig8c",
            workload: W::Alternating,
            key_dist: K::descending(),
            artifacts: "Figure 8c, Table 5c",
        },
        Experiment {
            id: "hold",
            workload: W::Alternating,
            key_dist: K::hold(),
            artifacts: "hold model (Jones 1986; appendix F extension)",
        },
        Experiment {
            id: "sorting",
            workload: W::Sorting { batch: 1024 },
            key_dist: K::uniform(32),
            artifacts: "sorting benchmark (Larkin/Sen/Tarjan; §2 extension)",
        },
    ]
}

/// Look an experiment up by id (also accepts the main-text aliases
/// `fig1` → `fig4a`, `fig2` → `fig4e`, `fig3` → `fig4g`, and
/// `table2x`/`table5x` → the matching throughput cell).
pub fn by_id(id: &str) -> Option<Experiment> {
    let canonical = match id {
        "fig1" | "table1" | "table2a" => "fig4a",
        "fig2" | "table2e" => "fig4e",
        "fig3" | "table2g" => "fig4g",
        "table2b" => "fig4b",
        "table2c" => "fig4c",
        "table2d" => "fig4d",
        "table2f" => "fig4f",
        "table2h" => "fig4h",
        "table5a" => "fig8a",
        "table5b" => "fig8b",
        "table5c" => "fig8c",
        other => other,
    };
    all().into_iter().find(|e| e.id == canonical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_figure_cell() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        for want in [
            "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f", "fig4g", "fig4h", "fig8a",
            "fig8b", "fig8c",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn main_text_aliases_resolve() {
        assert_eq!(by_id("fig1").unwrap().id, "fig4a");
        assert_eq!(by_id("fig2").unwrap().id, "fig4e");
        assert_eq!(by_id("fig3").unwrap().id, "fig4g");
        assert_eq!(by_id("table1").unwrap().id, "fig4a");
        assert_eq!(by_id("table2h").unwrap().id, "fig4h");
        assert_eq!(by_id("table5c").unwrap().id, "fig8c");
        assert!(by_id("fig99").is_none());
    }

    #[test]
    fn fig4a_is_uniform_uniform32() {
        let e = by_id("fig4a").unwrap();
        assert_eq!(e.workload, Workload::Uniform);
        assert_eq!(e.key_dist, KeyDistribution::uniform(32));
    }
}
