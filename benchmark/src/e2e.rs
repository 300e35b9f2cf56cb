//! The end-to-end pass: correctness gate, interleaved rounds over the
//! eight queues, rank error of the gated queues. Untraced, product build.

use crate::job::Fields;
use crate::json::Json;
use crate::pass::{mops, Pass};
use crate::report::Outcome;
use crate::spec::{E2E_QUEUES, RANK_GATED};
use crate::stats::{geomean, median};

pub fn run(mut p: Pass) -> Outcome {
    p.gate();

    // Interleaved rounds: every queue once per round, the start queue
    // rotating, so slow drift and neighbour bursts spread over all queues
    // instead of landing on one.
    let share = p.plan.e2e_share(p.w);
    let rounds = p.plan.rounds(p.w);
    let mut cells: Vec<Vec<Fields>> = vec![Vec::new(); E2E_QUEUES.len()];
    let mut round_setup = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut setup = 0.0;
        for i in 0..E2E_QUEUES.len() {
            let qi = (i + round) % E2E_QUEUES.len();
            if let Some(cell) = p.cell(E2E_QUEUES[qi], "counted", share, round) {
                setup += cell.get("setup_s");
                cells[qi].push(cell);
            }
        }
        round_setup.push(setup);
    }

    p.out
        .push("setup_s", median(&round_setup), round_setup.len() as u64);
    let mut medians = Vec::with_capacity(E2E_QUEUES.len());
    for (name, rounds) in E2E_QUEUES.iter().zip(&cells) {
        let per_round: Vec<f64> = rounds.iter().map(mops).collect();
        medians.push(median(&per_round));
        p.out.push(
            format!("mops.{name}"),
            median(&per_round),
            per_round.len() as u64,
        );
        p.out.detail.push((
            format!("cells.{name}"),
            Json::Arr(
                rounds
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("mops", Json::Num(mops(c))),
                            ("successful", Json::Int(c.count("successful"))),
                            ("empty", Json::Int(c.count("empty"))),
                            ("window_s", Json::Num(c.get("window_s"))),
                            ("setup_s", Json::Num(c.get("setup_s"))),
                            ("peak_rss_mb", Json::Num(c.get("peak_rss_mb"))),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    p.out
        .push("mops.geomean", geomean(&medians), medians.len() as u64);

    for name in RANK_GATED {
        if let Some((mean, deletions)) = p.rank(name, p.plan.quality_ops, p.plan.rank_runs) {
            p.out.push(format!("rank_mean.{name}"), mean, deletions);
        }
    }
    p.out.push("peak_rss_mb", p.peak_rss_mb, 1);
    p.out
}
