//! Compare all seven explanation systems (CREW + LIME, Mojito, Landmark,
//! LEMON, CERTA, WYM) on the same pair and model, reporting fidelity and
//! explanation size side by side.
//!
//! ```text
//! cargo run --release -p examples --bin compare_explainers
//! ```

use em_data::TokenizedPair;
use em_eval::{ExplainBudget, ExplainerKind, MatcherKind};
use em_metrics as metrics;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = examples_support::demo_session();
    let ctx = examples_support::demo_context(&session);
    let matcher = examples_support::demo_matcher(&ctx);
    let pair = examples_support::interesting_pair(&ctx, matcher.as_ref());
    let tokenized = TokenizedPair::new(pair.clone());

    println!(
        "pair under explanation ({} words):\n{pair}",
        tokenized.len()
    );
    println!("model probability: {:.3}\n", matcher.predict_proba(&pair));

    let budget = ExplainBudget {
        samples: 256,
        seed: 11,
        threads: 4,
    };
    let fractions = metrics::standard_fractions();

    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "explainer", "units", "aopc_del", "suff@30%", "flip?", "secs"
    );
    for kind in ExplainerKind::all() {
        // The session's explanation store computes each explanation once;
        // the second loop below re-requests the same keys as pure hits.
        let out =
            session
                .explanations()
                .explain(&ctx, MatcherKind::Attention, kind, budget, &pair)?;
        let aopc = metrics::aopc_deletion(matcher.as_ref(), &tokenized, &out.units, &fractions)?;
        let suff = metrics::sufficiency(matcher.as_ref(), &tokenized, &out.units, 0.3)?;
        let flip = metrics::decision_flip(matcher.as_ref(), &tokenized, &out.units)?;
        println!(
            "{:<10} {:>8} {:>10.3} {:>10.3} {:>10} {:>9.3}",
            kind.label(),
            out.units.len(),
            aopc,
            suff,
            if flip { "yes" } else { "no" },
            out.elapsed
        );
    }

    // Show what the top unit of each system actually contains. These are
    // store hits — no explanation is recomputed.
    println!("\ntop unit per explainer:");
    for kind in ExplainerKind::all() {
        let out =
            session
                .explanations()
                .explain(&ctx, MatcherKind::Attention, kind, budget, &pair)?;
        let ranked = metrics::ranked_units(&out.units);
        if let Some(top) = ranked.first() {
            let words: Vec<String> = top
                .member_indices
                .iter()
                .map(|&i| out.word_level.words[i].label(pair.schema()))
                .collect();
            println!(
                "  {:<10} {:+.4} {{{}}}",
                kind.label(),
                top.weight,
                words.join(", ")
            );
        } else {
            println!("  {:<10} (empty explanation)", kind.label());
        }
    }
    println!("\n{}", session.stats_summary());
    Ok(())
}
