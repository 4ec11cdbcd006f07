//! The full EM pipeline on raw record tables: blocking → matching →
//! CREW explanation → global summary. This is the workflow a downstream
//! user runs on two dirty sources, end to end.
//!
//! ```text
//! cargo run --release -p examples --bin blocking_pipeline
//! ```

use crew_core::{explain_dataset, Crew, CrewOptions};
use em_data::{EntityPair, Record};
use em_stream::{block_candidates, BlockingConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Two "sources": the demo context's dataset supplies clean left
    //    records and corrupted right records — exactly the two-table shape
    //    blocking consumes.
    let session = examples_support::demo_session();
    let ctx = examples_support::demo_context(&session);
    let schema = ctx.dataset.schema_arc();
    let left: Vec<Record> = ctx
        .dataset
        .examples()
        .iter()
        .take(150)
        .map(|e| e.pair.left().clone())
        .collect();
    let right: Vec<Record> = ctx
        .dataset
        .examples()
        .iter()
        .take(150)
        .map(|e| e.pair.right().clone())
        .collect();
    println!(
        "sources: {} left records, {} right records",
        left.len(),
        right.len()
    );

    // 2. Blocking: records sharing a token become candidates.
    let blocked = block_candidates(&left, &right, &BlockingConfig::default());
    println!(
        "blocking: {} candidates (reduction {:.3})",
        blocked.pairs.len(),
        blocked.reduction_ratio()
    );
    let pairs = blocked
        .pairs
        .iter()
        .map(|&(i, j)| {
            let (l, r) = (left[i as usize].clone(), right[j as usize].clone());
            EntityPair::new(Arc::clone(&schema), l, r)
        })
        .collect::<Result<Vec<_>, _>>()?;

    // 3. Matching: score every candidate with the trained attention model.
    let matcher = examples_support::demo_matcher(&ctx);
    let mut matches: Vec<&em_data::EntityPair> =
        pairs.iter().filter(|p| matcher.predict(p)).collect();
    println!(
        "matcher accepted {} of {} candidates\n",
        matches.len(),
        pairs.len()
    );
    matches.truncate(3);

    // 4. Explain the accepted matches with CREW.
    let crew = Crew::new(Arc::clone(&ctx.embeddings), CrewOptions::default());
    for pair in &matches {
        println!("--- match (p = {:.3}) ---", matcher.predict_proba(pair));
        let ce = crew.explain_clusters(matcher.as_ref(), pair)?;
        println!("{}", ce.render(pair.schema()));
        // Machine-readable form for downstream dashboards:
        let json = crew_core::cluster_explanation_to_json(&ce, pair.schema());
        println!("json: {}…\n", &json[..json.len().min(120)]);
    }

    // 5. Global view: what does this matcher rely on overall?
    let sample = ctx.split.test.sample(15, 7);
    let global = explain_dataset(&crew, matcher.as_ref(), &sample, 15, 2)?;
    println!("{}", global.render());
    Ok(())
}
