//! One module per experiment; see DESIGN.md §5 for the index.

pub mod exp10_success_rates;
pub mod exp11_graph_separators;
pub mod exp12_ablations;
pub mod exp13_query_baselines;
pub mod exp1_separator_quality;
pub mod exp2_query_structure;
pub mod exp3_crossing_numbers;
pub mod exp4_knn_algorithms;
pub mod exp5_depth_scaling;
pub mod exp6_punting_lemma;
pub mod exp7_intersection_tails;
pub mod exp8_strong_scaling;
pub mod exp9_density_lemma;

/// Run one experiment by id ("exp1".."exp13") or "all". Returns false for
/// an unknown id.
pub fn run(id: &str) -> bool {
    match id {
        "exp1" => exp1_separator_quality::run(),
        "exp2" => exp2_query_structure::run(),
        "exp3" => exp3_crossing_numbers::run(),
        "exp4" => exp4_knn_algorithms::run(),
        "exp5" => exp5_depth_scaling::run(),
        "exp6" => exp6_punting_lemma::run(),
        "exp7" => exp7_intersection_tails::run(),
        "exp8" => exp8_strong_scaling::run(),
        "exp9" => exp9_density_lemma::run(),
        "exp10" => exp10_success_rates::run(),
        "exp11" => exp11_graph_separators::run(),
        "exp12" => exp12_ablations::run(),
        "exp13" => exp13_query_baselines::run(),
        "all" => {
            for e in [
                "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "exp9", "exp10",
                "exp11", "exp12", "exp13",
            ] {
                run(e);
            }
        }
        _ => return false,
    }
    true
}
