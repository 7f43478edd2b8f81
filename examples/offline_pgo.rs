//! Offline PGO comparison: a short profile of the *right* input versus
//! a complete profile of the *wrong* input (the paper's central
//! question, §5 bullet 3 edition).
//!
//! The paper could not compute `Sd.CP(train)`/`Sd.LP(train)` because
//! plain profiles carry no regions; it proposed applying region
//! formation offline. This example does exactly that on the lucas
//! analog (whose training input runs a different trip-count regime):
//! regions formed from `INIP(train)` are scored against `AVEP`, and
//! compared with the regions the translator formed online at T=2k from
//! the reference input.
//!
//! ```text
//! cargo run --release --example offline_pgo
//! ```

use tpdbt::dbt::offline::{as_inip_with_regions, form_offline_regions};
use tpdbt::dbt::{Dbt, DbtConfig, RegionPolicy};
use tpdbt::profile::report::analyze;
use tpdbt::suite::{workload, InputKind, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = "lucas";
    let reference = workload(name, Scale::Small, InputKind::Ref)?;
    let training = workload(name, Scale::Small, InputKind::Train)?;
    let threshold = 200;

    let avep = Dbt::new(DbtConfig::no_opt())
        .run_built(&reference.binary, &reference.input)?
        .as_plain_profile();

    // Online: the translator's own initial profile at T=200 (ref input).
    let online = Dbt::new(DbtConfig::two_phase(threshold))
        .run_built(&reference.binary, &reference.input)?
        .inip;
    let online_metrics = analyze(&online, &avep)?;

    // Offline: whole-run training profile + offline region formation.
    let train = Dbt::new(DbtConfig::no_opt())
        .run_built(&training.binary, &training.input)?
        .as_plain_profile();
    let regions = form_offline_regions(&train, &RegionPolicy::default(), threshold);
    let offline = as_inip_with_regions(&train, regions, &avep, threshold);
    let offline_metrics = analyze(&offline, &avep)?;

    let f = |v: Option<f64>| v.map_or_else(|| "  -  ".to_string(), |x| format!("{x:.3}"));
    println!("{name}: initial profile (ref, T={threshold}) vs complete profile (train)\n");
    println!("                      Sd.BP   Sd.CP   Sd.LP   regions");
    println!(
        "  INIP({threshold}) ref    {}   {}   {}   {:>4}",
        f(online_metrics.sd_bp),
        f(online_metrics.sd_cp),
        f(online_metrics.sd_lp),
        online_metrics.regions
    );
    println!(
        "  INIP(train) full   {}   {}   {}   {:>4}",
        f(offline_metrics.sd_bp),
        f(offline_metrics.sd_cp),
        f(offline_metrics.sd_lp),
        offline_metrics.regions
    );
    println!(
        "\nFor branch probabilities, a few hundred visits of the real input \
         beat the entire run of the unrepresentative training input (the \
         paper's case for two-phase translation over classic PGO). The \
         region-level metrics are more nuanced: offline regions formed from \
         the complete training profile are built from converged counters, \
         so their completion estimates can still be competitive — exactly \
         the kind of comparison the paper listed as future work."
    );
    Ok(())
}
