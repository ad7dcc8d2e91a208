//! Byte-level pins for every table `vdm-repro all --quick --seed 42`
//! writes, plus A11's tables (`trace bootstrap`): one golden per family
//! under `tests/goldens/quick_seed42/`, each table's CSV preceded by its
//! figure and title. The goldens were recorded before the refactors they
//! license and are not regenerated to make a change pass — a diff here
//! means an RNG draw, event or float operation moved.

mod common;

use common::assert_matches_golden;
use vdm_experiments::figures::{self, Family, Render};
use vdm_experiments::Effort;

fn render(family: &Family) -> (String, String) {
    match family.render {
        Render::Tables(f) => {
            let csv = f(Effort::Quick, 42)
                .iter()
                .map(|t| format!("# {} — {}\n{}\n", t.figure, t.title, t.to_csv()))
                .collect();
            (format!("quick_seed42/{}.csv", family.name), csv)
        }
        Render::Text(f) => (format!("quick_seed42/{}.txt", family.name), f(42)),
    }
}

#[test]
fn every_quick_family_matches_its_golden() {
    for family in figures::ALL.iter().chain([&figures::BOOTSTRAP]) {
        let (golden, actual) = render(family);
        assert_matches_golden(&golden, &actual);
    }
}
