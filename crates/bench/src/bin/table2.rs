//! Reproduces Table 2: area and power breakdown of UniZK.

use unizk_bench::render::table;
use unizk_bench::table2;
use unizk_core::ChipConfig;

fn main() {
    unizk_bench::no_args();
    println!("Table 2: Area and power breakdown of UniZK (modeled; see DESIGN.md §2.6)\n");
    let b = table2(&ChipConfig::default_chip());
    let paper = [
        ("32 VSAs", 21.3, 58.0),
        ("8 MB scratchpad", 5.0, 1.0),
        ("Twiddle factor generator", 0.8, 2.6),
        ("Transpose buffer", 0.9, 3.1),
        ("2 HBM PHYs", 29.8, 31.7),
    ];
    let mut cells: Vec<Vec<String>> = b
        .components
        .iter()
        .zip(paper)
        .map(|(c, (pname, parea, ppow))| {
            vec![
                pname.to_string(),
                format!("{:.1}", c.area_mm2),
                format!("{parea:.1}"),
                format!("{:.1}", c.power_w),
                format!("{ppow:.1}"),
            ]
        })
        .collect();
    cells.push(vec![
        "Total".into(),
        format!("{:.1}", b.total_area_mm2()),
        "57.8".into(),
        format!("{:.1}", b.total_power_w()),
        "96.4".into(),
    ]);
    println!(
        "{}",
        table(
            &["Component", "Area (mm²)", "paper", "Power (W)", "paper"],
            &cells
        )
    );
}
