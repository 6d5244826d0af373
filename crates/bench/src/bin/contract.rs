//! Prints the determinism contract (see [`unizk_bench::contract()`]).
//!
//! ```text
//! contract > CONTRACT.json          # regenerate, only for an intended change
//! contract | diff - CONTRACT.json   # check
//! ```

fn main() {
    unizk_bench::no_args();
    println!("{}", unizk_bench::contract().to_string_pretty());
}
