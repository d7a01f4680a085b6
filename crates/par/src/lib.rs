//! Empty placeholder: no code uses this crate. `benchmark/Cargo.lock`
//! still records it as a dependency of `sdds-core`, so it stays until
//! that lock is next regenerated (see `shims/README.md`).
