//! Empty placeholder: no code uses this crate. `benchmark/Cargo.lock`
//! still names it, so it stays until that lock is next regenerated
//! (see `shims/README.md`).
