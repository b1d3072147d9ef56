//! Home of the `experiments` binary (`src/bin/experiments.rs`), which
//! regenerates the paper's tables and figures. Wall-time measurements of the
//! merging pipeline live in the `mergebench` package.
