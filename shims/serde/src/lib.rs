//! Empty offline stand-in for `serde`. No workspace crate uses serde any
//! more; this crate stays only because five library manifests still list
//! it as a dependency, and dropping those edges rewrites the benchmark's
//! lock file. It goes when they go.
