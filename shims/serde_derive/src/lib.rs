//! Empty offline stand-in for `serde_derive`, kept only as the `serde`
//! shim's dependency; see `shims/serde`.
